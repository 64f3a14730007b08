// The umbrella header must compile standalone and expose every layer.
#include "dust.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EveryLayerReachable) {
  dust::util::Rng rng(1);
  const dust::graph::FatTree topo(4);
  dust::net::NetworkState state(topo.graph());
  dust::solver::TransportationProblem transport;
  dust::telemetry::Tsdb db;
  dust::sim::Simulator sim;
  dust::core::Nmdb nmdb(std::move(state), dust::core::Thresholds{});
  EXPECT_EQ(nmdb.node_count(), 20u);
  EXPECT_EQ(transport.sources(), 0u);
  EXPECT_EQ(db.metric_count(), 0u);
  EXPECT_EQ(sim.now(), 0);
  EXPECT_GT(rng(), 0u);
}

}  // namespace
