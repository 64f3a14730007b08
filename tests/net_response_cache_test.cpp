#include "net/response_cache.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

#include "graph/topology.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace dust::net {
namespace {

NetworkState fat_tree_net(std::uint32_t k, util::Rng& rng) {
  graph::FatTree topo(k);
  NetworkState net(topo.graph());
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e)
    net.set_link(e, LinkState{1000.0, rng.uniform(0.05, 0.95)});
  return net;
}

/// Reference: evaluate from scratch against the live network state.
ResponseTimeResult fresh_row(const NetworkState& net, graph::NodeId source,
                             double data_mb, const ResponseTimeOptions& opt) {
  return min_response_times(net, source, data_mb, opt);
}

void expect_bit_identical(const ResponseTimeResult& cached,
                          const ResponseTimeResult& fresh,
                          graph::NodeId source) {
  ASSERT_EQ(cached.trmin_seconds.size(), fresh.trmin_seconds.size());
  for (std::size_t v = 0; v < fresh.trmin_seconds.size(); ++v) {
    // EXPECT_EQ on doubles is exact — bit-identical is the contract, not
    // merely "close": the cache stores unit rows and rescales by D_i, which
    // must reproduce the direct evaluation to the last ulp.
    EXPECT_EQ(cached.trmin_seconds[v], fresh.trmin_seconds[v])
        << "source " << source << " dest " << v;
  }
}

TEST(ResponseTimeCache, FirstCycleMissesThenHits) {
  util::Rng rng(7);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeOptions opt{3, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  const auto a = cache.row(net, 0, 10.0, opt);
  const auto b = cache.row(net, 0, 10.0, opt);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(b.work, 0u);  // served from cache
  expect_bit_identical(a, b, 0);
  expect_bit_identical(b, fresh_row(net, 0, 10.0, opt), 0);
}

TEST(ResponseTimeCache, RescalesForDifferentDataVolumes) {
  util::Rng rng(11);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeOptions opt{4, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  (void)cache.row(net, 2, 1.0, opt);  // prime with the unit volume
  for (double data_mb : {0.25, 3.0, 17.5, 1234.0})
    expect_bit_identical(cache.row(net, 2, data_mb, opt),
                         fresh_row(net, 2, data_mb, opt), 2);
  EXPECT_EQ(cache.stats().misses, 1u);  // D_i changes never recompute
}

TEST(ResponseTimeCache, OptionChangeIsAMiss) {
  util::Rng rng(3);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  ResponseTimeOptions narrow{3, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeOptions wider{4, EvaluatorMode::kSharedFrontier, 0};
  (void)cache.row(net, 1, 5.0, narrow);
  expect_bit_identical(cache.row(net, 1, 5.0, wider),
                       fresh_row(net, 1, 5.0, wider), 1);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(ResponseTimeCache, OutOfSyncQueriesBypassTheCache) {
  util::Rng rng(5);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeOptions opt{3, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  (void)cache.row(net, 0, 2.0, opt);
  // Move a link without begin_cycle: the cache must not serve stale rows.
  LinkState moved = net.link(0);
  moved.utilization = moved.utilization < 0.5 ? 0.9 : 0.1;
  net.set_link(0, moved);
  const auto direct = cache.row(net, 0, 2.0, opt);
  expect_bit_identical(direct, fresh_row(net, 0, 2.0, opt), 0);
  EXPECT_GE(cache.stats().bypasses, 1u);
}

TEST(ResponseTimeCache, EpsilonFiltersSubThresholdChurn) {
  util::Rng rng(13);
  NetworkState net = fat_tree_net(4, rng);
  net.set_link_epsilon(0.05);
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  ResponseTimeOptions opt{3, EvaluatorMode::kSharedFrontier, 0};
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    (void)cache.row(net, s, 1.0, opt);
  const auto misses_before = cache.stats().misses;
  // Jitter every link by well under 5% of its baseline: nothing goes dirty.
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e) {
    LinkState state = net.link(e);
    state.utilization = std::min(1.0, state.utilization * 1.01);
    net.set_link(e, state);
  }
  EXPECT_TRUE(net.dirty_links().empty());
  cache.begin_cycle(net);
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    (void)cache.row(net, s, 1.0, opt);
  EXPECT_EQ(cache.stats().misses, misses_before);  // 100% hits
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // Crossing the band dirties the link and drops the rows it can beat.
  LinkState moved = net.link(0);
  moved.utilization = std::min(1.0, moved.utilization * 1.2);
  net.set_link(0, moved);
  EXPECT_EQ(net.dirty_links().size(), 1u);
  cache.begin_cycle(net);
  EXPECT_GT(cache.stats().invalidations, 0u);
}

// The core guarantee, hammered: across random link churn, role flips between
// evaluator modes, epsilon-boundary moves, and volume changes, every row the
// cache serves is bit-identical to a from-scratch evaluation of the same
// query (epsilon = 0, so no staleness band to hide behind).
TEST(ResponseTimeCache, RandomizedEquivalenceUnderChurn) {
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    util::Rng rng(seed);
    NetworkState net = fat_tree_net(4, rng);
    ResponseTimeCache cache;
    const ResponseTimeOptions modes[] = {
        {3, EvaluatorMode::kSharedFrontier, 0},
        {0, EvaluatorMode::kSharedFrontier, 0},
        {3, EvaluatorMode::kEnumerate, 0},
    };
    for (int cycle = 0; cycle < 25; ++cycle) {
      // Churn a random subset of links (sometimes none — pure steady state).
      const std::size_t churn = static_cast<std::size_t>(
          rng.below(1 + net.edge_count() / 10));
      for (std::size_t i = 0; i < churn; ++i) {
        const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
        net.set_link(e, LinkState{1000.0, rng.uniform(0.05, 0.95)});
      }
      cache.begin_cycle(net);
      for (int q = 0; q < 12; ++q) {
        const auto s = static_cast<graph::NodeId>(rng.below(net.node_count()));
        const ResponseTimeOptions& opt = modes[rng.below(std::size(modes))];
        const double data_mb = rng.uniform(0.5, 200.0);
        expect_bit_identical(cache.row(net, s, data_mb, opt),
                             fresh_row(net, s, data_mb, opt), s);
      }
    }
    const ResponseTimeCacheStats stats = cache.stats();
    EXPECT_GT(stats.hits, 0u) << "churn too aggressive to exercise hits";
    EXPECT_GT(stats.misses, 0u);
    EXPECT_EQ(stats.bypasses, 0u);  // begin_cycle ran every cycle
  }
}

// Same equivalence through the NetworkState epsilon band: cached rows must
// match a fresh evaluation of the *pinned* (baseline) costs — i.e. the cache
// is allowed to ignore sub-epsilon drift but must track every dirty link.
TEST(ResponseTimeCache, InvalidationNeverServesADirtyBall) {
  util::Rng rng(42);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeOptions opt{2, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    (void)cache.row(net, s, 1.0, opt);
  for (int round = 0; round < 20; ++round) {
    const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
    net.set_link(e, LinkState{1000.0, rng.uniform(0.05, 0.95)});
    cache.begin_cycle(net);
    for (graph::NodeId s = 0; s < net.node_count(); ++s)
      expect_bit_identical(cache.row(net, s, 7.0, opt),
                           fresh_row(net, s, 7.0, opt), s);
  }
}

// The reprice deadband: with epsilon > 0, a row survives link improvements
// that could only beat its cached Trmin by less than epsilon. Worsened-link
// checks stay exact (used_edges), so correctness-critical invalidation is
// untouched — the deadband only filters "slightly better elsewhere" churn.
TEST(ResponseTimeCache, RepriceEpsilonKeepsRowsThroughSmallImprovements) {
  util::Rng rng(21);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeOptions opt{3, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.set_reprice_epsilon(0.10);
  cache.begin_cycle(net);
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    (void)cache.row(net, s, 1.0, opt);
  const auto misses_before = cache.stats().misses;
  // Improve every link ~2% (higher availability => lower cost): any rival
  // path gets at most ~2% cheaper, well inside the 10% deadband, so every
  // row survives even though every link is dirty.
  for (graph::EdgeId e = 0; e < net.edge_count(); ++e) {
    LinkState state = net.link(e);
    state.utilization = std::min(1.0, state.utilization * 1.02);
    net.set_link(e, state);
  }
  cache.begin_cycle(net);
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    (void)cache.row(net, s, 1.0, opt);
  EXPECT_EQ(cache.stats().misses, misses_before);
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // Tightening the deadband clears the cache: a row kept under the looser
  // epsilon might not survive the stricter one.
  cache.set_reprice_epsilon(0.0);
  cache.begin_cycle(net);
  (void)cache.row(net, 0, 1.0, opt);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
}

// With no cached row, begin_cycle only refreshes its cost snapshot and
// re-baselines the moved links. Rows queried afterwards must still be served
// in sync and on the new costs, and a later improving move must still drop a
// row it beats.
TEST(ResponseTimeCache, CyclesWithNoCachedRowsStillTrackLinks) {
  util::Rng rng(31);
  NetworkState net = fat_tree_net(4, rng);
  const ResponseTimeOptions opt{3, EvaluatorMode::kSharedFrontier, 0};
  ResponseTimeCache cache;
  cache.begin_cycle(net);
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 4; ++i) {
      const auto e = static_cast<graph::EdgeId>(rng.below(net.edge_count()));
      net.set_link(e, LinkState{1000.0, rng.uniform(0.05, 0.95)});
    }
    ASSERT_FALSE(net.dirty_links().empty());
    cache.begin_cycle(net);
    EXPECT_TRUE(net.dirty_links().empty());
    EXPECT_EQ(cache.cached_rows(), 0u);
  }
  for (graph::NodeId s = 0; s < net.node_count(); ++s)
    expect_bit_identical(cache.row(net, s, 3.0, opt),
                         fresh_row(net, s, 3.0, opt), s);
  EXPECT_EQ(cache.stats().bypasses, 0u);
  EXPECT_EQ(cache.stats().misses, net.node_count());
  EXPECT_EQ(cache.stats().invalidations, 0u);

  // A hundredfold bandwidth on a link makes it the cheapest route between
  // its endpoints, which beats the row of endpoint a at destination b.
  const graph::Edge edge = net.graph().edge(0);
  net.set_link(0, LinkState{100000.0, 0.95});
  cache.begin_cycle(net);
  EXPECT_GE(cache.stats().invalidations, 1u);
  const auto misses_before = cache.stats().misses;
  expect_bit_identical(cache.row(net, edge.a, 3.0, opt),
                       fresh_row(net, edge.a, 3.0, opt), edge.a);
  EXPECT_EQ(cache.stats().misses, misses_before + 1);
  EXPECT_EQ(cache.stats().bypasses, 0u);
}

// Every begin_cycle call, whichever way it returns, is one observation of
// dust_net_begin_cycle_ms in the global registry.
TEST(ResponseTimeCache, ExportsBeginCycleTime) {
  obs::MetricRegistry& registry = obs::MetricRegistry::global();
  const auto count = [&registry]() -> std::uint64_t {
    const obs::RegistrySnapshot snapshot = registry.snapshot();
    const obs::NamedHistogramSnapshot* h =
        snapshot.find_histogram("dust_net_begin_cycle_ms");
    return h ? h->count : 0;
  };
  util::Rng rng(17);
  NetworkState net = fat_tree_net(4, rng);
  ResponseTimeCache cache;
  const auto before = count();
  cache.begin_cycle(net);  // wholesale rebuild
  cache.begin_cycle(net);  // nothing dirty
  net.set_link(1, LinkState{1000.0, 0.5});
  cache.begin_cycle(net);  // one moved link
  EXPECT_EQ(count(), before + 3);
}

TEST(NetworkStateDirtyTracking, VersionAndSnapshotSemantics) {
  util::Rng rng(9);
  NetworkState net = fat_tree_net(4, rng);
  net.snapshot_links();  // absorb the construction-time churn
  const std::uint64_t v0 = net.link_version();
  LinkState moved = net.link(3);
  const double u0 = moved.utilization;
  moved.utilization = u0 * 0.5;
  net.set_link(3, moved);
  EXPECT_TRUE(net.link_dirty(3));
  EXPECT_EQ(net.dirty_links().size(), 1u);
  EXPECT_EQ(net.link_version(), v0 + 1);
  // Re-dirtying the same link does not bump the version again.
  moved.utilization = u0 * 0.25;
  net.set_link(3, moved);
  EXPECT_EQ(net.dirty_links().size(), 1u);
  EXPECT_EQ(net.link_version(), v0 + 1);
  net.snapshot_links();
  EXPECT_TRUE(net.dirty_links().empty());
  EXPECT_FALSE(net.link_dirty(3));
  // Re-applying the exact baseline value stays clean (epsilon = 0 still
  // tolerates a zero-magnitude move).
  net.set_link(3, moved);
  EXPECT_TRUE(net.dirty_links().empty());
}

}  // namespace
}  // namespace dust::net
