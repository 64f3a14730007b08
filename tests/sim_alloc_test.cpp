// Heap-allocation count of the virtual-time message path in steady state.
//
// This binary replaces the global operator new with one that counts calls
// while a window is open. Once the event store, the in-flight pool and the
// endpoint table have grown to their working size, a STAT-shaped delivery
// (long client name, small payload), a PeriodicTask re-arm, inside the
// ring or beyond it, and a real client's STAT round to a real manager (an
// 80-byte core::Message payload) must not allocate at all. Its own
// executable, so the replaced operator new touches no other test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/client.hpp"
#include "core/manager.hpp"
#include "graph/topology.hpp"
#include "sim/event_queue.hpp"
#include "sim/transport.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

// Out of line, so the compiler does not pair an inlined free() with the
// operator new it sees at a call site and warn about a mismatch.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }

namespace dust::sim {
namespace {

/// Heap allocations made by `body`.
template <typename Body>
std::size_t allocations_in(Body&& body) {
  g_allocations.store(0);
  g_counting.store(true);
  body();
  g_counting.store(false);
  return g_allocations.load();
}

// DustClient -> DustManager STATs carry a core::Message, larger than
// std::any's small buffer: the payload must travel inline.
TEST(SteadyStateAllocations, ProtocolStatRoundAllocatesNothing) {
  Simulator sim;
  Transport transport(sim, util::Rng(1));
  constexpr std::uint32_t kNodes = 8;
  net::NetworkState state(graph::make_ring(kNodes));
  for (graph::NodeId v = 0; v < kNodes; ++v) {
    state.set_node_utilization(v, 40.0);
    state.set_monitoring_data_mb(v, 10.0);
  }
  core::ManagerConfig config;
  config.update_interval_ms = 1000;
  // Only STATs in the window: no placement cycle, no keepalive sweep.
  config.placement_period_ms = 1'000'000'000;
  config.keepalive_check_period_ms = 1'000'000'000;
  core::DustManager manager(sim, transport,
                            core::Nmdb(std::move(state), core::Thresholds{}),
                            config);
  std::vector<std::unique_ptr<core::DustClient>> clients;
  for (graph::NodeId v = 0; v < kNodes; ++v) {
    clients.push_back(std::make_unique<core::DustClient>(
        sim, transport, v, core::ClientConfig{}, util::Rng(100 + v)));
    clients.back()->set_reported_state(40.0, 10.0, 10);
    clients.back()->start();
  }
  manager.start();
  sim.run_until(5000);  // handshake plus a few rounds to grow the pools
  const std::uint64_t stats_before = manager.stats_received();
  ASSERT_GT(stats_before, 0u);

  const std::size_t count =
      allocations_in([&] { sim.run_until(sim.now() + 20'000); });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(manager.stats_received() - stats_before, 20u * kNodes);
}

TEST(SteadyStateAllocations, StatDeliveryAllocatesNothing) {
  Simulator sim;
  Transport transport(sim, util::Rng(1));
  std::uint64_t received = 0;
  transport.register_endpoint("dust-manager", [&received](const Envelope& e) {
    received += static_cast<std::uint64_t>(*e.payload.get_if<int>());
  });
  // Names past the small-string buffer: the pooled envelopes must reuse
  // their capacity instead of copying into fresh heap strings.
  std::vector<std::string> clients;
  for (int i = 0; i < 64; ++i)
    clients.push_back("dust-client-" + std::to_string(1000 + i));
  const std::string manager = "dust-manager";
  const auto round = [&] {
    for (const std::string& client : clients)
      transport.send(client, manager, 1, Priority::kNormal, "stat", 7);
    sim.run_until(sim.now() + 1000);
  };
  for (int i = 0; i < 3; ++i) round();  // grow the pool and the queue

  const std::size_t count = allocations_in([&] {
    for (int i = 0; i < 100; ++i) round();
  });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(received, 103u * clients.size());
  EXPECT_EQ(transport.delivered(), received);
}

// Messages dropped by Simulator::clear() give their pooled slots back, so
// repeated send/clear rounds reuse the pool instead of growing it.
TEST(SteadyStateAllocations, ClearedMessagesReuseTheirSlots) {
  Simulator sim;
  Transport transport(sim, util::Rng(1));
  transport.register_endpoint("dust-manager", [](const Envelope&) {});
  const std::string client = "dust-client-1000";
  const std::string manager = "dust-manager";
  const auto round = [&] {
    for (int i = 0; i < 16; ++i)
      transport.send(client, manager, i, Priority::kNormal, "stat", 7);
    sim.clear();
  };
  for (int i = 0; i < 3; ++i) round();

  const std::size_t count = allocations_in([&] {
    for (int i = 0; i < 100; ++i) round();
  });
  EXPECT_EQ(count, 0u);
}

TEST(SteadyStateAllocations, PeriodicRearmAllocatesNothing) {
  Simulator sim;
  std::size_t fired = 0;
  // One timer inside the ring's span and one beyond it (overflow path).
  PeriodicTask near(sim, 0, 1000, [&fired](TimeMs) { ++fired; });
  PeriodicTask far(sim, 0, 10000, [&fired](TimeMs) { ++fired; });
  sim.run_until(30000);  // warm: both paths have run and recycled

  const std::size_t count =
      allocations_in([&] { sim.run_until(sim.now() + 200000); });
  EXPECT_EQ(count, 0u);
  EXPECT_EQ(fired, 31u + 4u + 200u + 20u);
}

}  // namespace
}  // namespace dust::sim
