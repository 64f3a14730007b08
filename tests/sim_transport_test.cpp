#include "sim/transport.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace dust::sim {
namespace {

struct Fixture : ::testing::Test {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  std::vector<Envelope> received;

  void listen(const std::string& name) {
    transport.register_endpoint(
        name, [this](const Envelope& e) { received.push_back(e); });
  }
};

TEST_F(Fixture, DeliversAfterLatency) {
  listen("b");
  transport.set_default_latency_ms(25);
  transport.send("a", "b", std::string("hello"));
  sim.run_until(24);
  EXPECT_TRUE(received.empty());
  sim.run_until(25);
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, "a");
  EXPECT_EQ(*received[0].payload.get_if<std::string>(), "hello");
}

TEST_F(Fixture, UnknownEndpointCountsDropped) {
  transport.send("a", "ghost", 1);
  sim.run();
  EXPECT_EQ(transport.dropped(), 1u);
  EXPECT_EQ(transport.delivered(), 0u);
}

TEST_F(Fixture, UnregisterWhileInFlightDrops) {
  listen("b");
  transport.send("a", "b", 1);
  transport.unregister_endpoint("b");
  sim.run();
  EXPECT_EQ(transport.delivered(), 0u);
  EXPECT_EQ(transport.dropped(), 1u);
}

TEST_F(Fixture, FullLossDropsEverything) {
  listen("b");
  transport.set_loss_probability(1.0);
  for (int i = 0; i < 10; ++i) transport.send("a", "b", i);
  sim.run();
  EXPECT_EQ(transport.dropped(), 10u);
  EXPECT_TRUE(received.empty());
}

TEST_F(Fixture, PartialLossApproximatesRate) {
  listen("b");
  transport.set_loss_probability(0.3);
  for (int i = 0; i < 2000; ++i) transport.send("a", "b", i);
  sim.run();
  EXPECT_NEAR(static_cast<double>(transport.dropped()) / 2000.0, 0.3, 0.05);
}

TEST_F(Fixture, LossProbabilityValidated) {
  EXPECT_THROW(transport.set_loss_probability(-0.1), std::invalid_argument);
  EXPECT_THROW(transport.set_loss_probability(1.1), std::invalid_argument);
}

TEST_F(Fixture, PartitionBlocksDestination) {
  listen("b");
  listen("c");
  transport.set_partitioned("b", true);
  transport.send("a", "b", 1);
  transport.send("a", "c", 2);
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].to, "c");
  transport.set_partitioned("b", false);
  transport.send("a", "b", 3);
  sim.run();
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(Fixture, CongestionDropsOnlyLowPriority) {
  listen("b");
  transport.set_congested(true);
  transport.send("a", "b", 1, Priority::kLow);
  transport.send("a", "b", 2, Priority::kNormal);
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(*received[0].payload.get_if<int>(), 2);
  transport.set_congested(false);
  transport.send("a", "b", 3, Priority::kLow);
  sim.run();
  EXPECT_EQ(received.size(), 2u);
}

TEST_F(Fixture, LossAndPriorityInteract) {
  // Under congestion with lossy links, kLow traffic is shed entirely while
  // kNormal only pays the link loss rate — QoS shedding and stochastic loss
  // are independent drop causes.
  listen("b");
  transport.set_congested(true);
  transport.set_loss_probability(0.2);
  constexpr int kPerClass = 1000;
  for (int i = 0; i < kPerClass; ++i) {
    transport.send("a", "b", i, Priority::kLow);
    transport.send("a", "b", i, Priority::kNormal);
  }
  sim.run();
  std::size_t low_received = 0;
  for (const Envelope& e : received)
    if (e.priority == Priority::kLow) ++low_received;
  EXPECT_EQ(low_received, 0u);  // congestion sheds every kLow message
  const double normal_rate =
      static_cast<double>(received.size()) / kPerClass;
  EXPECT_NEAR(normal_rate, 0.8, 0.05);  // kNormal survives minus link loss
  EXPECT_EQ(transport.dropped() + received.size(),
            static_cast<std::size_t>(2 * kPerClass));
}

TEST_F(Fixture, CountersConsistent) {
  listen("b");
  transport.send("a", "b", 1);
  transport.send("a", "ghost", 2);
  sim.run();
  EXPECT_EQ(transport.sent(), 2u);
  EXPECT_EQ(transport.delivered() + transport.dropped(), 2u);
}

TEST_F(Fixture, NullHandlerRejected) {
  EXPECT_THROW(transport.register_endpoint("x", nullptr),
               std::invalid_argument);
}

TEST_F(Fixture, HasEndpoint) {
  EXPECT_FALSE(transport.has_endpoint("b"));
  listen("b");
  EXPECT_TRUE(transport.has_endpoint("b"));
}

TEST_F(Fixture, MessagesPreserveFifoPerLatencyClass) {
  listen("b");
  for (int i = 0; i < 5; ++i) transport.send("a", "b", i);
  sim.run();
  ASSERT_EQ(received.size(), 5u);
  for (int i = 0; i < 5; ++i)
    EXPECT_EQ(*received[i].payload.get_if<int>(), i);
}

// Drop precedence is loss → partition → congestion: the loss draw is taken
// on *every* send, even ones a partition or congestion will discard anyway,
// so the RNG stream consumed by a run depends only on the message sequence.
// These tests pin that property — it is what makes dust::check fault
// schedules replay bit-identically under a fixed seed.
namespace {
std::vector<int> kept_deliveries(
    const std::function<void(Transport&, int)>& before_send) {
  Simulator sim;
  Transport transport{sim, util::Rng(42)};
  std::vector<int> delivered;
  transport.register_endpoint("keep", [&](const Envelope& e) {
    delivered.push_back(*e.payload.get_if<int>());
  });
  transport.register_endpoint("telemetry", [](const Envelope&) {});
  transport.set_loss_probability(0.4);
  for (int i = 0; i < 200; ++i) {
    before_send(transport, i);
    transport.send("a", "telemetry", i, Priority::kLow);
    transport.send("a", "keep", i, Priority::kNormal);
  }
  sim.run();
  return delivered;
}
}  // namespace

TEST(TransportPrecedence, CongestionTogglesNeverShiftLossDraws) {
  const std::vector<int> baseline =
      kept_deliveries([](Transport&, int) {});
  // Mid-run congestion sheds the interleaved kLow traffic; the kNormal
  // survivor set must be bit-identical because every kLow send still
  // consumed its loss draw before the congestion check.
  const std::vector<int> congested =
      kept_deliveries([](Transport& t, int i) {
        t.set_congested(i >= 50 && i < 150);
      });
  EXPECT_EQ(congested, baseline);
}

TEST(TransportPrecedence, PartitionTogglesNeverShiftLossDraws) {
  const std::vector<int> baseline =
      kept_deliveries([](Transport&, int) {});
  const std::vector<int> partitioned =
      kept_deliveries([](Transport& t, int i) {
        if (i == 50) t.set_partitioned("telemetry", true);
        if (i == 150) t.set_partitioned("telemetry", false);
      });
  EXPECT_EQ(partitioned, baseline);
}

TEST(TransportPrecedence, LossOutranksPartitionAndCongestionInAccounting) {
  // With loss = 1 everything is a loss-drop; healing the partition and
  // clearing congestion afterwards must not resurrect anything.
  Simulator sim;
  Transport transport{sim, util::Rng(7)};
  std::size_t received = 0;
  transport.register_endpoint("b",
                              [&](const Envelope&) { ++received; });
  transport.set_loss_probability(1.0);
  transport.set_partitioned("b", true);
  transport.set_congested(true);
  for (int i = 0; i < 20; ++i) transport.send("a", "b", i, Priority::kLow);
  transport.set_loss_probability(0.0);
  transport.set_partitioned("b", false);
  transport.set_congested(false);
  transport.send("a", "b", 99, Priority::kLow);
  sim.run();
  EXPECT_EQ(transport.dropped(), 20u);
  EXPECT_EQ(received, 1u);
}

TEST(TransportFaultScript, AppliesEventsAtScheduledTimes) {
  Simulator sim;
  Transport transport{sim, util::Rng(5)};
  std::vector<int> delivered;
  transport.register_endpoint("b", [&](const Envelope& e) {
    delivered.push_back(*e.payload.get_if<int>());
  });

  using Kind = FaultEvent::Kind;
  schedule_fault_script(sim, transport,
                        {{1000, Kind::kLossProbability, 1.0, ""},
                         {2000, Kind::kLossProbability, 0.0, ""},
                         {3000, Kind::kPartition, 0.0, "b"},
                         {4000, Kind::kHeal, 0.0, "b"},
                         {5000, Kind::kCongestionOn, 0.0, ""},
                         {6000, Kind::kCongestionOff, 0.0, ""}});

  const auto probe = [&](TimeMs at, int tag, Priority priority) {
    sim.schedule_at(at, [&transport, tag, priority] {
      transport.send("a", "b", tag, priority);
    });
  };
  probe(500, 1, Priority::kNormal);   // before any fault: delivered
  probe(1500, 2, Priority::kNormal);  // full loss window: dropped
  probe(2500, 3, Priority::kNormal);  // loss healed: delivered
  probe(3500, 4, Priority::kNormal);  // partition window: dropped
  probe(4500, 5, Priority::kNormal);  // partition healed: delivered
  probe(5500, 6, Priority::kLow);     // congestion window: kLow dropped
  probe(5500, 7, Priority::kNormal);  // ...but kNormal passes (§III-C QoS)
  probe(6500, 8, Priority::kLow);     // congestion cleared: kLow delivered
  sim.run();
  EXPECT_EQ(delivered, (std::vector<int>{1, 3, 5, 7, 8}));
}

// Endpoint lookup happens at delivery, not at send: a message in flight
// while its endpoint is re-registered reaches the new handler.
TEST(TransportEndpoints, ReRegisterWhileInFlightDeliversToNewHandler) {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  std::vector<std::string> seen;
  transport.register_endpoint(
      "b", [&](const Envelope& e) { seen.push_back("old:" + e.kind); });
  transport.send("a", "b", 1, Priority::kNormal, "first");
  transport.register_endpoint(
      "b", [&](const Envelope& e) { seen.push_back("new:" + e.kind); });
  transport.send("a", "b", 2, Priority::kNormal, "second");
  sim.run();
  EXPECT_EQ(seen, (std::vector<std::string>{"new:first", "new:second"}));
  EXPECT_EQ(transport.delivered(), 2u);
}

TEST(TransportEndpoints, StaleTokenUnregisterIsNoOp) {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  int first = 0;
  int second = 0;
  const std::uint64_t old_token =
      transport.register_endpoint("b", [&](const Envelope&) { ++first; });
  const std::uint64_t new_token =
      transport.register_endpoint("b", [&](const Envelope&) { ++second; });
  EXPECT_NE(old_token, new_token);
  transport.unregister_endpoint("b", old_token);  // stale: must not remove
  EXPECT_TRUE(transport.has_endpoint("b"));
  transport.send("a", "b", 1);
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
  transport.unregister_endpoint("b", new_token);
  EXPECT_FALSE(transport.has_endpoint("b"));
  transport.unregister_endpoint("b", new_token);  // twice: still a no-op
  transport.send("a", "b", 2);
  sim.run();
  EXPECT_EQ(second, 1);
  EXPECT_EQ(transport.dropped(), 1u);
}

// A handler that sends from inside its own delivery, many messages at a
// time, forces the in-flight store to grow while an envelope is being
// delivered. The envelope it is reading must stay intact and every chain
// must arrive in send order.
TEST(TransportEndpoints, SendsDuringDeliveryGrowStoreAndKeepOrder) {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  std::vector<int> order;
  transport.register_endpoint("sink", [&](const Envelope& e) {
    order.push_back(*e.payload.get_if<int>());
  });
  transport.register_endpoint("fan", [&](const Envelope& e) {
    const int base = *e.payload.get_if<int>();
    for (int i = 0; i < 64; ++i) {
      transport.send("fan", "sink", base * 100 + i);
      // The delivered envelope is still readable after the sends.
      ASSERT_EQ(*e.payload.get_if<int>(), base);
      ASSERT_EQ(e.from, "src");
      ASSERT_EQ(e.to, "fan");
    }
  });
  for (int b = 1; b <= 4; ++b) transport.send("src", "fan", b);
  sim.run();
  ASSERT_EQ(order.size(), 256u);
  std::size_t k = 0;
  for (int b = 1; b <= 4; ++b)
    for (int i = 0; i < 64; ++i) EXPECT_EQ(order[k++], b * 100 + i);
  EXPECT_EQ(transport.delivered(), 260u);
}

// Simulator::clear() drops the delivery events of messages in flight. Their
// pooled slots (and payloads) come back at the transport's next send, so a
// send/clear loop reuses one slot instead of growing the pool.
TEST(TransportEndpoints, ClearReleasesInFlightPayloads) {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  int delivered = 0;
  transport.register_endpoint("b", [&](const Envelope&) { ++delivered; });
  const auto payload = std::make_shared<int>(7);
  transport.send("a", "b", payload);
  transport.send("a", "b", payload);
  EXPECT_EQ(payload.use_count(), 3);
  sim.clear();
  transport.send("a", "b", 1);  // reclaims both orphaned slots first
  EXPECT_EQ(payload.use_count(), 1);
  sim.run();
  EXPECT_EQ(delivered, 1);

  // A handler that clears the simulator mid-delivery keeps its own envelope
  // intact; the slot is freed once, when its delivery ends.
  transport.register_endpoint("c", [&](const Envelope& e) {
    sim.clear();
    transport.send("a", "b", 2);
    EXPECT_EQ(*e.payload.get_if<int>(), 9);
  });
  transport.send("a", "c", 9);
  transport.send("a", "c", 9);  // dropped by the clear inside the first
  sim.run();
  EXPECT_EQ(delivered, 2);
  for (int i = 0; i < 3; ++i) transport.send("a", "b", 3);
  sim.run();
  EXPECT_EQ(delivered, 5);
}

// A send whose delivery cannot be scheduled (negative latency) throws and
// leaves no slot or payload behind.
TEST(TransportEndpoints, FailedScheduleHoldsNoSlot) {
  Simulator sim;
  Transport transport{sim, util::Rng(1)};
  int delivered = 0;
  transport.register_endpoint("b", [&](const Envelope&) { ++delivered; });
  const auto payload = std::make_shared<int>(7);
  transport.set_default_latency_ms(-1);
  EXPECT_THROW(transport.send("a", "b", payload), std::invalid_argument);
  EXPECT_EQ(payload.use_count(), 1);
  transport.set_default_latency_ms(1);
  transport.send("a", "b", 1);
  sim.run();
  EXPECT_EQ(delivered, 1);
}

// Flight-recorder tx/drop details are byte-identical labels: the manager is
// "M", "dust-client-<n>" is "c<n>", any other endpoint keeps its name, a
// drop is prefixed with its cause, and the whole detail is cut at 31 chars.
TEST(TransportFlightDetail, TxAndDropLabelsArePinned) {
  obs::set_enabled(true);
  obs::FlightRecorder& recorder = obs::FlightRecorder::global();
  recorder.clear();
  Simulator sim;
  Transport transport{sim, util::Rng(3)};
  transport.register_endpoint("dust-manager", [](const Envelope&) {});
  transport.register_endpoint("dust-client-3", [](const Envelope&) {});
  transport.send("dust-client-3", "dust-manager", 1, Priority::kNormal,
                 "stat", 77);
  transport.send("dust-manager", "dust-client-3", 1, Priority::kNormal,
                 "offload_request");
  transport.send("dust-client-12", "dust-collector-0", 1, Priority::kLow,
                 "telemetry_data");
  transport.send("dust-client-", "dust-client-x9", 1);
  transport.set_loss_probability(1.0);
  transport.send("dust-client-3", "dust-manager", 1, Priority::kNormal,
                 "stat", 78);
  transport.set_loss_probability(0.0);
  transport.set_partitioned("dust-client-3", true);
  transport.send("dust-manager", "dust-client-3", 1, Priority::kNormal,
                 "keepalive_ack");
  transport.set_partitioned("dust-client-3", false);
  transport.set_congested(true);
  transport.send("dust-client-3", "dust-client-40", 1, Priority::kLow,
                 "telemetry_data");
  transport.set_congested(false);
  sim.run();

  std::vector<std::string> lines;
  for (const obs::FlightEvent& event : recorder.snapshot()) {
    if (event.kind != obs::FlightEventKind::kMessageTx &&
        event.kind != obs::FlightEventKind::kMessageDrop)
      continue;
    lines.push_back(
        std::string(event.kind == obs::FlightEventKind::kMessageTx ? "tx "
                                                                    : "drop ") +
        event.detail + " " + std::to_string(event.node) + ">" +
        std::to_string(event.peer) + " t" + std::to_string(event.trace_id));
  }
  EXPECT_EQ(lines,
            (std::vector<std::string>{
                "tx stat c3>M 3>-1 t77",
                "tx offload_request M>c3 -1>3 t0",
                "tx telemetry_data c12>dust-collect 12>-1 t0",
                "tx ? dust-client->dust-client-x9 -1>-1 t0",
                "tx stat c3>M 3>-1 t78",
                "drop loss: stat c3>M 3>-1 t78",
                "tx keepalive_ack M>c3 -1>3 t0",
                "drop partition: keepalive_ack M>c3 -1>3 t0",
                "tx telemetry_data c3>c40 3>40 t0",
                "drop congestion: telemetry_data c3>c 3>40 t0",
                "drop no_endpoint: telemetry_data c12 12>-1 t0",
                "drop no_endpoint: ? dust-client->dus -1>-1 t0",
            }));
  recorder.clear();
}

}  // namespace
}  // namespace dust::sim
