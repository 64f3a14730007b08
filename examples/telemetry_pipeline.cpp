// Telemetry pipeline tour: monitoring agents sampling a simulated switch
// into a Gorilla-compressed TSDB, a network-wide view read from both nodes'
// TSDBs — and finally the data plane (DESIGN.md §12): both devices' TSDBs
// drained as sealed Gorilla blocks over real loopback TCP into a
// dataplane::Collector that verifies every block and attests that no loss
// went undeclared.
#include <iostream>

#include "dataplane/block_streamer.hpp"
#include "dataplane/collector.hpp"
#include "sim/node.hpp"
#include "sim/overlay_traffic.hpp"
#include "util/table.hpp"
#include "wire/socket_transport.hpp"

int main() {
  using namespace dust;

  // Two switches with the paper's 10 standard agents each.
  sim::MonitoredNode busy("leaf1", sim::NodeResources{8, 16384.0}, 15.0,
                          0.62 * 16384.0);
  sim::MonitoredNode calm("leaf2", sim::NodeResources{8, 16384.0}, 10.0,
                          0.45 * 16384.0);
  for (auto& agent : telemetry::standard_agents()) {
    busy.add_local_agent(agent);
    calm.add_local_agent(agent);
  }

  sim::OverlayTraffic heavy{sim::OverlayTrafficProfile{}};
  util::Rng rng(11);
  for (int t = 0; t < 300; ++t) {
    const std::int64_t now = 1000LL * t;
    const auto tick = heavy.next(rng);
    busy.tick(now, 1000, tick.rx_mbps, tick.tx_mbps, rng);  // ~31% CPU
    calm.tick(now, 1000, 1500.0, 0.0, rng);                 // ~12% CPU
  }

  // Network-wide view: one metric aggregated in place on each node's TSDB.
  util::Table table("federated view: interface.rxtx.rates.value (Mbps)");
  table.set_precision(1).header({"node", "mean", "max"});
  std::size_t storage_bytes = 0;
  for (const sim::MonitoredNode* node : {&busy, &calm}) {
    const telemetry::Tsdb& db = node->tsdb();
    storage_bytes += db.storage_bytes();
    const auto id = db.find("interface.rxtx.rates.value");
    if (!id) continue;
    using telemetry::Aggregation;
    table.row({node->name(),
               db.aggregate(*id, 0, 400000, Aggregation::kMean).value(),
               db.aggregate(*id, 0, 400000, Aggregation::kMax).value()});
  }
  table.print(std::cout);

  const std::size_t raw_bytes = 2 * 10 * 3 * 300 * 16;  // samples x 16 B
  std::cout << "\nTSDB storage (Gorilla-compressed): " << storage_bytes
            << " bytes vs ~" << raw_bytes << " raw ("
            << static_cast<double>(raw_bytes) / storage_bytes
            << "x compression)\n";

  // The data plane: what the sections above built stays on the device only
  // until a placement decision moves its monitoring load — then the blocks
  // themselves must travel. Drain both TSDBs through BlockStreamers over a
  // real loopback socket into a Collector and let it audit the transfer.
  wire::SocketTransportConfig hub_config;
  hub_config.role = wire::SocketTransportConfig::Role::kHub;
  wire::SocketTransport hub(hub_config);
  wire::SocketTransportConfig leaf_config;
  leaf_config.role = wire::SocketTransportConfig::Role::kLeaf;
  leaf_config.port = hub.listen_port();
  wire::SocketTransport leaf(leaf_config);
  dataplane::Collector collector(hub, "dust-collector");

  std::uint64_t shipped = 0;
  for (auto* node : {&busy, &calm}) {
    const dust::graph::NodeId owner = node == &busy ? 1 : 2;
    const std::string endpoint = "dust-streamer-" + std::to_string(owner);
    leaf.register_endpoint(endpoint, [](const sim::Envelope&) {});
    dataplane::BlockStreamerConfig config;
    config.owner = owner;
    config.local_endpoint = endpoint;
    dataplane::BlockStreamer streamer(leaf, node->tsdb(), config);
    streamer.flush();
    shipped += streamer.stats().samples_sent;
  }
  for (int spins = 0; spins < 1000 && collector.stats().samples < shipped;
       ++spins) {
    leaf.poll_once(1);
    hub.poll_once(1);
  }

  const dataplane::CollectorStats& dp = collector.stats();
  std::cout << "\ndata plane: " << dp.samples << "/" << shipped
            << " samples in " << dp.batches << " batches ("
            << dp.blocks << " blocks) -> dust-collector, "
            << (collector.loss_fully_declared() && dp.samples == shipped
                    ? "every block verified, all loss declared"
                    : "TRANSFER INCOMPLETE")
            << "\n";
  return collector.loss_fully_declared() && dp.samples == shipped ? 0 : 1;
}
