// dust::dataplane::Collector — the receiving end of the telemetry data
// plane (DESIGN.md §12). Registers an endpoint on the transport, reassembles
// kDataBlocks batches per owning node, verifies every block against its
// descriptor (decode, sample count, timestamp bounds), and adopts the
// still-compressed blocks into a local TSDB without re-encoding.
//
// The collector is also the auditor of the no-silent-loss contract: every
// batch_seq it never receives must be covered by a kDataDegrade declaration
// that arrived first (guaranteed by QoS ordering — declarations ride
// kNormal, data rides kLow). `undeclared_gap_batches` staying at zero under
// congestion is the dust::check invariant for the whole data plane.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "telemetry/sampling.hpp"
#include "telemetry/tsdb.hpp"
#include "wire/socket_transport.hpp"

namespace dust::dataplane {

struct CollectorStats {
  std::uint64_t batches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t samples = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t degrade_announcements = 0;
  /// Missing batches covered by a prior declaration — expected loss.
  std::uint64_t declared_gap_batches = 0;
  std::uint64_t samples_declared_dropped = 0;
  /// Missing batches nobody declared — the invariant that must stay 0.
  std::uint64_t undeclared_gap_batches = 0;
  /// Blocks whose decoded contents contradict their descriptor.
  std::uint64_t verify_failures = 0;
  /// Blocks/batches arriving against the ordering contract.
  std::uint64_t out_of_order = 0;
};

class Collector {
 public:
  /// Registers `endpoint` as a frame endpoint: every kDataBlocks /
  /// kDataDegrade frame addressed to it lands here. Several collectors can
  /// share one transport under different names.
  Collector(wire::SocketTransport& transport, std::string endpoint);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  [[nodiscard]] const CollectorStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  /// Reassembled per-series storage; series are named
  /// "node<owner>/<series>".
  [[nodiscard]] telemetry::Tsdb& tsdb() noexcept { return tsdb_; }
  [[nodiscard]] const telemetry::Tsdb& tsdb() const noexcept { return tsdb_; }

  /// The no-silent-loss contract: all observed loss was declared, every
  /// block verified, nothing arrived out of order.
  [[nodiscard]] bool loss_fully_declared() const noexcept {
    return stats_.undeclared_gap_batches == 0 && stats_.verify_failures == 0 &&
           stats_.out_of_order == 0;
  }

  /// Last announced degradation state of one owner (kFull, 1.0 before any
  /// announcement).
  [[nodiscard]] telemetry::DegradeMode mode_of(graph::NodeId owner) const;
  [[nodiscard]] double keep_probability_of(graph::NodeId owner) const;

  /// One owner's delivery window since the previous drain_loss_audit() call.
  /// `expected` counts delivered samples plus an estimate for undeclared gap
  /// batches (average received batch size); declared degradation is honest
  /// by contract and does NOT inflate `expected`. Feed each entry into
  /// core::DustManager::record_loss_audit so byzantine (undeclared) loss
  /// dents the owner-hosting destination's trust while announced thinning
  /// never does (DESIGN.md §14).
  struct LossAuditEntry {
    graph::NodeId owner = 0;
    double expected = 0.0;
    double delivered = 0.0;
  };
  /// Per-owner delivery deltas since the last drain, sorted by owner.
  /// Owners with no new traffic are omitted.
  [[nodiscard]] std::vector<LossAuditEntry> drain_loss_audit();

 private:
  struct OwnerState {
    std::uint64_t next_batch_seq = 0;
    telemetry::DegradeMode mode = telemetry::DegradeMode::kFull;
    double keep_probability = 1.0;
    /// Declared [from, to] batch gaps, in announcement order.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> declared_gaps;
    /// Next expected block_seq per series — thinned-to-empty blocks still
    /// ship, so within received batches this is strictly contiguous.
    std::unordered_map<std::string, std::uint64_t> next_block_seq;
    /// Per-owner delivery tallies + drain cursors for drain_loss_audit().
    std::uint64_t samples_received = 0;
    std::uint64_t batches_received = 0;
    std::uint64_t undeclared_batches = 0;
    std::uint64_t audited_samples = 0;
    std::uint64_t audited_undeclared = 0;
  };

  void on_data(wire::Frame&& frame);
  void on_blocks(wire::Frame&& frame);
  void on_degrade(const wire::Frame& frame);
  [[nodiscard]] static bool gap_declared(const OwnerState& owner,
                                         std::uint64_t batch_seq);

  wire::SocketTransport* transport_;
  std::string endpoint_;
  std::uint64_t endpoint_token_ = 0;
  telemetry::Tsdb tsdb_;
  CollectorStats stats_;
  std::unordered_map<graph::NodeId, OwnerState> owners_;
};

}  // namespace dust::dataplane
