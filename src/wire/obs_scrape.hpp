// wire::ObsResponder / wire::ObsScraper — frame plumbing for the fleet
// observability plane (DESIGN.md §15).
//
// Every daemon that wants its metrics visible fleet-wide hosts an
// ObsResponder: it registers the well-known endpoint "dust-obs-<node>" and
// answers kObsScrape pulls with kObsSnapshot replies carrying the compact
// delta encoding from obs/snapshot.hpp. The manager (or any process holding
// an obs::Aggregator) runs an ObsScraper: it discovers responder endpoints
// by prefix (hub) or takes an explicit target list (leaf), sends one scrape
// per target per scrape() call, and merges the replies into the aggregator.
//
// QoS is the paper's own medicine: the pull and its piggybacked ack ride
// kNormal (they govern the telemetry tier), the snapshot replies ride kLow
// and may be shed at a full queue. The ack-delta protocol in the codec
// tolerates that — a shed reply just means the next delta re-diffs against
// the older acked baseline.
//
// Hot-tick guarantee (the obs-overhead bench gates this): a scrape that
// finds nothing changed sends no reply and allocates nothing — the encoder's
// dirty check compares atomics against the acked baseline and bails.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/aggregator.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "wire/socket_transport.hpp"

namespace dust::wire {

/// Well-known endpoint prefix responders register under; the scraper's
/// discovery key.
inline constexpr const char* kObsEndpointPrefix = "dust-obs-";

[[nodiscard]] inline std::string obs_endpoint_name(const std::string& node) {
  return std::string(kObsEndpointPrefix) + node;
}

/// Serves one registry's metrics to any number of scrapers through its own
/// frame endpoint; several responders can share one transport.
class ObsResponder {
 public:
  /// Registers endpoint "dust-obs-<node>" on `transport` and starts
  /// answering scrapes with deltas of `registry`. `now` stamps
  /// source_now_ms into snapshots (defaults to 0 when unset — the
  /// aggregator's own clock drives staleness either way).
  ObsResponder(SocketTransport& transport, std::string node,
               obs::MetricRegistry& registry = obs::MetricRegistry::global(),
               std::function<std::int64_t()> now = {});
  ~ObsResponder();

  ObsResponder(const ObsResponder&) = delete;
  ObsResponder& operator=(const ObsResponder&) = delete;

  [[nodiscard]] const std::string& endpoint() const noexcept {
    return endpoint_;
  }
  [[nodiscard]] std::uint64_t snapshots_sent() const noexcept {
    return snapshots_sent_;
  }
  /// Scrapes answered with no frame because nothing changed.
  [[nodiscard]] std::uint64_t clean_scrapes() const noexcept {
    return clean_scrapes_;
  }

 private:
  void on_scrape(Frame&& frame);

  SocketTransport* transport_;
  std::string node_;
  std::string endpoint_;
  obs::MetricRegistry* registry_;
  std::function<std::int64_t()> now_;
  std::uint64_t token_ = 0;
  /// Per-scraper delta state, keyed by the scraping endpoint's name: two
  /// aggregators scraping the same node see independent ack baselines.
  std::unordered_map<std::string, std::unique_ptr<obs::SnapshotEncoder>>
      encoders_;
  std::vector<std::uint8_t> buffer_;  ///< reused encode buffer
  obs::Counter* scrape_bytes_ = nullptr;  ///< dust_obs_scrape_bytes_total
  std::uint64_t snapshots_sent_ = 0;
  std::uint64_t clean_scrapes_ = 0;
};

struct ObsScraperConfig {
  /// Explicit responder endpoints ("dust-obs-<node>"). Leaf-side scrapers
  /// must list targets; a hub scraper can rely on discovery alone.
  std::vector<std::string> targets;
  /// Also scrape every remote endpoint matching kObsEndpointPrefix
  /// (hub only — leaves never learn remote endpoint names).
  bool discover = true;
};

/// Pulls snapshots from responders and merges them into an Aggregator.
/// Replies arrive on its own frame endpoint; several scrapers can share one
/// transport.
class ObsScraper {
 public:
  /// Registers `endpoint` (the reply-to address) on `transport`. Counters
  /// land in `registry` (dust_obs_scrapes_sent_total,
  /// dust_obs_snapshot_decode_failures_total).
  ObsScraper(SocketTransport& transport, obs::Aggregator& aggregator,
             std::string endpoint, ObsScraperConfig config = {},
             obs::MetricRegistry& registry = obs::MetricRegistry::global());
  ~ObsScraper();

  ObsScraper(const ObsScraper&) = delete;
  ObsScraper& operator=(const ObsScraper&) = delete;

  /// Send one kObsScrape to every known target (explicit + discovered),
  /// piggybacking the ack for the last applied snapshot and the
  /// request-full flag where the aggregator rejected a delta. Returns the
  /// number of scrapes sent. `now_ms` becomes the aggregator timestamp for
  /// replies merged before the next scrape() call.
  std::size_t scrape(std::int64_t now_ms);

  [[nodiscard]] std::vector<std::string> targets() const;
  [[nodiscard]] std::uint64_t scrapes_sent() const noexcept {
    return scrapes_sent_;
  }
  [[nodiscard]] std::uint64_t snapshots_applied() const noexcept {
    return snapshots_applied_;
  }
  [[nodiscard]] std::uint64_t snapshots_rejected() const noexcept {
    return snapshots_rejected_;
  }
  [[nodiscard]] std::uint64_t decode_failures() const noexcept {
    return decode_failures_;
  }

 private:
  struct Target {
    std::uint64_t scrape_seq = 0;
    std::uint64_t ack_seq = 0;  ///< last snapshot seq the aggregator applied
    /// Ask for a full snapshot: set at first contact (the responder may
    /// hold baselines from a previous scraper incarnation under our name)
    /// and after any rejected delta; cleared by a successful apply.
    bool want_full = true;
  };

  void on_snapshot(Frame&& frame);

  SocketTransport* transport_;
  obs::Aggregator* aggregator_;
  std::string endpoint_;
  ObsScraperConfig config_;
  std::uint64_t token_ = 0;
  std::unordered_map<std::string, Target> targets_;
  std::int64_t last_scrape_now_ms_ = 0;
  obs::Counter* scrapes_sent_counter_ = nullptr;
  obs::Counter* decode_failures_counter_ = nullptr;
  std::uint64_t scrapes_sent_ = 0;
  std::uint64_t snapshots_applied_ = 0;
  std::uint64_t snapshots_rejected_ = 0;
  std::uint64_t decode_failures_ = 0;
};

}  // namespace dust::wire
