// O8 — federated vs single-manager placement differential (DESIGN.md §16).
//
// A federated fleet solves per-domain against masked NMDBs and moves the
// overflow through aggregate-digest delegation; a single manager solves the
// same NMDB globally and optimally. This oracle runs both, with the
// delegation round modelled exactly as FederatedManager performs it
// (aggregate spare per neighbor, one concrete destination per grant), and
// cross-checks:
//
//   O8-local-containment  no shard's local solve ever plans onto a node
//                         outside its domain (the masking invariant)
//   O8-no-overcommit      the federated plan never places more load than
//                         the single-manager max-offload optimum (which is
//                         a true upper bound)
//   O8-spare-respected    every delegated grant fits inside the granting
//                         candidate's residual spare (no double-booking)
//   O8-gap-accounted      the federated shortfall beyond the single-manager
//                         optimum is fully explained by the two declared
//                         stranding causes: residuals under the delegation
//                         floor and grants rejected by single-destination
//                         granularity (any other loss is a bug)
//   O8-identical          when the single-manager optimum keeps every
//                         assignment inside its busy node's domain, the
//                         sharded solves must reach an optimum too: the
//                         same β and total placed within tolerance, and
//                         every busy node shipped in full whenever the
//                         single manager ships them all. The flows
//                         themselves are not compared: at a degenerate
//                         optimum equal-cost routes can split a load
//                         differently at the same β.
//
// Caveat the caller owns: delegation grants ignore Trmin reachability (the
// protocol trusts the digest), so run this oracle with PlacementOptions
// that leave every busy-candidate pair reachable (max_hops = 0), or the
// single-manager "upper bound" need not be one.
#pragma once

#include <vector>

#include "check/invariants.hpp"
#include "core/nmdb.hpp"
#include "core/optimizer.hpp"
#include "federation/partition.hpp"

namespace dust::check {

struct FederationCheckOptions {
  /// Mirror of FederatedManagerConfig::min_delegation_amount.
  double min_delegation_amount = 1.0;
  double tolerance = 1e-6;
};

/// Everything both sides computed, for tests asserting numeric bounds.
struct FederatedComparison {
  core::PlacementResult single;  ///< global max-offload optimum
  double total_excess = 0.0;     ///< Σ Cs over busy nodes
  double single_placed = 0.0;
  double fed_placed = 0.0;    ///< local placements + granted delegations
  double fed_local_objective = 0.0;  ///< Σ shard β (local solves only)
  double fed_unplaced = 0.0;
  std::size_t delegations_granted = 0;
  std::size_t delegations_rejected = 0;
  /// Residual excess below the delegation floor (declared stranding #1).
  double stranded_below_floor = 0.0;
  /// Residual excess whose grant was refused because no single candidate
  /// in the chosen neighbor could hold it (declared stranding #2).
  double stranded_by_granularity = 0.0;
  /// Local + delegated flows; the first `local_assignment_count` entries
  /// came from the per-shard solves (in-domain by construction), the rest
  /// from granted delegations (cross-domain by construction).
  std::vector<core::Assignment> fed_assignments;
  std::size_t local_assignment_count = 0;
  /// True when every single-manager assignment stayed in its busy node's
  /// domain — the precondition of the O8-identical check.
  bool single_stayed_in_domain = false;

  [[nodiscard]] double single_hfr_percent() const noexcept {
    return total_excess > 0.0
               ? (total_excess - single_placed) / total_excess * 100.0
               : 0.0;
  }
  [[nodiscard]] double federated_hfr_percent() const noexcept {
    return total_excess > 0.0 ? fed_unplaced / total_excess * 100.0 : 0.0;
  }
  [[nodiscard]] double hfr_gap_percent() const noexcept {
    return federated_hfr_percent() - single_hfr_percent();
  }
};

/// Run both sides and the delegation model. Deterministic.
[[nodiscard]] FederatedComparison compare_federated_placement(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const core::PlacementOptions& placement,
    const FederationCheckOptions& options = {});

/// The O8 verdict (empty = all checks hold): compare_federated_placement,
/// then check_federated_comparison.
[[nodiscard]] std::vector<Violation> check_federated_placement(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const core::PlacementOptions& placement,
    const FederationCheckOptions& options = {});

/// The O8 verdict on a comparison already computed over `nmdb`.
[[nodiscard]] std::vector<Violation> check_federated_comparison(
    const core::Nmdb& nmdb, const federation::DomainPartition& partition,
    const FederatedComparison& cmp, const FederationCheckOptions& options = {});

}  // namespace dust::check
