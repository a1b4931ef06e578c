#pragma once

// Section 5 countermeasures, expressed as path-selection policies.
//
//  * AsAwareConstraint — "Tor clients should select relays such that the
//    same AS does not appear in both the first and the last segments,
//    after taking path dynamics into account." The constraint is built
//    from per-relay AS sets for the client<->guard segment and the
//    exit<->destination segment; feeding it *snapshot* sets gives the
//    prior-work static defence (Feamster–Dingledine / Edman–Syverson),
//    feeding it *over-the-month* sets (from relay-published AS lists or
//    the churn monitor) gives the paper's dynamics-aware defence.
//
//  * ShortAsPathGuardWeights — "Tor clients can mitigate such routing
//    manipulations by preferring guard relays with shorter AS-PATHs":
//    per-relay weight multipliers proportional to len^-gamma, to be passed
//    to PathSelector::PickGuardSet.

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "bgp/path.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::tor {

/// AS sets per relay index for one segment of the anonymity path.
/// Sets must cover *both directions* of the segment to defeat asymmetric
/// traffic analysis (Section 3.3).
using SegmentAsSets = std::unordered_map<std::size_t, std::vector<bgp::AsNumber>>;

/// Forbids circuits where any AS can observe both the entry and the exit
/// segment. Relays missing from a map are treated per `strict`: rejected
/// (fail closed) or accepted (fail open).
class AsAwareConstraint final : public CircuitConstraint {
 public:
  AsAwareConstraint(SegmentAsSets guard_side, SegmentAsSets exit_side,
                    bool strict = true);

  /// Guards with unknown AS exposure are rejected in strict mode.
  [[nodiscard]] bool AllowGuard(std::size_t relay_index) const override;

  /// True iff the guard-side and exit-side AS sets are disjoint.
  [[nodiscard]] bool AllowExitWithGuard(std::size_t exit_index,
                                        std::size_t guard_index) const override;

 private:
  SegmentAsSets guard_side_;  // values sorted for fast intersection
  SegmentAsSets exit_side_;
  bool strict_;
};

/// Weight multipliers (aligned with the consensus relay list) implementing
/// the shorter-AS-PATH guard preference: multiplier = len^-gamma, with
/// unknown-length guards given the worst observed length. gamma = 0
/// disables the preference (all multipliers 1).
/// Throws std::invalid_argument if gamma is negative or not finite.
[[nodiscard]] std::vector<double> ShortAsPathGuardWeights(
    const Consensus& consensus,
    const std::unordered_map<std::size_t, int>& guard_as_path_length, double gamma);

}  // namespace quicksand::tor
