#pragma once

// Bandwidth-weighted Tor path selection.
//
// Implements the selection behaviour the paper's analysis depends on:
// relays are chosen with probability proportional to their bandwidth
// weight ("to load balance the network, clients select relays with a
// probability that is proportional to their network capacity"), guards
// come from a small persistent guard set, and circuits obey Tor's
// distinctness and /16 constraints. Countermeasure policies (Section 5)
// plug in through CircuitConstraint and per-guard weight multipliers.
//
// PathSelector is the one-client face of tor::SelectionCore
// (tor/population.hpp): the candidate partitions, /16 keys, alias tables
// and both compound draws (guard set, circuit) live in the shared core,
// which ClientPopulation's population-scale sweeps call too. What stays
// here is the per-circuit ValidateCircuit check and the tor.path.*
// counters.

#include <cstddef>
#include <span>
#include <vector>

#include "netbase/rng.hpp"
#include "tor/circuit.hpp"
#include "tor/consensus.hpp"
#include "tor/population.hpp"

namespace quicksand::tor {

/// Bandwidth-weighted relay and circuit selection over one consensus.
/// The consensus must outlive the selector.
class PathSelector {
 public:
  explicit PathSelector(const Consensus& consensus, PathSelectionConfig config = {});

  [[nodiscard]] const Consensus& consensus() const noexcept {
    return core_.consensus();
  }
  [[nodiscard]] const PathSelectionConfig& config() const noexcept {
    return core_.config();
  }

  /// The shared vectorized core (ClientPopulation builds on it).
  [[nodiscard]] const SelectionCore& core() const noexcept { return core_; }

  /// Indices of relays eligible for each position.
  [[nodiscard]] std::span<const std::size_t> GuardCandidates() const noexcept {
    return core_.guards();
  }
  [[nodiscard]] std::span<const std::size_t> ExitCandidates() const noexcept {
    return core_.exits();
  }

  /// Draws a guard set: `guard_set_size` distinct guards, bandwidth-
  /// weighted, optionally modulated by per-relay multipliers (aligned with
  /// the consensus relay list; pass {} for none) and filtered through
  /// `constraint` (SelectionCore::DrawGuardSet). Throws
  /// std::invalid_argument on a misaligned, negative or non-finite
  /// multiplier and std::runtime_error if too few guards qualify.
  [[nodiscard]] std::vector<std::size_t> PickGuardSet(
      netbase::Rng& rng, std::span<const double> weight_multipliers = {},
      const CircuitConstraint* constraint = nullptr) const;

  /// Builds a circuit: guard uniformly from `guard_set`, exit and middle
  /// bandwidth-weighted, obeying distinctness, the /16 rule, and
  /// `constraint` (SelectionCore::DrawCircuit). Throws std::runtime_error
  /// if no valid circuit exists after bounded retries.
  [[nodiscard]] Circuit BuildCircuit(std::span<const std::size_t> guard_set,
                                     netbase::Rng& rng,
                                     const CircuitConstraint* constraint = nullptr) const;

  /// Probability that a bandwidth-weighted guard draw lands on `relay`
  /// (0 for non-guards) — used by the analytical anonymity model.
  [[nodiscard]] double GuardSelectionProbability(std::size_t relay_index) const;

  /// Probability that a bandwidth-weighted exit draw lands on `relay`.
  [[nodiscard]] double ExitSelectionProbability(std::size_t relay_index) const;

 private:
  SelectionCore core_;
};

}  // namespace quicksand::tor
