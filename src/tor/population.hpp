#pragma once

// Population-scale client engine: the one selection engine under Tor
// path selection.
//
//  * AliasTable — Walker/Vose alias sampling over a weight class, built
//    once per consensus, O(1) per draw.
//  * SelectionCore — the flag-partitioned candidate classes of one
//    consensus (guards / exits / running) with their bandwidth weights,
//    /16 keys, and lazily built alias tables. Every relay choice is an
//    AliasPick (O(1) alias draw with bounded rejection against
//    exclusion/distinctness rules), and the two compound draws live here
//    once: DrawGuardSet and DrawCircuit.
//  * ClientPopulation — SoA client state (guard slots, rotation
//    deadlines, client-AS ids, per-client RNG substreams in parallel
//    arrays) with batched guard-rotation and circuit-building sweeps.
//
// PathSelector (tor/path_selection.hpp) wraps a SelectionCore and calls
// the same two draws, so one client driven through PathSelector and a
// one-client ClientPopulation on the same substream draw identical guard
// sets and circuits (tests/tor/population_test.cpp).
//
// Determinism contract (src/exec/parallel.hpp): client substreams are
// forked serially in global client order — ClientPopulation::ForShard
// re-derives any shard's window of that one fork sequence — so sweep
// output is byte-identical for every shard split and thread count.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "netbase/rng.hpp"
#include "netbase/sim_time.hpp"
#include "tor/circuit.hpp"
#include "tor/consensus.hpp"

namespace quicksand::tor {

/// Pluggable circuit-building policy hook (used by the Section 5
/// countermeasures). Default-allows everything.
class CircuitConstraint {
 public:
  virtual ~CircuitConstraint() = default;
  /// May this relay serve as the guard of a new circuit?
  [[nodiscard]] virtual bool AllowGuard(std::size_t relay_index) const {
    (void)relay_index;
    return true;
  }
  /// May this exit be combined with this guard?
  [[nodiscard]] virtual bool AllowExitWithGuard(std::size_t exit_index,
                                                std::size_t guard_index) const {
    (void)exit_index;
    (void)guard_index;
    return true;
  }
};

struct PathSelectionConfig {
  /// Enforce Tor's rule that no two circuit relays share an IPv4 /16.
  bool enforce_distinct_slash16 = true;
  /// Number of guards in a client's guard set (Tor used 3 in 2014).
  std::size_t guard_set_size = 3;
};

/// Walker/Vose alias table over one candidate class: O(1) draws from the
/// distribution proportional to the build weights. Immutable once built.
class AliasTable {
 public:
  AliasTable() = default;

  /// Builds the table for `candidates[i]` drawn with weight `weights[i]`.
  /// Weights must be finite and non-negative with a positive finite total
  /// (unless the class is empty). Throws std::invalid_argument on size
  /// mismatch or bad weights.
  [[nodiscard]] static AliasTable Build(std::vector<std::size_t> candidates,
                                        std::span<const double> weights);

  [[nodiscard]] bool empty() const noexcept { return candidates_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return candidates_.size(); }
  [[nodiscard]] std::span<const std::size_t> candidates() const noexcept {
    return candidates_;
  }

  /// Draws a slot in [0, size) — one UniformDouble split into column and
  /// coin flip. Throws std::logic_error on an empty table.
  [[nodiscard]] std::size_t SampleSlot(netbase::Rng& rng) const;

  /// Draws a candidate value (relay index).
  [[nodiscard]] std::size_t Sample(netbase::Rng& rng) const {
    return candidates_[SampleSlot(rng)];
  }

  /// Normalized probability mass of slot i (sums to 1 over the table).
  [[nodiscard]] double Probability(std::size_t slot) const {
    return mass_[slot];
  }

 private:
  std::vector<std::size_t> candidates_;  ///< slot -> relay index
  std::vector<double> accept_;           ///< slot -> acceptance threshold
  std::vector<std::uint32_t> alias_;     ///< slot -> alias slot
  std::vector<double> mass_;             ///< slot -> normalized weight
};

/// The flag-partitioned selection state of one consensus: candidate index
/// lists, bandwidth weights, /16 keys, and alias tables. Shared by
/// PathSelector and ClientPopulation; the consensus must outlive the core.
/// Thread-safe for concurrent draws.
class SelectionCore {
 public:
  explicit SelectionCore(const Consensus& consensus, PathSelectionConfig config);

  [[nodiscard]] const Consensus& consensus() const noexcept { return *consensus_; }
  [[nodiscard]] const PathSelectionConfig& config() const noexcept { return config_; }

  /// Running relays carrying the position's flag, ascending by index.
  [[nodiscard]] std::span<const std::size_t> guards() const noexcept { return guards_; }
  [[nodiscard]] std::span<const std::size_t> exits() const noexcept { return exits_; }
  [[nodiscard]] std::span<const std::size_t> running() const noexcept {
    return running_;
  }
  [[nodiscard]] double guard_bandwidth_total() const noexcept {
    return guard_bandwidth_total_;
  }
  [[nodiscard]] double exit_bandwidth_total() const noexcept {
    return exit_bandwidth_total_;
  }

  [[nodiscard]] bool SharesSlash16(std::size_t a, std::size_t b) const noexcept {
    return slash16_[a] == slash16_[b];
  }

  /// O(1) alias draw with bounded rejection against `exclude` (identity
  /// and, when configured, shared /16) and `accept`. Rejection against a
  /// subset renormalizes exactly, so the draw follows the table's weights
  /// restricted to the qualifying candidates; a pathological
  /// acceptance set falls back to one exact residual scan. Returns
  /// nullopt when nothing qualifies.
  template <typename Accept>
  [[nodiscard]] std::optional<std::size_t> AliasPick(
      const AliasTable& table, netbase::Rng& rng,
      std::span<const std::size_t> exclude, Accept&& accept) const {
    if (table.empty()) return std::nullopt;
    constexpr int kRejectionBound = 64;
    for (int attempt = 0; attempt < kRejectionBound; ++attempt) {
      const std::size_t index = table.Sample(rng);
      if (Excluded(index, exclude) || !accept(index)) continue;
      return index;
    }
    return ResidualScan(table, rng, exclude, accept);
  }

  [[nodiscard]] std::optional<std::size_t> AliasPick(
      const AliasTable& table, netbase::Rng& rng,
      std::span<const std::size_t> exclude) const {
    return AliasPick(table, rng, exclude, [](std::size_t) { return true; });
  }

  /// Draws `config().guard_set_size` distinct guards (no two sharing a
  /// /16 when configured) among those `constraint` allows (null = all),
  /// bandwidth-weighted through guard_table(). Non-empty
  /// `weight_multipliers` (aligned with the consensus relay list) weight
  /// guard r by bandwidth x multiplier[r] instead, via a per-call table.
  /// Throws std::invalid_argument on a misaligned, negative or non-finite
  /// multiplier and std::runtime_error when the guard candidates run out.
  [[nodiscard]] std::vector<std::size_t> DrawGuardSet(
      netbase::Rng& rng, std::span<const double> weight_multipliers,
      const CircuitConstraint* constraint) const;

  /// Bounded attempts at one circuit: guard uniform within `guard_set`,
  /// exit and middle alias-drawn under the identity and /16 rules. The
  /// constraint is consulted after each draw (AllowGuard on the guard,
  /// AllowExitWithGuard on the drawn exit); a rejection restarts the
  /// attempt with a fresh guard. `attempts` receives the attempts made.
  /// Returns nullopt when every attempt was rejected. Instantiated for
  /// std::size_t and std::uint32_t guard slots.
  template <typename Slot>
  [[nodiscard]] std::optional<Circuit> DrawCircuit(std::span<const Slot> guard_set,
                                                   netbase::Rng& rng,
                                                   const CircuitConstraint* constraint,
                                                   int& attempts) const;

  /// Alias tables per position class, built on first use (one shared
  /// build for all three). Safe to call concurrently.
  [[nodiscard]] const AliasTable& guard_table() const;
  [[nodiscard]] const AliasTable& exit_table() const;
  [[nodiscard]] const AliasTable& middle_table() const;

 private:
  [[nodiscard]] bool Excluded(std::size_t index,
                              std::span<const std::size_t> exclude) const noexcept;

  /// The exact fallback after kRejectionBound rejections: one weighted
  /// draw over the qualifying slots' table mass. Out of line (and type-
  /// erased) so AliasPick's rejection loop stays small enough to inline at
  /// every draw site; the population sweep runs measurably slower when it
  /// does not.
  [[nodiscard]] std::optional<std::size_t> ResidualScan(
      const AliasTable& table, netbase::Rng& rng, std::span<const std::size_t> exclude,
      const std::function<bool(std::size_t)>& accept) const;

  void EnsureAliasTables() const;

  const Consensus* consensus_;
  PathSelectionConfig config_;
  std::vector<std::size_t> guards_;
  std::vector<std::size_t> exits_;
  std::vector<std::size_t> running_;
  std::vector<std::uint32_t> slash16_;  ///< per relay: address >> 16
  std::vector<double> bandwidth_;       ///< per relay: bandwidth as double
  double guard_bandwidth_total_ = 0;
  double exit_bandwidth_total_ = 0;
  mutable std::once_flag alias_once_;
  mutable AliasTable guard_table_;
  mutable AliasTable exit_table_;
  mutable AliasTable middle_table_;
};

class PathSelector;

struct PopulationConfig {
  /// Guard rotation period; Tor 2014 default ~30 days.
  std::int64_t guard_lifetime_s = 30 * netbase::duration::kDay;
};

/// SoA state of a shard of simulated clients over one consensus: guard
/// slots, rotation deadlines, client-AS ids, and per-client RNG
/// substreams in parallel arrays. Guard sets are drawn at construction
/// (rotation clock starts at SimTime 0); sweeps then
/// advance every client in a batch. The selector must outlive the
/// population.
class ClientPopulation {
 public:
  /// Builds a shard from explicit per-client substreams (parallel to
  /// `client_as_ids`; ids are caller-defined, e.g. indices into an AS
  /// span). `constraint` may be null and must outlive the population.
  ClientPopulation(const PathSelector& selector, PopulationConfig config,
                   std::vector<std::uint32_t> client_as_ids,
                   std::vector<netbase::Rng> rngs,
                   const CircuitConstraint* constraint = nullptr);

  /// Builds the shard covering global clients [first_client,
  /// first_client + as_ids.size()): client g's substream is the g-th
  /// serial fork of Rng(seed), re-derived here so every shard split
  /// yields identical per-client streams.
  [[nodiscard]] static ClientPopulation ForShard(
      const PathSelector& selector, PopulationConfig config,
      std::span<const std::uint32_t> client_as_ids, std::uint64_t seed,
      std::size_t first_client, const CircuitConstraint* constraint = nullptr);

  [[nodiscard]] std::size_t size() const noexcept { return rngs_.size(); }
  [[nodiscard]] std::size_t guard_set_size() const noexcept {
    return guard_set_size_;
  }
  [[nodiscard]] std::span<const std::uint32_t> client_as_ids() const noexcept {
    return client_as_ids_;
  }
  [[nodiscard]] std::uint64_t rotations() const noexcept { return rotations_; }
  [[nodiscard]] std::uint64_t circuits_built() const noexcept { return circuits_; }

  /// Client c's current guard set (copied out of the flat slot array).
  [[nodiscard]] std::vector<std::size_t> GuardSetOf(std::size_t client) const;

  /// Batched rotation sweep: re-draws the guard set of every client whose
  /// set has lived >= guard_lifetime_s at `now` (single rotation per
  /// sweep). Returns the number of
  /// clients rotated.
  std::size_t RotateExpired(netbase::SimTime now);

  /// Builds one circuit per client into `out` (size() entries) with
  /// SelectionCore::DrawCircuit over the client's guard set. Throws
  /// std::runtime_error if a client finds no valid circuit after bounded
  /// attempts.
  void BuildCircuits(std::span<Circuit> out);

 private:
  void PickGuardSetInto(std::size_t client);

  const SelectionCore* core_;
  PopulationConfig config_;
  const CircuitConstraint* constraint_;
  std::size_t guard_set_size_;
  std::vector<std::uint32_t> guard_slots_;     ///< size() * guard_set_size_
  std::vector<std::int64_t> guards_chosen_at_;
  std::vector<std::uint32_t> client_as_ids_;
  std::vector<netbase::Rng> rngs_;
  std::uint64_t rotations_ = 0;
  std::uint64_t circuits_ = 0;
};

}  // namespace quicksand::tor
