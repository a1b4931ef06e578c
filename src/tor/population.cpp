#include "tor/population.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::tor {

namespace {

// Population telemetry lives in the reserved pop.* namespace
// (scripts/check_bench_json.py) and registers lazily on first population
// work, so runs that never touch this layer emit byte-identical JSON.
struct PopMetrics {
  obs::Counter& clients_simulated =
      obs::MetricsRegistry::Global().GetCounter("pop.clients_simulated");
  obs::Counter& rotations = obs::MetricsRegistry::Global().GetCounter("pop.rotations");
  obs::Counter& circuits_built =
      obs::MetricsRegistry::Global().GetCounter("pop.circuits_built");
  obs::Gauge& peak_shard_clients =
      obs::MetricsRegistry::Global().GetGauge("pop.peak_shard_clients");

  static PopMetrics& Get() {
    static PopMetrics metrics;
    return metrics;
  }
};

obs::Counter& AliasBuildCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("pop.alias_tables_built");
  return counter;
}

}  // namespace

AliasTable AliasTable::Build(std::vector<std::size_t> candidates,
                             std::span<const double> weights) {
  if (candidates.size() != weights.size()) {
    throw std::invalid_argument("AliasTable: candidates/weights size mismatch");
  }
  AliasTable table;
  table.candidates_ = std::move(candidates);
  const std::size_t n = table.candidates_.size();
  if (n == 0) return table;

  double total = 0;
  for (const double w : weights) {
    if (!std::isfinite(w)) throw std::invalid_argument("AliasTable: non-finite weight");
    if (w < 0) throw std::invalid_argument("AliasTable: negative weight");
    total += w;
  }
  if (!(total > 0) || !std::isfinite(total)) {
    throw std::invalid_argument("AliasTable: total weight not positive and finite");
  }

  table.mass_.resize(n);
  table.accept_.resize(n);
  table.alias_.resize(n);

  // Vose's method, deterministic: scaled weights partitioned into under-
  // and over-full columns (ascending slot order), pairing always pops the
  // backs. Every column ends with an acceptance threshold and an alias.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    table.mass_[i] = weights[i] / total;
    scaled[i] = table.mass_[i] * static_cast<double>(n);
  }
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    const std::uint32_t l = large.back();
    small.pop_back();
    table.accept_[s] = scaled[s];
    table.alias_[s] = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Leftovers are exactly-full columns up to FP rounding.
  for (const std::uint32_t i : large) {
    table.accept_[i] = 1.0;
    table.alias_[i] = i;
  }
  for (const std::uint32_t i : small) {
    table.accept_[i] = 1.0;
    table.alias_[i] = i;
  }
  AliasBuildCounter().Increment();
  return table;
}

std::size_t AliasTable::SampleSlot(netbase::Rng& rng) const {
  if (candidates_.empty()) throw std::logic_error("AliasTable: sample from empty table");
  const std::size_t n = candidates_.size();
  // One draw: the integer part picks the column, the fractional part is
  // the acceptance coin.
  const double x = rng.UniformDouble() * static_cast<double>(n);
  std::size_t slot = static_cast<std::size_t>(x);
  if (slot >= n) slot = n - 1;  // guard the u == 1.0-ulp edge
  const double frac = x - static_cast<double>(slot);
  return frac < accept_[slot] ? slot : alias_[slot];
}

SelectionCore::SelectionCore(const Consensus& consensus, PathSelectionConfig config)
    : consensus_(&consensus), config_(config) {
  const auto& relays = consensus.relays();
  slash16_.reserve(relays.size());
  bandwidth_.reserve(relays.size());
  for (std::size_t i = 0; i < relays.size(); ++i) {
    slash16_.push_back(relays[i].address.value() >> 16);
    bandwidth_.push_back(relays[i].bandwidth_kbs);
    if (!relays[i].IsRunning()) continue;
    running_.push_back(i);
    if (relays[i].IsGuard()) {
      guards_.push_back(i);
      guard_bandwidth_total_ += relays[i].bandwidth_kbs;
    }
    if (relays[i].IsExit()) {
      exits_.push_back(i);
      exit_bandwidth_total_ += relays[i].bandwidth_kbs;
    }
  }
}

bool SelectionCore::Excluded(std::size_t index,
                             std::span<const std::size_t> exclude) const noexcept {
  for (const std::size_t e : exclude) {
    if (index == e) return true;
    if (config_.enforce_distinct_slash16 && SharesSlash16(index, e)) return true;
  }
  return false;
}

std::vector<std::size_t> SelectionCore::DrawGuardSet(
    netbase::Rng& rng, std::span<const double> weight_multipliers,
    const CircuitConstraint* constraint) const {
  const AliasTable* table = &guard_table();
  AliasTable weighted;
  if (!weight_multipliers.empty()) {
    if (weight_multipliers.size() != bandwidth_.size()) {
      throw std::invalid_argument(
          "DrawGuardSet: weight_multipliers must align with the relay list");
    }
    for (const double m : weight_multipliers) {
      if (!std::isfinite(m) || m < 0) {
        throw std::invalid_argument(
            "DrawGuardSet: weight multipliers must be finite and non-negative");
      }
    }
    std::vector<double> weights;
    weights.reserve(guards_.size());
    double total = 0;
    for (const std::size_t index : guards_) {
      weights.push_back(bandwidth_[index] * weight_multipliers[index]);
      total += weights.back();
    }
    if (total > 0) weighted = AliasTable::Build(guards_, weights);
    table = &weighted;
  }
  const auto accept = [&](std::size_t index) {
    return constraint == nullptr || constraint->AllowGuard(index);
  };
  std::vector<std::size_t> chosen;
  chosen.reserve(config_.guard_set_size);
  while (chosen.size() < config_.guard_set_size) {
    const auto pick = AliasPick(*table, rng, chosen, accept);
    if (!pick) {
      throw std::runtime_error(
          "DrawGuardSet: guard candidates exhausted (weights/16s/constraint)");
    }
    chosen.push_back(*pick);
  }
  return chosen;
}

template <typename Slot>
std::optional<Circuit> SelectionCore::DrawCircuit(std::span<const Slot> guard_set,
                                                  netbase::Rng& rng,
                                                  const CircuitConstraint* constraint,
                                                  int& attempts) const {
  constexpr int kMaxAttempts = 64;
  for (attempts = 0; attempts < kMaxAttempts;) {
    ++attempts;
    // Guard: uniform among the client's guards (Tor rotates across the
    // small set for availability).
    const std::size_t guard = guard_set[rng.UniformInt(0, guard_set.size() - 1)];
    if (constraint != nullptr && !constraint->AllowGuard(guard)) continue;

    // Exit: alias-drawn among exits, excluding the guard. The constraint
    // judges the drawn pair, it does not condition the draw.
    const std::size_t exclude_guard[] = {guard};
    const auto exit = AliasPick(exit_table(), rng, exclude_guard);
    if (!exit) continue;
    if (constraint != nullptr && !constraint->AllowExitWithGuard(*exit, guard)) continue;

    // Middle: alias-drawn among all running relays.
    const std::size_t exclude_both[] = {guard, *exit};
    const auto middle = AliasPick(middle_table(), rng, exclude_both);
    if (!middle) continue;
    return Circuit{guard, *middle, *exit};
  }
  return std::nullopt;
}

template std::optional<Circuit> SelectionCore::DrawCircuit(
    std::span<const std::size_t>, netbase::Rng&, const CircuitConstraint*, int&) const;
template std::optional<Circuit> SelectionCore::DrawCircuit(
    std::span<const std::uint32_t>, netbase::Rng&, const CircuitConstraint*, int&) const;

std::optional<std::size_t> SelectionCore::ResidualScan(
    const AliasTable& table, netbase::Rng& rng, std::span<const std::size_t> exclude,
    const std::function<bool(std::size_t)>& accept) const {
  std::vector<double> weights;
  weights.reserve(table.size());
  double total = 0;
  for (std::size_t slot = 0; slot < table.size(); ++slot) {
    const std::size_t index = table.candidates()[slot];
    double weight = table.Probability(slot);
    if (Excluded(index, exclude) || !accept(index)) weight = 0;
    weights.push_back(weight);
    total += weight;
  }
  if (total <= 0) return std::nullopt;
  return table.candidates()[rng.WeightedIndex(weights)];
}

void SelectionCore::EnsureAliasTables() const {
  std::call_once(alias_once_, [this] {
    const auto build = [this](std::span<const std::size_t> candidates) {
      std::vector<double> weights;
      weights.reserve(candidates.size());
      for (const std::size_t index : candidates) weights.push_back(bandwidth_[index]);
      return AliasTable::Build({candidates.begin(), candidates.end()}, weights);
    };
    if (!guards_.empty()) guard_table_ = build(guards_);
    if (!exits_.empty()) exit_table_ = build(exits_);
    if (!running_.empty()) middle_table_ = build(running_);
  });
}

const AliasTable& SelectionCore::guard_table() const {
  EnsureAliasTables();
  return guard_table_;
}

const AliasTable& SelectionCore::exit_table() const {
  EnsureAliasTables();
  return exit_table_;
}

const AliasTable& SelectionCore::middle_table() const {
  EnsureAliasTables();
  return middle_table_;
}

ClientPopulation::ClientPopulation(const PathSelector& selector,
                                   PopulationConfig config,
                                   std::vector<std::uint32_t> client_as_ids,
                                   std::vector<netbase::Rng> rngs,
                                   const CircuitConstraint* constraint)
    : core_(&selector.core()),
      config_(config),
      constraint_(constraint),
      guard_set_size_(core_->config().guard_set_size),
      client_as_ids_(std::move(client_as_ids)),
      rngs_(std::move(rngs)) {
  if (client_as_ids_.size() != rngs_.size()) {
    throw std::invalid_argument("ClientPopulation: as_ids/rngs size mismatch");
  }
  if (guard_set_size_ == 0) {
    throw std::invalid_argument("ClientPopulation: guard_set_size must be >= 1");
  }
  PopMetrics& metrics = PopMetrics::Get();
  metrics.clients_simulated.Increment(rngs_.size());
  // Shard-residency high-water mark (reserved namespace: scheduling may
  // interleave shards, so last-max-wins is fine).
  if (static_cast<std::int64_t>(rngs_.size()) > metrics.peak_shard_clients.value()) {
    metrics.peak_shard_clients.Set(static_cast<std::int64_t>(rngs_.size()));
  }
  guard_slots_.resize(rngs_.size() * guard_set_size_);
  guards_chosen_at_.assign(rngs_.size(), 0);
  for (std::size_t c = 0; c < rngs_.size(); ++c) PickGuardSetInto(c);
}

ClientPopulation ClientPopulation::ForShard(const PathSelector& selector,
                                            PopulationConfig config,
                                            std::span<const std::uint32_t> client_as_ids,
                                            std::uint64_t seed,
                                            std::size_t first_client,
                                            const CircuitConstraint* constraint) {
  // Re-derive the global serial fork sequence and keep this shard's
  // window: skipping a fork consumes exactly one root draw, same as
  // taking it, so client g's substream is identical under any split.
  netbase::Rng root(seed);
  for (std::size_t g = 0; g < first_client; ++g) (void)root();
  std::vector<netbase::Rng> rngs;
  rngs.reserve(client_as_ids.size());
  for (std::size_t i = 0; i < client_as_ids.size(); ++i) rngs.push_back(root.Fork());
  return ClientPopulation(selector, config,
                          {client_as_ids.begin(), client_as_ids.end()},
                          std::move(rngs), constraint);
}

std::vector<std::size_t> ClientPopulation::GuardSetOf(std::size_t client) const {
  std::vector<std::size_t> out;
  out.reserve(guard_set_size_);
  for (std::size_t k = 0; k < guard_set_size_; ++k) {
    out.push_back(guard_slots_[client * guard_set_size_ + k]);
  }
  return out;
}

void ClientPopulation::PickGuardSetInto(std::size_t client) {
  const std::vector<std::size_t> chosen =
      core_->DrawGuardSet(rngs_[client], {}, constraint_);
  std::copy(chosen.begin(), chosen.end(),
            guard_slots_.begin() + static_cast<std::ptrdiff_t>(client * guard_set_size_));
}

std::size_t ClientPopulation::RotateExpired(netbase::SimTime now) {
  std::size_t rotated = 0;
  for (std::size_t c = 0; c < rngs_.size(); ++c) {
    if (now.seconds - guards_chosen_at_[c] < config_.guard_lifetime_s) continue;
    PickGuardSetInto(c);
    guards_chosen_at_[c] = now.seconds;
    ++rotated;
  }
  if (rotated > 0) {
    rotations_ += rotated;
    PopMetrics::Get().rotations.Increment(rotated);
  }
  return rotated;
}

void ClientPopulation::BuildCircuits(std::span<Circuit> out) {
  if (out.size() != rngs_.size()) {
    throw std::invalid_argument("BuildCircuits: out span must have size() entries");
  }
  // Invariants (distinctness, flags, /16) hold by construction: no
  // per-circuit ValidateCircuit on the population path.
  for (std::size_t c = 0; c < rngs_.size(); ++c) {
    const std::span<const std::uint32_t> guards(
        guard_slots_.data() + c * guard_set_size_, guard_set_size_);
    int attempts = 0;
    const auto circuit = core_->DrawCircuit(guards, rngs_[c], constraint_, attempts);
    if (!circuit) {
      throw std::runtime_error("BuildCircuits: no valid circuit after bounded retries");
    }
    out[c] = *circuit;
  }
  circuits_ += out.size();
  PopMetrics::Get().circuits_built.Increment(out.size());
}

}  // namespace quicksand::tor
