#pragma once

// Reference implementations for the statistical equivalence tests: the
// cumulative-scan relay draw that predates SelectionCore's alias tables,
// and the client-by-client long-term exposure loop built on it. The
// library uses neither; tests hold the alias-based engine to the
// distributions these draw from.

#include <algorithm>
#include <cstddef>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/longterm.hpp"
#include "core/population_exposure.hpp"
#include "netbase/rng.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::scan_reference {

/// Bandwidth-weighted draw by cumulative scan: zeroes the weight of every
/// excluded or /16-clashing candidate and hands the weight vector to
/// Rng::WeightedIndex. O(candidates) per draw; nullopt when no candidate
/// keeps a positive weight.
inline std::optional<std::size_t> ScanPick(const tor::SelectionCore& core,
                                           std::span<const std::size_t> candidates,
                                           netbase::Rng& rng,
                                           std::span<const std::size_t> exclude) {
  const auto& relays = core.consensus().relays();
  std::vector<double> weights;
  weights.reserve(candidates.size());
  double total = 0;
  for (const std::size_t index : candidates) {
    double weight = relays[index].bandwidth_kbs;
    const bool excluded =
        std::find(exclude.begin(), exclude.end(), index) != exclude.end() ||
        (core.config().enforce_distinct_slash16 &&
         std::any_of(exclude.begin(), exclude.end(),
                     [&](std::size_t e) { return core.SharesSlash16(index, e); }));
    if (excluded) weight = 0;
    weights.push_back(weight);
    total += weight;
  }
  if (total <= 0) return std::nullopt;
  return candidates[rng.WeightedIndex(weights)];
}

/// A guard set of config().guard_set_size distinct guards, one scan each.
inline std::vector<std::size_t> ScanGuardSet(const tor::SelectionCore& core,
                                             netbase::Rng& rng) {
  std::vector<std::size_t> chosen;
  while (chosen.size() < core.config().guard_set_size) {
    const auto pick = ScanPick(core, core.guards(), rng, chosen);
    if (!pick) throw std::runtime_error("ScanGuardSet: guard candidates exhausted");
    chosen.push_back(*pick);
  }
  return chosen;
}

/// A circuit: guard uniform within `guards`, exit then middle by scan.
inline tor::Circuit ScanCircuit(const tor::SelectionCore& core,
                                std::span<const std::size_t> guards,
                                netbase::Rng& rng) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t guard = guards[rng.UniformInt(0, guards.size() - 1)];
    const std::size_t exclude_guard[] = {guard};
    const auto exit = ScanPick(core, core.exits(), rng, exclude_guard);
    if (!exit) continue;
    const std::size_t exclude_both[] = {guard, *exit};
    const auto middle = ScanPick(core, core.running(), rng, exclude_both);
    if (!middle) continue;
    return tor::Circuit{guard, *middle, *exit};
  }
  throw std::runtime_error("ScanCircuit: no valid circuit after bounded retries");
}

/// The scalar long-term simulation: the adversary marked from Rng(seed),
/// then one serially forked substream per client, each client walked
/// instance by instance (guard_set_size 0 = a fresh single guard per
/// circuit) until its first compromised circuit. Returns the cumulative
/// compromised fraction per instance.
inline std::vector<double> ScanLongTermCurve(const tor::Consensus& consensus,
                                             const core::LongTermParams& params) {
  netbase::Rng rng(params.seed);
  const core::MaliciousMarkResult marked =
      core::MarkMaliciousByBandwidth(consensus, params.malicious_bandwidth_fraction, rng);
  tor::PathSelectionConfig config;
  config.guard_set_size = std::max<std::size_t>(1, params.guard_set_size);
  const tor::SelectionCore core(consensus, config);
  const bool persistent_guards = params.guard_set_size > 0;

  std::vector<std::size_t> newly_compromised(params.instances, 0);
  for (std::size_t c = 0; c < params.clients; ++c) {
    netbase::Rng client_rng = rng.Fork();
    std::vector<std::size_t> guards = ScanGuardSet(core, client_rng);
    std::int64_t guards_since = 0;
    for (std::size_t instance = 0; instance < params.instances; ++instance) {
      const std::int64_t now =
          static_cast<std::int64_t>(instance) * params.instance_interval_s;
      if (!persistent_guards || now - guards_since >= params.guard_lifetime_s) {
        guards = ScanGuardSet(core, client_rng);
        guards_since = now;
      }
      const tor::Circuit circuit = ScanCircuit(core, guards, client_rng);
      if (marked.malicious[circuit.guard] && marked.malicious[circuit.exit]) {
        ++newly_compromised[instance];
        break;
      }
    }
  }
  std::vector<double> curve;
  curve.reserve(params.instances);
  std::size_t compromised = 0;
  for (const std::size_t count : newly_compromised) {
    compromised += count;
    curve.push_back(static_cast<double>(compromised) /
                    static_cast<double>(params.clients));
  }
  return curve;
}

}  // namespace quicksand::scan_reference
