#include "tor/path_selection.hpp"

#include <stdexcept>

#include "obs/metrics.hpp"

namespace quicksand::tor {

namespace {

struct PathMetrics {
  obs::Counter& guard_sets_picked =
      obs::MetricsRegistry::Global().GetCounter("tor.path.guard_sets_picked");
  obs::Counter& circuits_built =
      obs::MetricsRegistry::Global().GetCounter("tor.path.circuits_built");
  obs::Counter& circuit_attempts =
      obs::MetricsRegistry::Global().GetCounter("tor.path.circuit_attempts");
  obs::Counter& build_failures =
      obs::MetricsRegistry::Global().GetCounter("tor.path.build_failures");

  static PathMetrics& Get() {
    static PathMetrics metrics;
    return metrics;
  }
};

}  // namespace

PathSelector::PathSelector(const Consensus& consensus, PathSelectionConfig config)
    : core_(consensus, config) {}

std::vector<std::size_t> PathSelector::PickGuardSet(
    netbase::Rng& rng, std::span<const double> weight_multipliers,
    const CircuitConstraint* constraint) const {
  std::vector<std::size_t> chosen = core_.DrawGuardSet(rng, weight_multipliers, constraint);
  PathMetrics::Get().guard_sets_picked.Increment();
  return chosen;
}

Circuit PathSelector::BuildCircuit(std::span<const std::size_t> guard_set,
                                   netbase::Rng& rng,
                                   const CircuitConstraint* constraint) const {
  if (guard_set.empty()) throw std::invalid_argument("BuildCircuit: empty guard set");
  PathMetrics& metrics = PathMetrics::Get();
  int attempts = 0;
  const auto circuit = core_.DrawCircuit(guard_set, rng, constraint, attempts);
  metrics.circuit_attempts.Increment(static_cast<std::uint64_t>(attempts));
  if (!circuit) {
    metrics.build_failures.Increment();
    throw std::runtime_error("BuildCircuit: no valid circuit after bounded retries");
  }
  ValidateCircuit(*circuit, consensus());
  metrics.circuits_built.Increment();
  return *circuit;
}

double PathSelector::GuardSelectionProbability(std::size_t relay_index) const {
  const auto& relays = consensus().relays();
  if (relay_index >= relays.size() || !relays[relay_index].IsGuard() ||
      !relays[relay_index].IsRunning() || core_.guard_bandwidth_total() <= 0) {
    return 0;
  }
  return relays[relay_index].bandwidth_kbs / core_.guard_bandwidth_total();
}

double PathSelector::ExitSelectionProbability(std::size_t relay_index) const {
  const auto& relays = consensus().relays();
  if (relay_index >= relays.size() || !relays[relay_index].IsExit() ||
      !relays[relay_index].IsRunning() || core_.exit_bandwidth_total() <= 0) {
    return 0;
  }
  return relays[relay_index].bandwidth_kbs / core_.exit_bandwidth_total();
}

}  // namespace quicksand::tor
