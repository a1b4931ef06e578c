#pragma once

// The benchmark's workloads. Each one builds its inputs from a seed in
// Setup, runs its timed region in Iterate (once per measured iteration),
// and checks the last iteration's outputs in Check after timing stops.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace perfbench {

/// Parallel layers run at this fixed thread count on every workload. One
/// thread leaves the other vCPUs of a small shared machine to everything
/// else on it, so the run does not wait on a descheduled worker
/// (RATIONALE.md, "One thread").
inline constexpr std::size_t kThreads = 1;

/// What one timed iteration reports.
struct Iteration {
  double wall_s = 0;
  /// Work items completed (feed updates, exposure queries, client-days)
  /// and the wall time they are rated over (the daemon's replay loop;
  /// the whole iteration elsewhere).
  double items = 0;
  double items_wall_s = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Per-layer values the workload measures itself (counts, sizes,
  /// ratios with their bases); span times and counter deltas are added
  /// by the harness.
  std::map<std::string, double> layer;
  std::map<std::string, Ratio> ratios;
  /// Latency in ms of every daemon request, by request kind.
  std::map<std::string, std::vector<double>> request_ms;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the world and the workload's inputs from `seed`.
  virtual void Setup(std::uint64_t seed) = 0;
  /// Runs the timed region once; `tracer` is null on untraced iterations.
  virtual Iteration Iterate(Tracer* tracer) = 0;
  /// Output checks on the last iteration; returns one line per failure.
  [[nodiscard]] virtual std::vector<std::string> Check() = 0;
};

/// Workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& WorkloadNames();

/// Null for an unknown name. `small` runs the reduced-size variant the
/// benchmark's own tests use.
[[nodiscard]] std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool small);

}  // namespace perfbench
