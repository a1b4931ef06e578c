// perfbench: runs one workload in this process and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--small] [--git-rev <rev>] [--git-dirty <0|1>]
//
// After one unmeasured warm-up iteration, untraced iterations repeat for
// about --seconds; with --trace 1, traced and untraced iterations
// alternate so the tracing overhead is measured in the same process.
// Set-up repeats for at least a quarter second before the warm-up and
// before every iteration while set-up has taken under a quarter of the
// run; setup_s is the median of all of them.
// peak_rss_mb is the highest resident high-water mark of one timed
// iteration, reset after its set-up. Output checks run on the last
// iteration after timing stops. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Lines before it carry provenance and the bases of ratios.

#include <algorithm>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/stopwatch.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
using quicksand::obs::JsonValue;
using quicksand::obs::Stopwatch;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  std::string git_rev = "unknown";
  std::string git_dirty = "unknown";
};

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "                 [--small] [--git-rev <rev>] [--git-dirty <0|1>]\n"
            << "workloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        options.trace = std::stoi(value()) != 0;
      } else if (arg == "--small") {
        options.small = true;
      } else if (arg == "--git-rev") {
        options.git_rev = value();
      } else if (arg == "--git-dirty") {
        options.git_dirty = value();
      } else {
        Usage("unknown flag " + arg);
      }
    } catch (const std::logic_error&) {
      Usage("bad value for " + arg);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  return options;
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Restarts the process's resident high-water mark (VmHWM) at its
/// current RSS. False if the kernel refused the reset, in which case
/// VmHWM still covers the whole process.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return static_cast<bool>(clear_refs);
}

/// The resident high-water mark (VmHWM) in MB.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::map<std::string, std::uint64_t> Counters() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, value] : quicksand::obs::MetricsRegistry::Global().Snapshot().counters) {
    out[name] = value;
  }
  return out;
}

/// Every per-layer metric, in BENCHMARK.json order, with its unit.
const std::vector<std::pair<std::string, std::string>>& LayerMetricUnits() {
  static const std::vector<std::pair<std::string, std::string>> units = {
      {"bgp.route.solves", "count"},
      {"bgp.route.cache_hit_ratio", "ratio"},
      {"bgp.dynamics.busy_s", "s"},
      {"bgp.dynamics.updates", "count"},
      {"bgp.mrt.encode_s", "s"},
      {"bgp.mrt.parse_s", "s"},
      {"bgp.mrt.wire_bytes", "bytes"},
      {"feed.intern_hit_ratio", "ratio"},
      {"bgp.sanitize.busy_s", "s"},
      {"bgp.sanitize.kept_ratio", "ratio"},
      {"bgp.churn.busy_s", "s"},
      {"bgp.churn.updates", "count"},
      {"bgp.churn.report_s", "s"},
      {"core.monitor.busy_s", "s"},
      {"core.monitor.alerts", "count"},
      {"daemon.baseline_s", "s"},
      {"daemon.step_busy_s", "s"},
      {"daemon.records_consumed", "count"},
      {"daemon.shed_records", "count"},
      {"daemon.peak_queued_records", "count"},
      {"daemon.replay_updates_per_s", "1/s"},
      {"daemon.query.exposure_p50_ms", "ms"},
      {"daemon.query.alerts_p50_ms", "ms"},
      {"daemon.query.health_p50_ms", "ms"},
      {"daemon.query.busy_s", "s"},
      {"daemon.query.rejected", "count"},
      {"query_p50_ms", "ms"},
      {"query_p99_ms", "ms"},
      {"query_samples", "count"},
      {"core.exposure.calls", "count"},
      {"core.exposure.busy_s", "s"},
      {"tor.selection.busy_s", "s"},
      {"tor.selection.circuits", "count"},
      {"tor.selection.reject_ratio", "ratio"},
      {"core.longterm.busy_s", "s"},
      {"core.longterm.client_days_per_s", "1/s"},
      {"core.population.busy_s", "s"},
      {"core.population.client_days_per_s", "1/s"},
      {"core.correlation.busy_s", "s"},
      {"core.correlation.trials", "count"},
      {"traffic.flow.transfers", "count"},
      {"exec.busy_ratio", "ratio"},
      {"obs.trace_overhead_frac", "ratio"},
      {"obs.timer_ns", "ns"},
      {"failed_frac", "ratio"},
  };
  return units;
}

/// Span name -> the per-layer metric its self time (summed over threads)
/// is reported as.
const std::map<std::string, std::string>& SpanMetrics() {
  static const std::map<std::string, std::string> spans = {
      {"bgp.dynamics", "bgp.dynamics.busy_s"},
      {"bgp.mrt.encode", "bgp.mrt.encode_s"},
      {"bgp.mrt.parse", "bgp.mrt.parse_s"},
      {"bgp.sanitize", "bgp.sanitize.busy_s"},
      {"bgp.churn", "bgp.churn.busy_s"},
      {"bgp.churn.report", "bgp.churn.report_s"},
      {"core.monitor", "core.monitor.busy_s"},
      {"daemon.baseline", "daemon.baseline_s"},
      {"daemon.step", "daemon.step_busy_s"},
      {"daemon.query", "daemon.query.busy_s"},
      {"core.exposure", "core.exposure.busy_s"},
      {"tor.selection", "tor.selection.busy_s"},
      {"core.longterm", "core.longterm.busy_s"},
      {"core.population", "core.population.busy_s"},
      {"core.correlation", "core.correlation.busy_s"},
  };
  return spans;
}

/// The per-layer metrics of one traced iteration: span self times, obs
/// counter deltas, and what the workload measured itself. Ratios land in
/// `ratios` with their bases.
std::map<std::string, double> LayerMetrics(Iteration& it, const std::vector<Span>& spans,
                                           std::map<std::string, std::uint64_t> before,
                                           std::map<std::string, std::uint64_t> after,
                                           double cpu_s) {
  std::map<std::string, double> m;
  for (const auto& [name, unit] : LayerMetricUnits()) m[name] = 0;
  for (const LayerTime& layer : SummarizeSpans(spans)) {
    const auto found = SpanMetrics().find(layer.name);
    if (found != SpanMetrics().end()) m[found->second] = layer.self_s;
    if (layer.name == "core.correlation") {
      m["core.correlation.trials"] = static_cast<double>(layer.calls);
    }
  }
  auto delta = [&](const char* name) {
    return static_cast<double>(after[name] - before[name]);
  };
  const double cache_hits = delta("exec.route_cache.hits");
  const double cache_misses = delta("exec.route_cache.misses");
  m["bgp.route.solves"] = cache_misses;
  it.ratios["bgp.route.cache_hit_ratio"] = {cache_hits, cache_hits + cache_misses};
  m["bgp.dynamics.updates"] = delta("bgp.dynamics.updates_generated");
  const double intern_hits = delta("feed.intern.hits");
  it.ratios["feed.intern_hit_ratio"] = {intern_hits, intern_hits + delta("feed.intern.misses")};
  m["bgp.churn.updates"] = delta("bgp.churn.updates_consumed");
  m["daemon.query.rejected"] = delta("daemon.query.rejected_busy") +
                               delta("daemon.query.rejected_deadline") +
                               delta("daemon.query.invalid");
  m["daemon.peak_queued_records"] = static_cast<double>(
      quicksand::obs::MetricsRegistry::Global().GetGauge("daemon.ingest.peak_queued_records")
          .value());
  const double attempts = delta("tor.path.circuit_attempts");
  const double built = delta("tor.path.circuits_built");
  m["tor.selection.circuits"] = built + delta("pop.circuits_built");
  it.ratios["tor.selection.reject_ratio"] = {attempts - built, attempts};
  m["traffic.flow.transfers"] = delta("traffic.flow.transfers_simulated");
  if (m["core.longterm.busy_s"] > 0) {
    m["core.longterm.client_days_per_s"] =
        it.layer["core.longterm.client_days"] / m["core.longterm.busy_s"];
  }
  if (m["core.population.busy_s"] > 0) {
    m["core.population.client_days_per_s"] =
        it.layer["core.population.client_days"] / m["core.population.busy_s"];
  }
  it.ratios["exec.busy_ratio"] = {cpu_s, static_cast<double>(kThreads) * it.wall_s};
  it.ratios["failed_frac"] = {static_cast<double>(it.failed),
                              static_cast<double>(it.attempted)};
  for (const auto& [name, value] : it.layer) {
    if (m.contains(name)) m[name] = value;
  }
  for (const auto& [name, ratio] : it.ratios) m[name] = ratio.value();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  std::unique_ptr<Workload> workload = MakeWorkload(options.workload, options.small);
  if (!workload) Usage("unknown workload " + options.workload);

  // Set-up samples are spread over the whole run, as the iterations are,
  // so that setup_s follows the machine's drifting speed the way wall_s
  // does instead of catching one moment of it. Each batch runs for at
  // least a quarter second, so a millisecond set-up gets many samples.
  std::vector<double> setup_s;
  double setup_total_s = 0;
  auto set_up = [&] {
    const Stopwatch batch;
    do {
      const Stopwatch watch;
      workload->Setup(options.seed);
      setup_s.push_back(watch.ElapsedMs() * 1e-3);
    } while (batch.ElapsedMs() < 250);
    setup_total_s += batch.ElapsedMs() * 1e-3;
  };
  set_up();
  const double timer_ns = options.trace ? MeasureSpanCostNs(200000) : 0;
  // One unmeasured iteration first: lazily built state (thread pools,
  // interned tables) settles before anything is timed. A zero-second
  // run (the benchmark's own tests) only checks outputs and skips it.
  if (options.seconds > 0) static_cast<void>(workload->Iterate(nullptr));

  std::vector<double> wall_s, traced_wall_s, items_per_s;
  std::vector<std::map<std::string, double>> layer_runs;
  std::map<std::string, std::vector<double>> request_ms;
  std::map<std::string, Ratio> last_ratios;
  std::uint64_t attempted = 0, failed = 0;
  double peak_rss_mb = 0;
  bool rss_reset = true;
  const Stopwatch run_watch;
  double last_pass_s = 0;
  for (std::size_t n = 0;; ++n) {
    const bool traced = options.trace && n % 2 == 1;
    // Stop at the pass that ends nearest to --seconds, so that a run of
    // multi-second iterations does not overshoot by a whole one.
    const double elapsed_s = run_watch.ElapsedMs() * 1e-3;
    const bool enough = elapsed_s + 0.5 * last_pass_s >= options.seconds && !wall_s.empty() &&
                        (!options.trace || !traced_wall_s.empty());
    if (enough) break;
    // Set-up takes at most a quarter of the run: a heavy one (daemon_live
    // generates a month of dynamics) then skips some iterations.
    if (setup_total_s < 0.25 * run_watch.ElapsedMs() * 1e-3) set_up();
    // The set-ups' own peak is not the iteration's.
    rss_reset = ResetPeakRss() && rss_reset;
    Tracer tracer;
    const auto counters_before = Counters();
    const double cpu_before = ProcessCpuSeconds();
    const Stopwatch watch;
    Iteration it = workload->Iterate(traced ? &tracer : nullptr);
    it.wall_s = watch.ElapsedMs() * 1e-3;
    const double cpu_s = ProcessCpuSeconds() - cpu_before;
    peak_rss_mb = std::max(peak_rss_mb, PeakRssMb());
    last_pass_s = run_watch.ElapsedMs() * 1e-3 - elapsed_s;
    if (it.items_wall_s == 0) it.items_wall_s = it.wall_s;
    attempted += it.attempted;
    failed += it.failed;
    for (auto& [kind, samples] : it.request_ms) {
      request_ms[kind].insert(request_ms[kind].end(), samples.begin(), samples.end());
    }
    if (traced) {
      traced_wall_s.push_back(it.wall_s);
      layer_runs.push_back(LayerMetrics(it, tracer.TakeSpans(), counters_before, Counters(), cpu_s));
      last_ratios = it.ratios;
    } else {
      wall_s.push_back(it.wall_s);
      items_per_s.push_back(it.items / it.items_wall_s);
    }
  }

  if (!rss_reset) std::cerr << "perfbench: could not reset VmHWM; peak_rss_mb covers set-up\n";
  const std::vector<std::string> failures = workload->Check();
  for (const std::string& failure : failures) std::cerr << "CHECK FAILED: " << failure << "\n";
  const bool correct = failures.empty();
  // A failed output check fails every operation of the run.
  if (!correct) failed = attempted;

  JsonValue walls = JsonValue::Array();
  for (const double wall : wall_s) walls.Append(wall);
  JsonValue provenance = JsonValue::Object();
  provenance.Set("workload", options.workload)
      .Set("seed", options.seed)
      .Set("threads", static_cast<std::uint64_t>(kThreads))
      .Set("small", options.small)
      .Set("git_rev", options.git_rev)
      .Set("git_dirty", options.git_dirty)
      .Set("compiler", PERFBENCH_COMPILER)
      .Set("build_type", PERFBENCH_BUILD_TYPE)
      .Set("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .Set("cpu_model", CpuModel())
      .Set("setups", static_cast<std::uint64_t>(setup_s.size()))
      .Set("peak_rss_reset", rss_reset)
      .Set("untraced_iterations", static_cast<std::uint64_t>(wall_s.size()))
      .Set("traced_iterations", static_cast<std::uint64_t>(traced_wall_s.size()))
      .Set("iteration_wall_s", std::move(walls));
  JsonValue provenance_line = JsonValue::Object();
  provenance_line.Set("provenance", std::move(provenance));
  std::cout << provenance_line.Dump() << "\n";

  JsonValue metrics = JsonValue::Object();
  auto add = [&metrics](const std::string& name, double value, const std::string& unit) {
    JsonValue metric = JsonValue::Object();
    metric.Set("value", value).Set("unit", unit);
    metrics.Set(name, std::move(metric));
  };
  if (!options.trace) {
    const double ok_frac =
        attempted == 0 ? 0 : 1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
    add("setup_s", Median(setup_s), "s");
    add("wall_s", Median(wall_s), "s");
    add("peak_rss_mb", peak_rss_mb, "MB");
    add("ok_frac", ok_frac, "ratio");
    add("items_per_s", Median(items_per_s), "1/s");
  } else {
    std::map<std::string, std::vector<double>> per_metric;
    for (const auto& run : layer_runs) {
      for (const auto& [name, value] : run) per_metric[name].push_back(value);
    }
    std::map<std::string, double> layer;
    for (const auto& [name, values] : per_metric) layer[name] = Median(values);
    std::vector<double> all_requests;
    for (const auto& [kind, samples] : request_ms) {
      all_requests.insert(all_requests.end(), samples.begin(), samples.end());
      layer["daemon.query." + kind + "_p50_ms"] = Median(samples);
    }
    const Tail tail = HighestTail(all_requests);
    layer["query_p50_ms"] = Median(all_requests);
    layer["query_p99_ms"] = tail.value;
    layer["query_samples"] = static_cast<double>(all_requests.size());
    layer["obs.trace_overhead_frac"] = Median(traced_wall_s) / Median(wall_s) - 1.0;
    layer["obs.timer_ns"] = timer_ns;
    layer["failed_frac"] =
        attempted == 0 ? 0 : static_cast<double>(failed) / static_cast<double>(attempted);
    for (const auto& [name, unit] : LayerMetricUnits()) add(name, layer[name], unit);
    // The bases behind every ratio, and the percentile query_p99_ms holds.
    JsonValue bases = JsonValue::Object();
    for (const auto& [name, ratio] : last_ratios) bases.Set(name, ratio.Describe());
    JsonValue query_tail = JsonValue::Object();
    query_tail.Set("percentile", static_cast<std::int64_t>(tail.percentile))
        .Set("samples", static_cast<std::uint64_t>(tail.samples))
        .Set("beyond", static_cast<std::uint64_t>(tail.beyond));
    JsonValue detail = JsonValue::Object();
    detail.Set("ratio_bases", std::move(bases)).Set("query_tail", std::move(query_tail));
    std::cout << detail.Dump() << "\n";
  }

  JsonValue result = JsonValue::Object();
  result.Set("correct", correct)
      .Set("attempted", attempted)
      .Set("failed", failed)
      .Set("metrics", std::move(metrics));
  std::cout << result.Dump() << std::endl;
  return 0;
}
