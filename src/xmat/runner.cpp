#include "xmat/runner.hpp"

#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "ckpt/watchdog.hpp"
#include "netbase/rng.hpp"
#include "obs/logger.hpp"
#include "obs/metrics.hpp"
#include "util/parse_num.hpp"
#include "util/retry.hpp"
#include "util/subprocess.hpp"

namespace quicksand::xmat {

namespace {

/// One attempt's outcome, as the manifest journals it.
struct AttemptOutcome {
  bool ok = false;
  bool deadline = false;
  std::string detail;
};

/// Runs one child attempt under a process-group-killing watchdog. The
/// watchdog is the ckpt one: armed before the blocking reap, tripped on
/// its monitor thread, where the handler SIGKILLs the cell's group — the
/// reap then returns "signal 9", which the outcome upgrades to a
/// deadline attribution.
AttemptOutcome RunAttempt(const std::vector<std::string>& argv,
                          const util::SpawnOptions& spawn_options,
                          const std::string& json_path, std::int64_t timeout_ms,
                          const std::string& stage) {
  std::atomic<pid_t> child_pid{0};
  std::atomic<bool> tripped{false};
  std::unique_ptr<ckpt::Watchdog> watchdog;
  if (timeout_ms > 0) {
    watchdog = std::make_unique<ckpt::Watchdog>(
        std::chrono::milliseconds(timeout_ms), [&](const ckpt::Watchdog::Trip&) {
          tripped.store(true);
          util::KillProcessGroup(child_pid.load());
        });
  }

  const pid_t pid = util::Spawn(argv, spawn_options);
  child_pid.store(pid);
  AttemptOutcome outcome;
  {
    const ckpt::ShardGuard guard(watchdog.get(), stage, 0);
    const util::WaitResult wait = util::Wait(pid);
    outcome.detail = wait.Describe();
    outcome.ok = wait.ok();
  }
  if (tripped.load()) {
    outcome.ok = false;
    outcome.deadline = true;
    outcome.detail = "deadline " + std::to_string(timeout_ms) + " ms (" +
                     outcome.detail + ")";
  }
  // A cell that "succeeded" without publishing its summary is a failure:
  // the merge step has nothing to merge.
  if (outcome.ok && !std::filesystem::exists(json_path)) {
    outcome.ok = false;
    outcome.detail = "exit 0 but no JSON summary";
  }
  return outcome;
}

/// xmat.* is a reserved telemetry namespace (scripts/check_bench_json.py):
/// retry counts and deadline kills legitimately differ between an
/// uninterrupted matrix and a killed-and-resumed one.
void Count(const char* name, std::uint64_t delta = 1) {
  obs::MetricsRegistry::Global().GetCounter(name).Increment(delta);
}

}  // namespace

std::string ManifestPath(const std::string& out_dir) {
  return out_dir + "/manifest.journal";
}

std::string CellJsonPath(const std::string& out_dir, const Cell& cell) {
  return out_dir + "/cells/" + cell.id + ".json";
}

std::string CellWorkDir(const std::string& out_dir, const Cell& cell) {
  return out_dir + "/cells/" + cell.id;
}

RunSummary RunMatrix(const MatrixConfig& config, const RunnerOptions& options) {
  namespace fs = std::filesystem;
  if (options.out_dir.empty()) throw std::runtime_error("RunMatrix: empty out_dir");

  const std::string bench_path =
      (options.bench_dir.empty() ? std::string(".") : options.bench_dir) + "/" +
      config.bench;
  if (::access(bench_path.c_str(), X_OK) != 0) {
    throw std::runtime_error("RunMatrix: cell binary not executable: " + bench_path);
  }

  const std::vector<Cell> cells = ExpandCells(config);
  fs::create_directories(options.out_dir + "/cells");
  fs::create_directories(options.out_dir + "/logs");

  Manifest manifest =
      options.resume
          ? Manifest::Load(ManifestPath(options.out_dir), config.fingerprint,
                           cells.size())
          : Manifest(ManifestPath(options.out_dir), config.fingerprint, cells.size());

  // Chaos hook, mirroring QUICKSAND_CKPT_ABORT_AFTER: raise(SIGKILL) on
  // the runner itself after the n-th cell completes — the crash
  // the matrix/c_* rows of scripts/contracts.py resume from.
  const std::int64_t kill_after = util::EnvInt64("QUICKSAND_XMAT_KILL_AFTER", 0);

  RunSummary summary;
  summary.cells = cells.size();
  util::RetryPolicy backoff;
  backoff.base_backoff_ms = config.retry_backoff_ms;
  backoff.max_backoff_ms = 32 * (config.retry_backoff_ms > 0 ? config.retry_backoff_ms : 1.0);

  std::mutex mutex;  // manifest appends + summary tallies + completion hook
  std::atomic<std::size_t> next_cell{0};
  std::atomic<std::size_t> completed{0};

  const auto worker = [&] {
    for (;;) {
      const std::size_t index = next_cell.fetch_add(1);
      if (index >= cells.size()) return;
      const Cell& cell = cells[index];

      {
        const std::lock_guard<std::mutex> lock(mutex);
        const CellStatus& status = manifest.Status(index);
        if (status.state == CellState::kDone) {
          ++summary.done;
          ++summary.skipped_done;
          continue;
        }
        if (status.state == CellState::kQuarantined) {
          ++summary.quarantined;
          continue;
        }
      }

      fs::create_directories(CellWorkDir(options.out_dir, cell));
      const std::string json_path = CellJsonPath(options.out_dir, cell);
      // Per-cell jitter stream: a pure function of (config, cell), so a
      // resumed matrix backs off exactly like an uninterrupted one.
      netbase::Rng rng(config.fingerprint ^ (0x9E3779B97F4A7C15ULL * (index + 1)));

      for (;;) {
        std::int64_t attempt;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          attempt = manifest.Status(index).attempts + 1;
          manifest.Record(index, CellState::kRunning);
          ++summary.attempts;
          if (attempt > 1) ++summary.retries;
        }
        Count("xmat.attempts");

        std::vector<std::string> argv =
            CellArgv(config, cell, fs::absolute(bench_path).string());
        argv.push_back("--json");
        argv.push_back(fs::absolute(json_path).string());
        util::SpawnOptions spawn;
        spawn.cwd = CellWorkDir(options.out_dir, cell);
        spawn.stdout_path =
            fs::absolute(options.out_dir + "/logs/" + cell.id + ".attempt" +
                         std::to_string(attempt) + ".log")
                .string();
        spawn.env_extra = options.cell_env;

        const AttemptOutcome outcome = RunAttempt(
            argv, spawn, json_path, config.timeout_ms, "xmat/" + cell.id);

        bool settled = false;
        {
          const std::lock_guard<std::mutex> lock(mutex);
          if (outcome.deadline) {
            ++summary.deadline_kills;
            Count("xmat.deadline_kills");
          }
          if (outcome.ok) {
            manifest.Record(index, CellState::kDone, outcome.detail);
            ++summary.done;
            Count("xmat.cells_done");
            settled = true;
          } else {
            obs::LogWarn("xmat", cell.id + " [" + cell.Label() + "] attempt " +
                                     std::to_string(attempt) +
                                     " failed: " + outcome.detail);
            Count("xmat.cell_failures");
            if (attempt > config.retries) {
              manifest.Record(index, CellState::kQuarantined, outcome.detail);
              ++summary.quarantined;
              Count("xmat.cells_quarantined");
              settled = true;
            } else {
              manifest.Record(index, CellState::kFailed, outcome.detail);
            }
          }
        }
        if (settled) break;
        // Backoff outside the lock so parallel workers keep journaling.
        const double delay_ms =
            util::BackoffMs(backoff, static_cast<std::size_t>(attempt), rng);
        if (!options.no_backoff_sleep) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay_ms));
        }
      }

      const std::size_t finished = completed.fetch_add(1) + 1;
      if (kill_after > 0 && finished >= static_cast<std::size_t>(kill_after)) {
        // Die the hard way — no destructors, no final journal flush
        // beyond what Record already published. What resume must survive.
        ::raise(SIGKILL);
      }
    }
  };

  if (options.jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> workers;
    workers.reserve(options.jobs);
    for (std::size_t i = 0; i < options.jobs; ++i) workers.emplace_back(worker);
    for (std::thread& thread : workers) thread.join();
  }
  return summary;
}

}  // namespace quicksand::xmat
