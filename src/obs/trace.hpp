#pragma once

// Structured event tracing for pipeline phases (topology generation,
// consensus generation, dynamics generation, replay, attack analysis).
//
// Events use the Chrome trace_event phase vocabulary ('i' instant,
// 'X' complete) and are emitted as JSONL — one event object per
// line — which streams safely even if the process dies mid-run.
// WriteChromeTrace() wraps the same events into the JSON-array form that
// chrome://tracing and Perfetto load directly.
//
// Library code traces through the process-global sink (GlobalTrace()),
// which is null — tracing disabled, near-zero cost — until a harness
// installs one (bench binaries do on `--trace <path>`).

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/stopwatch.hpp"

namespace quicksand::obs {

struct TraceEvent {
  std::string name;
  char phase = 'i';        ///< 'i' or 'X' (trace_event "ph")
  std::int64_t ts_us = 0;  ///< microseconds since sink creation
  int depth = 0;           ///< span-nesting depth ('X'); 0 for instants
  std::vector<std::pair<std::string, std::string>> args;
  std::int64_t dur_us = 0;  ///< duration; meaningful for 'X' complete events
  int tid = 0;              ///< emitting thread (obs::CurrentThreadId); 0 = main

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Collects trace events in memory and (optionally) streams them to a
/// JSONL file. Thread-safe; events are globally ordered by the sink lock.
class TraceSink {
 public:
  /// `jsonl_path` empty means in-memory only.
  /// Throws std::runtime_error if the file cannot be opened.
  explicit TraceSink(const std::string& jsonl_path = "");
  ~TraceSink();

  /// A point event.
  void Instant(std::string_view name,
               std::vector<std::pair<std::string, std::string>> args = {});
  /// A self-contained span ('X' complete event) that just finished: its
  /// start timestamp is now minus `dur_us`. Complete events from
  /// concurrent threads cannot interleave into a torn begin/end pairing —
  /// obs::ScopedSpan emits these (see obs/span.hpp).
  void Complete(std::string_view name, std::int64_t dur_us, int depth, int tid,
                std::vector<std::pair<std::string, std::string>> args = {});

  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  /// Re-emits every collected event as a Chrome trace_event JSON array
  /// ({"traceEvents": [...]}) loadable by chrome://tracing / Perfetto.
  void WriteChromeTrace(const std::string& path) const;

  /// One event as a single JSONL line (no trailing newline).
  [[nodiscard]] static std::string ToJsonl(const TraceEvent& event);
  /// Parses lines previously produced by ToJsonl (round-trip inverse).
  /// Throws std::runtime_error on malformed input.
  [[nodiscard]] static std::vector<TraceEvent> ParseJsonl(std::istream& in);

 private:
  void Emit(TraceEvent event);

  mutable std::mutex mutex_;
  Stopwatch clock_;
  std::vector<TraceEvent> events_;
  std::unique_ptr<std::ofstream> out_;
};

/// Process-global sink used by library instrumentation; null = disabled.
[[nodiscard]] TraceSink* GlobalTrace() noexcept;
/// Installs (or clears, with nullptr) the global sink. The caller keeps
/// ownership and must outlive any traced calls.
void SetGlobalTrace(TraceSink* sink) noexcept;

}  // namespace quicksand::obs
