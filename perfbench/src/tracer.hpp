#pragma once

// The benchmark's own span recorder. Workloads wrap each call into a
// layer's public entry point in a Layer scope; with a null tracer (the
// untraced run) the scope does nothing but a pointer test. Spans stay in
// memory until the iteration ends and are summarized by SummarizeSpans.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  /// Thread-safe: worker threads record their spans concurrently.
  void Record(const char* name, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] std::vector<Span> TakeSpans();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span around one layer call; inert when `tracer` is null.
class Layer {
 public:
  Layer(Tracer* tracer, const char* name) noexcept
      : tracer_(tracer), name_(name), start_ns_(tracer != nullptr ? NowNs() : 0) {}
  ~Layer() {
    if (tracer_ != nullptr) tracer_->Record(name_, start_ns_, NowNs());
  }
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  std::int64_t start_ns_;
};

/// Mean cost in ns of one empty Layer scope on a live tracer, over
/// `calls` scopes (the per-call overhead the traced run adds).
[[nodiscard]] double MeasureSpanCostNs(std::size_t calls);

}  // namespace perfbench
