#include "tracer.hpp"

#include <atomic>
#include <utility>

namespace perfbench {
namespace {

/// A small process-unique id for the calling thread.
std::uint32_t ThreadId() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

void Tracer::Record(const char* name, std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint32_t thread = ThreadId();
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, thread, start_ns, end_ns});
}

std::vector<Span> Tracer::TakeSpans() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return std::exchange(spans_, {});
}

double MeasureSpanCostNs(std::size_t calls) {
  Tracer tracer;
  const std::int64_t start = NowNs();
  for (std::size_t i = 0; i < calls; ++i) {
    const Layer span(&tracer, "obs.timer");
  }
  const std::int64_t elapsed = NowNs() - start;
  return calls == 0 ? 0 : static_cast<double>(elapsed) / static_cast<double>(calls);
}

}  // namespace perfbench
