#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <sstream>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail HighestTail(std::vector<double> values, int max_percentile, std::size_t min_beyond) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (int p = max_percentile; p >= 50; --p) {
    // Nearest rank: the ceil(p/100 * n)-th smallest sample (1-based).
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    const std::size_t clamped = std::clamp<std::size_t>(rank, 1, n);
    if (n - clamped >= min_beyond) {
      tail.percentile = p;
      tail.value = values[clamped - 1];
      tail.beyond = n - clamped;
      return tail;
    }
  }
  tail.percentile = 50;
  tail.value = Median(values);
  tail.beyond = n / 2;
  return tail;
}

std::vector<LayerTime> SummarizeSpans(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.end_ns > b.end_ns;  // the enclosing span first
  });
  std::vector<std::int64_t> covered(spans.size(), 0);
  std::vector<std::size_t> open;  // indices of enclosing spans, innermost last
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    while (!open.empty()) {
      const Span& top = spans[open.back()];
      if (top.thread == span.thread && top.end_ns >= span.end_ns) break;
      open.pop_back();
    }
    // Direct children of one span never overlap each other on a thread,
    // so summing their durations is the union of what they cover.
    if (!open.empty()) covered[open.back()] += span.end_ns - span.start_ns;
    open.push_back(i);
  }
  std::map<std::string, LayerTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTime& layer = by_name[spans[i].name];
    layer.name = spans[i].name;
    const std::int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++layer.calls;
    layer.total_s += static_cast<double>(duration) * 1e-9;
    layer.self_s += static_cast<double>(duration - covered[i]) * 1e-9;
  }
  std::vector<LayerTime> out;
  out.reserve(by_name.size());
  for (auto& [name, layer] : by_name) out.push_back(std::move(layer));
  return out;
}

namespace {

/// Whole numbers in full ("968157"), anything else to 6 significant digits.
std::string FormatBase(double x) {
  std::ostringstream text;
  if (x == std::floor(x) && std::fabs(x) < 1e15) {
    text << std::fixed << std::setprecision(0) << x;
  } else {
    text << std::setprecision(6) << x;
  }
  return text.str();
}

}  // namespace

std::string Ratio::Describe() const {
  std::ostringstream text;
  text << std::setprecision(6) << value();
  return text.str() + " (" + FormatBase(num) + "/" + FormatBase(den) + ")";
}

}  // namespace perfbench
