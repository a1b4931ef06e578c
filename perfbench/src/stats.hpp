#pragma once

// Statistics the benchmark reports: medians, tail percentiles with their
// sample counts, busy time summed over threads, span self time, and
// ratios that always carry their base. Pure functions, unit-tested in
// tests/stats_test.cpp.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
[[nodiscard]] double Median(std::vector<double> values);

/// A nearest-rank percentile together with the sample count behind it.
struct Tail {
  int percentile = 0;      ///< e.g. 99; 50 when no tail percentile qualifies
  double value = 0;        ///< the percentile's sample
  std::size_t samples = 0; ///< samples the percentile was taken over
  std::size_t beyond = 0;  ///< samples strictly above its rank
};

/// The highest whole percentile, at most `max_percentile`, that leaves at
/// least `min_beyond` samples beyond its nearest rank. With too few
/// samples for any percentile >= 50 to qualify, returns the median
/// (percentile 50) so the caller still reports a measured value.
[[nodiscard]] Tail HighestTail(std::vector<double> values, int max_percentile = 99,
                               std::size_t min_beyond = 10);

/// One timed interval on one thread.
struct Span {
  std::string name;
  std::uint32_t thread = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name totals over a set of spans.
struct LayerTime {
  std::string name;
  std::size_t calls = 0;
  double total_s = 0;  ///< span durations summed over all threads
  double self_s = 0;   ///< span durations minus the time their child spans cover
};

/// Sums span time per name over every thread. A span's child is a span
/// on the same thread whose interval lies inside it; self time subtracts
/// the union of the direct children's intervals. Output sorted by name.
[[nodiscard]] std::vector<LayerTime> SummarizeSpans(std::vector<Span> spans);

/// A ratio that keeps its numerator and denominator so the report can
/// print the base next to the value.
struct Ratio {
  double num = 0;
  double den = 0;
  /// num / den, or 0 for an empty base.
  [[nodiscard]] double value() const noexcept { return den == 0 ? 0 : num / den; }
  /// "value (num/den)", e.g. "0.5 (3/6)".
  [[nodiscard]] std::string Describe() const;
};

}  // namespace perfbench
