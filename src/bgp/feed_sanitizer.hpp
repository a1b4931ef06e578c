#pragma once

// Reusable feed-cleaning stage: the canonical path from a raw (possibly
// lossy, reordered, resync-polluted) collector stream to the clean,
// time-ordered stream every analyzer expects.
//
// The stage composes, in order:
//   1. re-ordering repair — updates that arrived out of time order (delay
//      jitter, interleaved archives) are stable-sorted back into the
//      canonical (time, session, prefix) order instead of aborting the
//      analysis;
//   2. session-reset filtering — duplicate announcements and
//      table-transfer bursts are removed (FilterSessionRecords, after
//      Zhang et al.), which also collapses the resync bursts a flapping
//      session emits on recovery.
//
// The paper applies exactly this cleaning before any churn measurement;
// promoting it into one stage lets every consumer (benches, the fault
// sweep, future ingest services) share the behavior and its statistics.

#include <cstddef>
#include <memory>
#include <vector>

#include "bgp/feed.hpp"
#include "bgp/session_reset.hpp"
#include "bgp/update.hpp"

namespace quicksand::bgp {

struct SanitizerParams {
  ResetFilterParams reset;
  /// When false, out-of-order input throws (FilterSessionRecords's strict
  /// behavior) instead of being repaired.
  bool repair_ordering = true;
};

/// A cleaned record stream plus everything the sanitizer did to it.
struct SanitizedRecords {
  std::vector<feed::UpdateRec> updates;
  ResetFilterStats reset_stats;
  /// Input adjacencies that violated time order and were repaired.
  std::size_t out_of_order_repaired = 0;
};

/// Cleans `updates` against the t=0 table `initial_rib`: ordering repair
/// (SortRecords) followed by FilterSessionRecords, never touching a hop
/// vector. REQUIRES that `initial_rib` and `updates` index the same
/// AsPathTable (see FilterSessionRecords). Metrics:
/// `bgp.sanitizer.out_of_order_repaired` (registered only when a repair
/// actually happened) plus the `bgp.reset_filter.*` family.
[[nodiscard]] SanitizedRecords SanitizeRecords(
    const std::vector<feed::UpdateRec>& initial_rib,
    std::vector<feed::UpdateRec> updates, const SanitizerParams& params = {});

/// What the stage form did to the feed (filled once the stage's output
/// stream is first pulled).
struct SanitizeStageStats {
  ResetFilterStats reset_stats;
  std::size_t out_of_order_repaired = 0;
};

/// The sanitizer as a composable feed stage. Ordering repair and reset
/// filtering are whole-feed operations, so this is a documented
/// drain-transform-re-emit stage: on the first pull of its output it
/// drains the upstream, interns `initial_rib` into the upstream's
/// AsPathTable, runs SanitizeRecords, and re-emits the cleaned feed in
/// `batch_size` chunks. It bounds hand-off batch sizes, not total
/// residency (docs/ARCHITECTURE.md). Output content is identical to
/// SanitizeRecords for every batch size; `stats`, when set, receives the
/// sanitizer statistics.
[[nodiscard]] feed::FeedStage SanitizeStage(
    std::vector<BgpUpdate> initial_rib, SanitizerParams params = {},
    std::shared_ptr<SanitizeStageStats> stats = nullptr,
    std::size_t batch_size = feed::kDefaultBatchSize);

}  // namespace quicksand::bgp
