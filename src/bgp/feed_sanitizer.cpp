#include "bgp/feed_sanitizer.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace quicksand::bgp {

SanitizedRecords SanitizeRecords(const std::vector<feed::UpdateRec>& initial_rib,
                                 std::vector<feed::UpdateRec> updates,
                                 const SanitizerParams& params) {
  const obs::ScopedSpan span("bgp.sanitize_feed");
  SanitizedRecords result;
  if (params.repair_ordering) {
    for (std::size_t i = 1; i < updates.size(); ++i) {
      if (updates[i].time < updates[i - 1].time) ++result.out_of_order_repaired;
    }
    if (result.out_of_order_repaired > 0) {
      feed::SortRecords(updates);
      obs::MetricsRegistry::Global()
          .GetCounter("bgp.sanitizer.out_of_order_repaired")
          .Increment(result.out_of_order_repaired);
    }
  }
  FilteredRecords filtered =
      FilterSessionRecords(initial_rib, std::move(updates), params.reset);
  result.updates = std::move(filtered.updates);
  result.reset_stats = filtered.stats;
  return result;
}

feed::FeedStage SanitizeStage(std::vector<BgpUpdate> initial_rib, SanitizerParams params,
                              std::shared_ptr<SanitizeStageStats> stats,
                              std::size_t batch_size) {
  if (batch_size == 0) batch_size = feed::kDefaultBatchSize;
  // Shared so the returned stage (and the std::function machinery around
  // it) stays copyable without duplicating the RIB.
  auto rib = std::make_shared<std::vector<BgpUpdate>>(std::move(initial_rib));
  return [rib = std::move(rib), params, stats = std::move(stats),
          batch_size](feed::UpdateStream upstream) -> feed::UpdateStream {
    struct State {
      std::shared_ptr<std::vector<BgpUpdate>> rib;
      SanitizerParams params;
      std::shared_ptr<SanitizeStageStats> stats;
      feed::UpdateStream upstream;
      bool drained = false;
      std::vector<feed::UpdateRec> records;  ///< sanitized
      std::size_t next = 0;
    };
    auto table = upstream.paths();
    auto state = std::make_shared<State>();
    state->rib = rib;
    state->params = params;
    state->stats = stats;
    state->upstream = std::move(upstream);
    feed::AsPathTable* raw_table = table.get();
    return feed::UpdateStream(
        std::move(table),
        [state = std::move(state), raw_table, batch_size](std::vector<feed::UpdateRec>& out) {
          if (!state->drained) {
            // Lazy whole-feed transform on first pull, entirely on the
            // record plane: the upstream's records already index the
            // stream table, the RIB is interned into that same table, and
            // the sanitized records are re-emitted as-is — no
            // materialization and no re-interning round trip.
            std::vector<feed::UpdateRec> drained = feed::Drain(state->upstream);
            // Intern the RIB only after the drain so stream records keep
            // the ids the source assigned them.
            std::vector<feed::UpdateRec> rib_recs;
            rib_recs.reserve(state->rib->size());
            for (const BgpUpdate& u : *state->rib) {
              rib_recs.push_back(feed::ToRecord(u, *raw_table));
            }
            SanitizedRecords sanitized =
                SanitizeRecords(rib_recs, std::move(drained), state->params);
            if (state->stats) {
              state->stats->reset_stats = sanitized.reset_stats;
              state->stats->out_of_order_repaired = sanitized.out_of_order_repaired;
            }
            state->records = std::move(sanitized.updates);
            state->drained = true;
          }
          if (state->next >= state->records.size()) return false;
          const std::size_t end =
              std::min(state->next + batch_size, state->records.size());
          out.assign(state->records.begin() + static_cast<std::ptrdiff_t>(state->next),
                     state->records.begin() + static_cast<std::ptrdiff_t>(end));
          state->next = end;
          return true;
        });
  };
}

}  // namespace quicksand::bgp
