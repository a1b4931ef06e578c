// Tests for the streaming feed data plane (bgp/feed.hpp): AS-path
// interning, chunked UpdateStream sources and adapters, stage
// composition, and the equivalence contract — every stage/consumer must
// produce output identical to its materialized counterpart for every
// batch size and thread count (docs/ARCHITECTURE.md).

#include "bgp/feed.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "bgp/churn.hpp"
#include "bgp/feed_sanitizer.hpp"
#include "bgp/update.hpp"
#include "core/monitor.hpp"
#include "obs/metrics.hpp"
#include "fault/injector.hpp"

#include "support/records.hpp"

namespace quicksand::bgp {
namespace {

using netbase::Prefix;
using netbase::SimTime;

BgpUpdate Announce(std::int64_t t, SessionId s, const char* prefix, const char* path) {
  return {SimTime{t}, s, UpdateType::kAnnounce, Prefix::MustParse(prefix),
          AsPath::MustParse(path)};
}

BgpUpdate Withdraw(std::int64_t t, SessionId s, const char* prefix) {
  return {SimTime{t}, s, UpdateType::kWithdraw, Prefix::MustParse(prefix), {}};
}

std::vector<BgpUpdate> SampleFeed() {
  return {
      Announce(1, 0, "10.0.0.0/8", "65001 65002 65003"),
      Announce(2, 1, "10.0.0.0/8", "65001 65002 65003"),
      Announce(3, 0, "192.168.0.0/16", "65001 65004"),
      Withdraw(4, 0, "10.0.0.0/8"),
      Announce(5, 0, "10.0.0.0/8", "65001 65005 65003"),
      Announce(6, 1, "192.168.0.0/16", "65001 65002 65003"),
  };
}

// --- AsPathTable ----------------------------------------------------------

TEST(AsPathTable, EmptyPathIsAlwaysIdZero) {
  feed::AsPathTable table;
  EXPECT_EQ(table.size(), 1u);  // the pre-interned empty path
  EXPECT_EQ(table.Intern(AsPath{}), feed::kEmptyPath);
  EXPECT_TRUE(table.Path(feed::kEmptyPath).empty());
}

TEST(AsPathTable, InternDeduplicatesAndReportsHits) {
  feed::AsPathTable table;
  bool hit = true;
  const feed::PathId a = table.Intern(AsPath::MustParse("1 2 3"), &hit);
  EXPECT_FALSE(hit);
  const feed::PathId b = table.Intern(AsPath::MustParse("1 2 3"), &hit);
  EXPECT_TRUE(hit);
  EXPECT_EQ(a, b);
  const feed::PathId c = table.Intern(AsPath::MustParse("1 2 4"), &hit);
  EXPECT_FALSE(hit);
  EXPECT_NE(a, c);
  EXPECT_EQ(table.size(), 3u);  // empty + two distinct paths
}

TEST(AsPathTable, SortedSetIsComputedOncePerPath) {
  feed::AsPathTable table;
  // Prepend-heavy path: the distinct-AS set drops duplicates and sorts.
  const feed::PathId id = table.Intern(AsPath::MustParse("7 7 7 3 5 3"));
  EXPECT_EQ(table.SortedSet(id), (std::vector<AsNumber>{3, 5, 7}));
}

TEST(AsPathTable, SetHashIgnoresPrependsAndOrder) {
  feed::AsPathTable table;
  const feed::PathId a = table.Intern(AsPath::MustParse("1 2 2 3"));
  const feed::PathId b = table.Intern(AsPath::MustParse("3 2 1"));
  const feed::PathId c = table.Intern(AsPath::MustParse("3 2 4"));
  EXPECT_NE(a, b);  // different paths...
  EXPECT_EQ(table.SetHash(a), table.SetHash(b));  // ...same AS set
  EXPECT_NE(table.SetHash(a), table.SetHash(c));
}

TEST(AsPathTable, PathHashIsTableIndependent) {
  feed::AsPathTable one;
  feed::AsPathTable two;
  (void)two.Intern(AsPath::MustParse("9 9 9"));  // skew the id spaces
  const feed::PathId a = one.Intern(AsPath::MustParse("1 2 3"));
  const feed::PathId b = two.Intern(AsPath::MustParse("1 2 3"));
  EXPECT_NE(a, b);
  EXPECT_EQ(one.PathHash(a), two.PathHash(b));
}

// --- records and streams --------------------------------------------------

TEST(Feed, RecordRoundTrip) {
  feed::AsPathTable table;
  for (const BgpUpdate& update : SampleFeed()) {
    const feed::UpdateRec rec = feed::ToRecord(update, table);
    EXPECT_EQ(feed::ToBgpUpdate(rec, table), update);
  }
}

TEST(Feed, DefaultStreamIsExhausted) {
  feed::UpdateStream stream;
  std::vector<feed::UpdateRec> batch;
  EXPECT_FALSE(stream.Next(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(Feed, FromVectorRespectsBatchSize) {
  const std::vector<BgpUpdate> updates = SampleFeed();  // 6 records
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream stream = feed::FromVector(table, updates, /*batch_size=*/4);
  std::vector<feed::UpdateRec> batch;
  ASSERT_TRUE(stream.Next(batch));
  EXPECT_EQ(batch.size(), 4u);
  ASSERT_TRUE(stream.Next(batch));
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_FALSE(stream.Next(batch));
}

TEST(Feed, MaterializeRoundTripsEveryBatchSize) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  for (std::size_t batch = 1; batch <= updates.size() + 1; ++batch) {
    auto table = std::make_shared<feed::AsPathTable>();
    EXPECT_EQ(feed::Materialize(feed::FromVector(table, updates, batch)), updates)
        << "batch size " << batch;
  }
}

TEST(Feed, FromOwnedVectorOutlivesItsSource) {
  std::vector<BgpUpdate> updates = SampleFeed();
  const std::vector<BgpUpdate> expected = updates;
  feed::UpdateStream stream =
      feed::FromOwnedVector(std::make_shared<feed::AsPathTable>(), std::move(updates), 2);
  updates = {};  // the source vector is gone; the stream took ownership
  EXPECT_EQ(feed::Materialize(std::move(stream)), expected);
}

TEST(Feed, DrainProducesCompactRecords) {
  const std::vector<BgpUpdate> updates = SampleFeed();
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream stream = feed::FromVector(table, updates, 3);
  const std::vector<feed::UpdateRec> records = feed::Drain(stream);
  ASSERT_EQ(records.size(), updates.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(feed::ToBgpUpdate(records[i], *table), updates[i]);
  }
}

TEST(Feed, ComposeAppliesStagesInOrder) {
  // Two content-transparent stages that tag which order they ran in by
  // dropping records: first stage drops withdraws, second drops session 1.
  const auto drop_withdraws = [](feed::UpdateStream upstream) {
    auto state = std::make_shared<feed::UpdateStream>(std::move(upstream));
    auto table = state->paths();
    return feed::UpdateStream(table, [state](std::vector<feed::UpdateRec>& out) {
      std::vector<feed::UpdateRec> batch;
      while (state->Next(batch)) {
        for (const feed::UpdateRec& rec : batch) {
          if (rec.type == UpdateType::kAnnounce) out.push_back(rec);
        }
        if (!out.empty()) return true;
      }
      return !out.empty();
    });
  };
  const auto drop_session_one = [](feed::UpdateStream upstream) {
    auto state = std::make_shared<feed::UpdateStream>(std::move(upstream));
    auto table = state->paths();
    return feed::UpdateStream(table, [state](std::vector<feed::UpdateRec>& out) {
      std::vector<feed::UpdateRec> batch;
      while (state->Next(batch)) {
        for (const feed::UpdateRec& rec : batch) {
          if (rec.session != 1) out.push_back(rec);
        }
        if (!out.empty()) return true;
      }
      return !out.empty();
    });
  };
  const std::vector<feed::FeedStage> stages = {drop_withdraws, drop_session_one};
  auto table = std::make_shared<feed::AsPathTable>();
  const std::vector<BgpUpdate> updates = SampleFeed();
  const std::vector<BgpUpdate> out = feed::Materialize(
      feed::Compose(feed::FromVector(table, updates, 2), stages));
  std::vector<BgpUpdate> expected;
  for (const BgpUpdate& u : updates) {
    if (u.type == UpdateType::kAnnounce && u.session != 1) expected.push_back(u);
  }
  EXPECT_EQ(out, expected);
}

// --- stage/consumer equivalence vs the materialized pipeline --------------

std::vector<BgpUpdate> ResyncHeavyFeed() {
  // A feed with session resets, duplicates, and out-of-order adjacencies,
  // so the sanitizer actually has work to do.
  std::vector<BgpUpdate> updates;
  for (std::int64_t t = 10; t < 200; t += 10) {
    updates.push_back(Announce(t, 0, "10.0.0.0/8", t % 40 == 10 ? "1 2 3" : "1 2 4"));
    updates.push_back(Announce(t + 1, 1, "192.168.0.0/16", "1 5"));
  }
  // A resync burst: session 0 re-announces its table at one instant.
  for (int i = 0; i < 6; ++i) {
    updates.push_back(Announce(300, 0, "10.0.0.0/8", "1 2 4"));
  }
  // One out-of-order adjacency for the ordering repair.
  updates.push_back(Announce(250, 0, "10.0.0.0/8", "1 2 3"));
  return updates;
}

TEST(Feed, SanitizeStageMatchesSanitizeFeed) {
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
      Announce(0, 1, "192.168.0.0/16", "1 5"),
  };
  const std::vector<BgpUpdate> updates = ResyncHeavyFeed();
  test_support::RecordBuilder records;
  const std::vector<feed::UpdateRec> rib_records = records.Recs(initial_rib);
  const SanitizedRecords direct = SanitizeRecords(rib_records, records.Recs(updates));
  const std::vector<BgpUpdate> direct_updates = records.Updates(direct.updates);
  for (std::size_t batch : {1u, 3u, 1024u}) {
    auto stats = std::make_shared<SanitizeStageStats>();
    const feed::FeedStage stage = SanitizeStage(initial_rib, {}, stats, batch);
    auto table = std::make_shared<feed::AsPathTable>();
    const std::vector<BgpUpdate> staged =
        feed::Materialize(stage(feed::FromVector(table, updates, batch)));
    EXPECT_EQ(staged, direct_updates) << "batch size " << batch;
    EXPECT_EQ(stats->out_of_order_repaired, direct.out_of_order_repaired);
    EXPECT_EQ(stats->reset_stats.bursts_detected, direct.reset_stats.bursts_detected);
    EXPECT_EQ(stats->reset_stats.duplicates_removed,
              direct.reset_stats.duplicates_removed);
  }
}

TEST(Feed, PerturbStageMatchesPerturbStream) {
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.window_s = 1000;
  plan.session.flap_rate = 0.8;
  plan.session.mean_down_s = 100;
  plan.session.loss_rate = 0.1;
  plan.session.delay_rate = 0.2;
  const fault::FaultInjector injector(plan);
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
      Announce(0, 1, "192.168.0.0/16", "1 5"),
  };
  const std::vector<BgpUpdate> updates = ResyncHeavyFeed();
  const fault::FaultedStream direct = injector.PerturbStream(initial_rib, updates);
  for (std::size_t batch : {1u, 7u, 4096u}) {
    auto stats = std::make_shared<fault::StreamFaultStats>();
    const feed::FeedStage stage = injector.PerturbStage(initial_rib, stats, batch);
    auto table = std::make_shared<feed::AsPathTable>();
    const std::vector<BgpUpdate> staged =
        feed::Materialize(stage(feed::FromVector(table, updates, batch)));
    EXPECT_EQ(staged, direct.updates) << "batch size " << batch;
    EXPECT_EQ(stats->dropped(), direct.stats.dropped());
    EXPECT_EQ(stats->delayed, direct.stats.delayed);
    EXPECT_EQ(stats->resync_injected, direct.stats.resync_injected);
  }
}

// The comparable projection of a finished analyzer.
using ChurnRow = std::tuple<SessionId, Prefix, std::size_t, std::size_t, std::size_t,
                            std::vector<AsNumber>, std::vector<AsNumber>>;

std::vector<ChurnRow> Rows(const ChurnAnalyzer& analyzer) {
  std::vector<ChurnRow> rows;
  for (const auto& [key, churn] : analyzer.entries()) {
    rows.emplace_back(key.session, key.prefix, churn.announcements, churn.path_changes,
                      churn.distinct_paths, churn.qualifying_extra_ases,
                      churn.glimpsed_extra_ases);
  }
  return rows;
}

TEST(Feed, AnalyzeChurnStreamMatchesAnalyzeChurn) {
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
      Announce(0, 1, "192.168.0.0/16", "1 5"),
  };
  const std::vector<BgpUpdate> updates = ResyncHeavyFeed();
  const ChurnAnalyzer direct = AnalyzeChurn(initial_rib, updates);
  for (std::size_t threads : {1u, 4u}) {
    for (std::size_t batch : {1u, 5u, 4096u}) {
      auto table = std::make_shared<feed::AsPathTable>();
      const ChurnAnalyzer streamed = AnalyzeChurnStream(
          feed::FromVector(table, initial_rib, batch),
          feed::FromVector(table, updates, batch), {}, threads);
      EXPECT_EQ(Rows(streamed), Rows(direct))
          << "threads " << threads << ", batch " << batch;
      EXPECT_EQ(streamed.DroppedOutOfOrder(), direct.DroppedOutOfOrder());
    }
  }
}

TEST(Feed, MonitorConsumeStreamMatchesConsumeLoop) {
  const std::vector<BgpUpdate> initial_rib = {
      Announce(0, 0, "10.0.0.0/8", "1 2 3"),
  };
  const std::vector<BgpUpdate> updates = {
      Announce(10, 0, "10.0.0.0/8", "1 2 3"),    // benign
      Announce(20, 0, "10.0.0.0/8", "1 2 666"),  // origin change
      Announce(30, 0, "10.0.0.0/9", "1 2 3"),    // more-specific
      Announce(40, 0, "10.0.0.0/8", "1 9 3"),    // new upstream
  };
  const std::unordered_set<Prefix> monitored = {Prefix::MustParse("10.0.0.0/8")};

  core::RelayMonitor materialized(monitored);
  materialized.LearnBaseline(initial_rib);
  std::size_t direct_raised = 0;
  for (const BgpUpdate& u : updates) direct_raised += materialized.Consume(u).size();

  core::RelayMonitor streamed(monitored);
  auto table = std::make_shared<feed::AsPathTable>();
  feed::UpdateStream rib_stream = feed::FromVector(table, initial_rib, 1);
  streamed.LearnBaselineStream(rib_stream);
  feed::UpdateStream update_stream = feed::FromVector(table, updates, 2);
  const std::size_t stream_raised = streamed.ConsumeStream(update_stream);

  EXPECT_GT(direct_raised, 0u);
  EXPECT_EQ(stream_raised, direct_raised);
  EXPECT_EQ(streamed.alerts(), materialized.alerts());
  EXPECT_EQ(streamed.SuppressedDuplicates(), materialized.SuppressedDuplicates());
}

TEST(AsPathTable, ReservePreSizesTheIndex) {
  feed::AsPathTable table;
  table.Reserve(10000);
  // A size hint makes room up front; interning under the hint must not
  // perturb dedup, and a smaller later hint must be a no-op.
  const feed::PathId a = table.Intern(AsPath{1, 2, 3});
  table.Reserve(1);
  EXPECT_EQ(table.Intern(AsPath{1, 2, 3}), a);
}

TEST(AsPathTable, ApproxBytesGrowsWithInternedPathsAndFeedsTheGauge) {
  feed::AsPathTable table;
  EXPECT_EQ(table.ApproxBytes(), 0u);
  (void)table.Intern(AsPath{701, 3356, 24940});
  const std::size_t one = table.ApproxBytes();
  EXPECT_GT(one, 0u);
  (void)table.Intern(AsPath{701, 3356, 24940});  // hit: no growth
  EXPECT_EQ(table.ApproxBytes(), one);
  (void)table.Intern(AsPath{7018, 701, 3356, 1299, 24940});
  EXPECT_GT(table.ApproxBytes(), one);
  // The last miss published this table's footprint to the gauge.
  EXPECT_EQ(static_cast<std::size_t>(obs::MetricsRegistry::Global()
                                         .GetGauge("feed.intern.bytes")
                                         .value()),
            table.ApproxBytes());
}

}  // namespace
}  // namespace quicksand::bgp
