#include "bgp/session_reset.hpp"

#include <gtest/gtest.h>

#include <vector>

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

std::vector<BgpUpdate> SmallRib(SessionId s) {
  return {
      Announce(0, s, "10.0.0.0/8", "1 2 3"),
      Announce(0, s, "11.0.0.0/8", "1 2 4"),
      Announce(0, s, "12.0.0.0/8", "1 5"),
  };
}

/// FilterSessionRecords output, materialized back for comparison.
struct Filtered {
  std::vector<BgpUpdate> updates;
  ResetFilterStats stats;
};

/// Interns `rib` and `updates` into one table and filters the records.
Filtered Filter(const std::vector<BgpUpdate>& rib, const std::vector<BgpUpdate>& updates,
                const ResetFilterParams& params = {}) {
  test_support::RecordBuilder records;
  const std::vector<feed::UpdateRec> rib_records = records.Recs(rib);
  const FilteredRecords result =
      FilterSessionRecords(rib_records, records.Recs(updates), params);
  return {records.Updates(result.updates), result.stats};
}

TEST(SessionResetFilter, PassesRealChangesThrough) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 9 3"),   // real path change
      Withdraw(200, 0, "11.0.0.0/8"),            // real withdraw
      Announce(300, 0, "11.0.0.0/8", "1 2 4"),   // real re-announce
  };
  const auto result = Filter(rib, updates);
  EXPECT_EQ(result.updates, updates);
  EXPECT_EQ(result.stats.duplicates_removed, 0u);
  EXPECT_EQ(result.stats.burst_updates_removed, 0u);
}

TEST(SessionResetFilter, DropsDuplicateAnnouncements) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 2 3"),  // duplicate of RIB state
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),  // real change
      Announce(300, 0, "10.0.0.0/8", "1 9 3"),  // duplicate of new state
  };
  const auto result = Filter(rib, updates);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].time.seconds, 200);
  EXPECT_EQ(result.stats.duplicates_removed, 2u);
}

TEST(SessionResetFilter, DropsWithdrawalsOfUnknownPrefixes) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {Withdraw(50, 0, "99.0.0.0/8")};
  const auto result = Filter(rib, updates);
  EXPECT_TRUE(result.updates.empty());
  EXPECT_EQ(result.stats.duplicates_removed, 1u);
}

TEST(SessionResetFilter, CollapsesTableTransferBurst) {
  // Session 0 knows 3 prefixes; a burst re-announces all of them (with a
  // transient backup-path flap on one) within seconds — a table transfer.
  const auto rib = SmallRib(0);
  ResetFilterParams params;
  params.min_burst_updates = 4;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1001, 0, "11.0.0.0/8", "1 7 4"),  // transient backup
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
      Announce(1003, 0, "11.0.0.0/8", "1 2 4"),  // settles back
  };
  const auto result = Filter(rib, updates, params);
  EXPECT_TRUE(result.updates.empty());
  EXPECT_EQ(result.stats.burst_updates_removed, 4u);
  EXPECT_GE(result.stats.bursts_detected, 1u);
}

TEST(SessionResetFilter, BurstWithNetChangeKeepsFinalUpdate) {
  const auto rib = SmallRib(0);
  ResetFilterParams params;
  params.min_burst_updates = 4;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1001, 0, "11.0.0.0/8", "1 2 4"),
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
      Announce(1003, 0, "10.0.0.0/8", "1 9 3"),  // genuine new path survives
  };
  const auto result = Filter(rib, updates, params);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].path, AsPath::MustParse("1 9 3"));
  EXPECT_EQ(result.stats.burst_updates_removed, 3u);
}

TEST(SessionResetFilter, SessionsAreIndependent) {
  // A burst on session 0 must not swallow session 1's updates.
  auto rib = SmallRib(0);
  const auto rib1 = SmallRib(1);
  rib.insert(rib.end(), rib1.begin(), rib1.end());
  ResetFilterParams params;
  params.min_burst_updates = 3;
  params.burst_table_fraction = 0.5;
  std::vector<BgpUpdate> updates = {
      Announce(1000, 0, "10.0.0.0/8", "1 2 3"),
      Announce(1000, 1, "10.0.0.0/8", "1 9 3"),  // real change on session 1
      Announce(1001, 0, "11.0.0.0/8", "1 2 4"),
      Announce(1002, 0, "12.0.0.0/8", "1 5"),
  };
  const auto result = Filter(rib, updates, params);
  ASSERT_EQ(result.updates.size(), 1u);
  EXPECT_EQ(result.updates[0].session, 1u);
}

TEST(SessionResetFilter, ThrowsOnUnorderedInput) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),
      Announce(100, 0, "11.0.0.0/8", "1 9 4"),
  };
  EXPECT_THROW((void)Filter(rib, updates), std::invalid_argument);
}

TEST(SessionResetFilter, StatsAreConsistent) {
  const auto rib = SmallRib(0);
  const std::vector<BgpUpdate> updates = {
      Announce(100, 0, "10.0.0.0/8", "1 2 3"),   // dup
      Announce(200, 0, "10.0.0.0/8", "1 9 3"),   // change
  };
  const auto result = Filter(rib, updates);
  EXPECT_EQ(result.stats.input_updates, 2u);
  EXPECT_EQ(result.stats.output_updates, 1u);
  EXPECT_EQ(result.stats.input_updates,
            result.stats.output_updates + result.stats.duplicates_removed +
                result.stats.burst_updates_removed);
}

}  // namespace
}  // namespace quicksand::bgp
