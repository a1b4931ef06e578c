#include "tor/as_aware_selection.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace quicksand::tor {
namespace {

TEST(AsAwareConstraint, AllowsDisjointSegments) {
  SegmentAsSets guard_side = {{0, {100, 200}}, {1, {100, 300}}};
  SegmentAsSets exit_side = {{5, {400, 500}}, {6, {300, 600}}};
  const AsAwareConstraint constraint(guard_side, exit_side);
  EXPECT_TRUE(constraint.AllowExitWithGuard(5, 0));   // {400,500} vs {100,200}
  EXPECT_TRUE(constraint.AllowExitWithGuard(5, 1));
  EXPECT_TRUE(constraint.AllowExitWithGuard(6, 0));
  EXPECT_FALSE(constraint.AllowExitWithGuard(6, 1));  // AS 300 on both ends
}

TEST(AsAwareConstraint, StrictModeFailsClosedOnUnknownRelays) {
  const AsAwareConstraint strict({{0, {1}}}, {{5, {2}}}, /*strict=*/true);
  EXPECT_TRUE(strict.AllowGuard(0));
  EXPECT_FALSE(strict.AllowGuard(99));
  EXPECT_FALSE(strict.AllowExitWithGuard(99, 0));
  EXPECT_FALSE(strict.AllowExitWithGuard(5, 99));

  const AsAwareConstraint lax({{0, {1}}}, {{5, {2}}}, /*strict=*/false);
  EXPECT_TRUE(lax.AllowGuard(99));
  EXPECT_TRUE(lax.AllowExitWithGuard(99, 0));
}

TEST(AsAwareConstraint, UnsortedInputIsHandled) {
  SegmentAsSets guard_side = {{0, {900, 100, 500}}};
  SegmentAsSets exit_side = {{5, {700, 500, 42}}};
  const AsAwareConstraint constraint(guard_side, exit_side);
  EXPECT_FALSE(constraint.AllowExitWithGuard(5, 0));  // 500 shared
}

TEST(AsAwareConstraint, DynamicsAwareSetsCatchMoreThanSnapshots) {
  // Snapshot: disjoint. Over the month AS 77 shows up on both segments.
  SegmentAsSets snapshot_guard = {{0, {100}}};
  SegmentAsSets snapshot_exit = {{5, {200}}};
  SegmentAsSets monthly_guard = {{0, {100, 77}}};
  SegmentAsSets monthly_exit = {{5, {200, 77}}};
  const AsAwareConstraint static_defense(snapshot_guard, snapshot_exit);
  const AsAwareConstraint dynamic_defense(monthly_guard, monthly_exit);
  EXPECT_TRUE(static_defense.AllowExitWithGuard(5, 0));    // misses the risk
  EXPECT_FALSE(dynamic_defense.AllowExitWithGuard(5, 0));  // catches it
}

TEST(ShortAsPathGuardWeights, WeightsScaleWithInverseLength) {
  std::vector<Relay> relays(3);
  for (auto& r : relays) r.flags = RelayFlag::kGuard | RelayFlag::kRunning;
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  const std::unordered_map<std::size_t, int> lengths = {{0, 2}, {1, 4}};
  const auto weights = ShortAsPathGuardWeights(consensus, lengths, 1.0);
  ASSERT_EQ(weights.size(), 3u);
  EXPECT_DOUBLE_EQ(weights[0], 0.5);
  EXPECT_DOUBLE_EQ(weights[1], 0.25);
  EXPECT_DOUBLE_EQ(weights[2], 0.25);  // unknown gets the worst length
}

TEST(ShortAsPathGuardWeights, GammaZeroDisables) {
  std::vector<Relay> relays(2);
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  const auto weights = ShortAsPathGuardWeights(consensus, {{0, 2}}, 0.0);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
  EXPECT_DOUBLE_EQ(weights[1], 1.0);
}

TEST(ShortAsPathGuardWeights, HigherGammaConcentratesMore) {
  std::vector<Relay> relays(2);
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  const std::unordered_map<std::size_t, int> lengths = {{0, 2}, {1, 6}};
  const auto soft = ShortAsPathGuardWeights(consensus, lengths, 1.0);
  const auto hard = ShortAsPathGuardWeights(consensus, lengths, 3.0);
  EXPECT_GT(soft[1] / soft[0], hard[1] / hard[0]);
}

TEST(ShortAsPathGuardWeights, NegativeGammaRejected) {
  const Consensus consensus(netbase::SimTime{0}, {});
  EXPECT_THROW((void)ShortAsPathGuardWeights(consensus, {}, -1.0),
               std::invalid_argument);
}

TEST(ShortAsPathGuardWeights, NonFiniteGammaRejected) {
  // NaN passes a bare `gamma < 0` test and would yield NaN multipliers.
  const Consensus consensus(netbase::SimTime{0}, {});
  EXPECT_THROW((void)ShortAsPathGuardWeights(
                   consensus, {}, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW((void)ShortAsPathGuardWeights(
                   consensus, {}, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(ShortAsPathGuardWeights, ZeroLengthClampedToOne) {
  std::vector<Relay> relays(1);
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  const auto weights = ShortAsPathGuardWeights(consensus, {{0, 0}}, 2.0);
  EXPECT_DOUBLE_EQ(weights[0], 1.0);
}

}  // namespace
}  // namespace quicksand::tor
