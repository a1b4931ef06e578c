#include "tor/population.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "support/scan_reference.hpp"
#include "tor/path_selection.hpp"

namespace quicksand::tor {
namespace {

using netbase::Ipv4Address;
using netbase::Rng;

/// Same shape as the path-selection test consensus: four guards with known
/// bandwidths, an exit sharing g1's /16, and one non-Running guard.
Consensus TestConsensus() {
  std::vector<Relay> relays;
  auto add = [&](const char* nick, Ipv4Address addr, std::uint32_t bw, RelayFlags flags) {
    relays.push_back({nick, addr, 9001, bw, flags | RelayFlag::kRunning});
  };
  add("g1", Ipv4Address(10, 1, 0, 1), 4000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g2", Ipv4Address(10, 2, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g3", Ipv4Address(10, 3, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("g4", Ipv4Address(10, 4, 0, 1), 2000, static_cast<RelayFlags>(RelayFlag::kGuard));
  add("e1", Ipv4Address(20, 1, 0, 1), 3000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("e2", Ipv4Address(20, 2, 0, 1), 1000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("e3", Ipv4Address(10, 1, 99, 1), 5000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("m1", Ipv4Address(30, 1, 0, 1), 2000, 0);
  add("m2", Ipv4Address(30, 2, 0, 1), 2000, 0);
  add("down", Ipv4Address(40, 1, 0, 1), 9000,
      static_cast<RelayFlags>(RelayFlag::kGuard));
  relays.back().flags = static_cast<RelayFlags>(RelayFlag::kGuard);  // not Running
  return Consensus(netbase::SimTime{0}, std::move(relays));
}

TEST(AliasTable, ProbabilitiesMatchWeights) {
  const std::vector<std::size_t> candidates = {3, 7, 11};
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  const AliasTable table = AliasTable::Build(candidates, weights);
  ASSERT_EQ(table.size(), 3u);
  EXPECT_DOUBLE_EQ(table.Probability(0), 0.1);
  EXPECT_DOUBLE_EQ(table.Probability(1), 0.3);
  EXPECT_DOUBLE_EQ(table.Probability(2), 0.6);
}

TEST(AliasTable, RejectsBadInput) {
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1}, std::vector<double>{-1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  // NaN and infinite weights, and finite weights whose sum overflows.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double big = std::numeric_limits<double>::max();
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{1.0, nan}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{inf, 1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)AliasTable::Build({1, 2}, std::vector<double>{big, big}),
               std::invalid_argument);
  const AliasTable empty;
  Rng rng(1);
  EXPECT_THROW((void)empty.SampleSlot(rng), std::logic_error);
}

/// Chi-squared goodness of fit of the alias guard draw against the exact
/// bandwidth-proportional distribution the legacy cumulative scan draws
/// from: g1..g4 carry 4000/1000/1000/2000 of 8000 guard bandwidth.
TEST(AliasTable, GuardDrawMatchesScanDistributionChiSquared) {
  const Consensus consensus = TestConsensus();
  const SelectionCore core(consensus, {});
  const AliasTable& table = core.guard_table();
  ASSERT_EQ(table.size(), 4u);

  const int trials = 40000;
  Rng rng(20140809);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const auto pick = core.AliasPick(table, rng, {});
    ASSERT_TRUE(pick.has_value());
    ++counts[*pick];
  }

  const double expected[] = {trials * 0.5, trials * 0.125, trials * 0.125,
                             trials * 0.25};
  double chi2 = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    const double diff = counts[g] - expected[g];
    chi2 += diff * diff / expected[g];
  }
  // 3 degrees of freedom; 16.27 is the p = 0.001 critical value.
  EXPECT_LT(chi2, 16.27);
}

/// The alias sampler against the reference cumulative scan
/// (tests/support/scan_reference.hpp): both must draw from the same
/// distribution.
TEST(SelectionCore, ScanAndAliasAgreeChiSquared) {
  const Consensus consensus = TestConsensus();
  const SelectionCore core(consensus, {});
  const int trials = 40000;

  Rng scan_rng(7);
  std::vector<int> scan_counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const auto pick = scan_reference::ScanPick(core, core.guards(), scan_rng, {});
    ASSERT_TRUE(pick.has_value());
    ++scan_counts[*pick];
  }
  Rng alias_rng(8);
  std::vector<int> alias_counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const auto pick = core.AliasPick(core.guard_table(), alias_rng, {});
    ASSERT_TRUE(pick.has_value());
    ++alias_counts[*pick];
  }

  // Two-sample chi-squared over the four guard categories (df = 3).
  double chi2 = 0;
  for (std::size_t g = 0; g < 4; ++g) {
    const double pooled = (scan_counts[g] + alias_counts[g]) / 2.0;
    ASSERT_GT(pooled, 0);
    const double ds = scan_counts[g] - pooled;
    const double da = alias_counts[g] - pooled;
    chi2 += ds * ds / pooled + da * da / pooled;
  }
  EXPECT_LT(chi2, 16.27);
}

/// Rejection against an excluded candidate renormalizes exactly: the
/// conditional distribution over the survivors matches their relative
/// bandwidths.
TEST(SelectionCore, AliasPickExclusionRenormalizes) {
  const Consensus consensus = TestConsensus();
  const SelectionCore core(consensus, {});
  const std::vector<std::size_t> exclude = {0};  // g1, half the mass

  const int trials = 30000;
  Rng rng(9);
  std::vector<int> counts(consensus.size(), 0);
  for (int i = 0; i < trials; ++i) {
    const auto pick = core.AliasPick(core.guard_table(), rng, exclude);
    ASSERT_TRUE(pick.has_value());
    ASSERT_NE(*pick, 0u);
    ++counts[*pick];
  }
  // Survivors g2/g3/g4 carry 1000/1000/2000 of 4000.
  const double expected[] = {trials * 0.25, trials * 0.25, trials * 0.5};
  double chi2 = 0;
  for (std::size_t g = 1; g < 4; ++g) {
    const double diff = counts[g] - expected[g - 1];
    chi2 += diff * diff / expected[g - 1];
  }
  EXPECT_LT(chi2, 13.82);  // df = 2, p = 0.001
}

TEST(SelectionCore, AliasPickReturnsNulloptWhenNothingQualifies) {
  const Consensus consensus = TestConsensus();
  const SelectionCore core(consensus, {});
  Rng rng(10);
  const auto pick = core.AliasPick(core.guard_table(), rng, {},
                                   [](std::size_t) { return false; });
  EXPECT_FALSE(pick.has_value());
}

/// PathSelector and ClientPopulation call the same SelectionCore draws, so
/// one client driven through PathSelector and a one-client population on
/// the same substream yield identical guard sets, circuits, and rotation
/// counts day by day.
TEST(ClientPopulation, ScalarAdapterEquivalenceForOneClient) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const std::int64_t lifetime = 10 * netbase::duration::kDay;

  const Rng substream(20140809);
  Rng scalar_rng = substream;
  std::vector<std::size_t> guards = selector.PickGuardSet(scalar_rng);
  std::int64_t guards_since = 0;
  std::uint64_t scalar_rotations = 0;
  ClientPopulation population(selector, PopulationConfig{lifetime}, {0},
                              {substream});

  EXPECT_EQ(guards, population.GuardSetOf(0));
  std::vector<Circuit> batch(1);
  for (int day = 0; day < 40; ++day) {
    const netbase::SimTime now{day * netbase::duration::kDay};
    if (now.seconds - guards_since >= lifetime) {
      guards = selector.PickGuardSet(scalar_rng);
      guards_since = now.seconds;
      ++scalar_rotations;
    }
    const Circuit scalar = selector.BuildCircuit(guards, scalar_rng);
    population.RotateExpired(now);
    population.BuildCircuits(batch);
    ASSERT_EQ(scalar, batch[0]) << "day " << day;
    ASSERT_EQ(guards, population.GuardSetOf(0)) << "day " << day;
  }
  EXPECT_EQ(scalar_rotations, population.rotations());
  EXPECT_GT(population.rotations(), 0u);  // 40 days, 10-day lifetime
}

/// ForShard re-derives the serial fork sequence, so any shard split of the
/// same population produces the same per-client trajectories.
TEST(ClientPopulation, ShardSplitInvariance) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const PopulationConfig config{5 * netbase::duration::kDay};
  const std::uint64_t seed = 77;

  std::vector<std::uint32_t> as_ids(10);
  for (std::size_t i = 0; i < as_ids.size(); ++i) {
    as_ids[i] = static_cast<std::uint32_t>(i % 3);
  }
  const std::span<const std::uint32_t> ids(as_ids);
  ClientPopulation whole = ClientPopulation::ForShard(selector, config, ids, seed, 0);
  ClientPopulation lo =
      ClientPopulation::ForShard(selector, config, ids.subspan(0, 4), seed, 0);
  ClientPopulation hi =
      ClientPopulation::ForShard(selector, config, ids.subspan(4), seed, 4);

  std::vector<Circuit> whole_out(10), lo_out(4), hi_out(6);
  for (int day = 0; day < 12; ++day) {
    const netbase::SimTime now{day * netbase::duration::kDay};
    whole.RotateExpired(now);
    lo.RotateExpired(now);
    hi.RotateExpired(now);
    whole.BuildCircuits(whole_out);
    lo.BuildCircuits(lo_out);
    hi.BuildCircuits(hi_out);
    for (std::size_t c = 0; c < 10; ++c) {
      const Circuit& split = c < 4 ? lo_out[c] : hi_out[c - 4];
      ASSERT_EQ(whole_out[c], split) << "day " << day << " client " << c;
    }
  }
  EXPECT_EQ(whole.rotations(), lo.rotations() + hi.rotations());
  EXPECT_EQ(whole.circuits_built(), lo.circuits_built() + hi.circuits_built());
}

TEST(ClientPopulation, RotationSweepHonorsLifetime) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const std::int64_t lifetime = 3 * netbase::duration::kDay;
  ClientPopulation population = ClientPopulation::ForShard(
      selector, PopulationConfig{lifetime}, std::vector<std::uint32_t>{0, 0, 0}, 5, 0);

  EXPECT_EQ(population.RotateExpired(netbase::SimTime{0}), 0u);
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime - 1}), 0u);
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime}), 3u);
  // The clock restarted at `lifetime`, so one second later nothing expires.
  EXPECT_EQ(population.RotateExpired(netbase::SimTime{lifetime + 1}), 0u);
  EXPECT_EQ(population.rotations(), 3u);
}

TEST(ClientPopulation, CircuitsSatisfyInvariantsAndConstraint) {
  class VetoE1 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index, std::size_t) const override {
      return exit_index != 4;  // never e1
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const VetoE1 constraint;
  ClientPopulation population = ClientPopulation::ForShard(
      selector, PopulationConfig{}, std::vector<std::uint32_t>{0, 1, 2, 3}, 11, 0,
      &constraint);

  std::vector<Circuit> out(4);
  for (int sweep = 0; sweep < 50; ++sweep) {
    population.BuildCircuits(out);
    for (const Circuit& circuit : out) {
      EXPECT_NO_THROW(ValidateCircuit(circuit, consensus));
      EXPECT_NE(circuit.exit, 4u);
      const auto guards = population.GuardSetOf(0);
      EXPECT_EQ(guards.size(), selector.config().guard_set_size);
    }
  }
  EXPECT_EQ(population.circuits_built(), 200u);
}

// One simulated Tor client is a one-client ClientPopulation; these pin the
// per-client guard behaviour Section 2 relies on.

Consensus ClientTestConsensus() {
  std::vector<Relay> relays;
  auto add = [&](const char* nick, std::uint8_t b, std::uint32_t bw, RelayFlags flags) {
    relays.push_back({nick, Ipv4Address(10, b, 0, 1), 9001, bw,
                      flags | RelayFlag::kRunning});
  };
  for (std::uint8_t i = 1; i <= 6; ++i) {
    add(("g" + std::to_string(i)).c_str(), i, 1000,
        static_cast<RelayFlags>(RelayFlag::kGuard));
  }
  add("e1", 50, 1000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("e2", 51, 1000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("m1", 60, 1000, 0);
  add("m2", 61, 1000, 0);
  return Consensus(netbase::SimTime{0}, std::move(relays));
}

ClientPopulation OneClient(const PathSelector& selector, std::uint32_t as_id, Rng rng,
                           std::int64_t lifetime = 30 * netbase::duration::kDay) {
  return ClientPopulation(selector, PopulationConfig{lifetime}, {as_id}, {rng});
}

TEST(TorClient, HoldsGuardSetOfConfiguredSize) {
  const Consensus consensus = ClientTestConsensus();
  const PathSelector selector(consensus);
  const ClientPopulation client = OneClient(selector, 65001, Rng(1));
  EXPECT_EQ(client.GuardSetOf(0).size(), 3u);
  EXPECT_EQ(client.client_as_ids()[0], 65001u);
  EXPECT_EQ(client.rotations(), 0u);
}

TEST(TorClient, GuardSetStableWithinLifetime) {
  const Consensus consensus = ClientTestConsensus();
  const PathSelector selector(consensus);
  ClientPopulation client = OneClient(selector, 65001, Rng(2));
  const auto guards = client.GuardSetOf(0);
  // Many connections inside the lifetime: guards unchanged.
  std::vector<Circuit> circuit(1);
  for (int day = 0; day < 29; ++day) {
    client.RotateExpired(netbase::SimTime{day * netbase::duration::kDay});
    client.BuildCircuits(circuit);
  }
  EXPECT_EQ(client.GuardSetOf(0), guards);
  EXPECT_EQ(client.rotations(), 0u);
}

TEST(TorClient, GuardSetRotatesAfterLifetime) {
  const Consensus consensus = ClientTestConsensus();
  const PathSelector selector(consensus);
  ClientPopulation client =
      OneClient(selector, 65001, Rng(3), 10 * netbase::duration::kDay);
  EXPECT_EQ(client.RotateExpired(netbase::SimTime{9 * netbase::duration::kDay}), 0u);
  EXPECT_EQ(client.RotateExpired(netbase::SimTime{10 * netbase::duration::kDay}), 1u);
  EXPECT_EQ(client.rotations(), 1u);
}

TEST(TorClient, CircuitsUseOwnGuardSet) {
  const Consensus consensus = ClientTestConsensus();
  const PathSelector selector(consensus);
  ClientPopulation client = OneClient(selector, 65001, Rng(4));
  const auto guards = client.GuardSetOf(0);
  std::vector<Circuit> circuit(1);
  for (int i = 0; i < 50; ++i) {
    client.BuildCircuits(circuit);
    EXPECT_NE(std::find(guards.begin(), guards.end(), circuit[0].guard), guards.end());
    EXPECT_NO_THROW(ValidateCircuit(circuit[0], consensus));
  }
}

TEST(TorClient, DifferentSeedsDifferentGuardSets) {
  const Consensus consensus = ClientTestConsensus();
  const PathSelector selector(consensus);
  const ClientPopulation a = OneClient(selector, 1, Rng(10));
  const ClientPopulation b = OneClient(selector, 2, Rng(20));
  // With 6 guards and 3 chosen, identical sets across seeds are unlikely;
  // this guards against accidentally shared RNG state.
  EXPECT_NE(a.GuardSetOf(0), b.GuardSetOf(0));
}

}  // namespace
}  // namespace quicksand::tor
