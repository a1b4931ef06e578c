#include "tor/path_selection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>

namespace quicksand::tor {
namespace {

using netbase::Ipv4Address;
using netbase::Rng;

/// Hand-built consensus: addresses chosen so the /16 rule is exercised.
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
  // Exit sharing g1's /16: must never appear with g1 on one circuit.
  add("e3", Ipv4Address(10, 1, 99, 1), 5000, static_cast<RelayFlags>(RelayFlag::kExit));
  add("m1", Ipv4Address(30, 1, 0, 1), 2000, 0);
  add("m2", Ipv4Address(30, 2, 0, 1), 2000, 0);
  add("down", Ipv4Address(40, 1, 0, 1), 9000,
      static_cast<RelayFlags>(RelayFlag::kGuard));
  relays.back().flags = static_cast<RelayFlags>(RelayFlag::kGuard);  // not Running
  return Consensus(netbase::SimTime{0}, std::move(relays));
}

TEST(PathSelector, CandidateSetsRespectFlagsAndRunning) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  EXPECT_EQ(selector.GuardCandidates().size(), 4u);  // "down" excluded
  EXPECT_EQ(selector.ExitCandidates().size(), 3u);
}

TEST(PathSelector, GuardSetHasRequestedSizeAndDistinctMembers) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 3;
  const PathSelector selector(consensus, config);
  Rng rng(1);
  const auto guards = selector.PickGuardSet(rng);
  EXPECT_EQ(guards.size(), 3u);
  EXPECT_NE(guards[0], guards[1]);
  EXPECT_NE(guards[1], guards[2]);
  EXPECT_NE(guards[0], guards[2]);
  for (std::size_t g : guards) {
    EXPECT_TRUE(consensus.relays()[g].IsGuard());
  }
}

TEST(PathSelector, GuardSelectionIsBandwidthWeighted) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  Rng rng(2);
  std::map<std::size_t, int> counts;
  const int trials = 4000;
  for (int i = 0; i < trials; ++i) ++counts[selector.PickGuardSet(rng)[0]];
  // g1 has 4000 of 8000 guard bandwidth -> ~50%.
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, 0.5, 0.04);
  EXPECT_NEAR(static_cast<double>(counts[1]) / trials, 0.125, 0.03);
}

TEST(PathSelector, WeightMultipliersSkewGuardChoice) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.guard_set_size = 1;
  const PathSelector selector(consensus, config);
  std::vector<double> multipliers(consensus.size(), 0.0);
  multipliers[2] = 1.0;  // only g3 has weight
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(selector.PickGuardSet(rng, multipliers)[0], 2u);
  }
}

TEST(PathSelector, CircuitSatisfiesAllInvariants) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(4);
  const auto guards = selector.PickGuardSet(rng);
  for (int i = 0; i < 200; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng);
    EXPECT_NO_THROW(ValidateCircuit(circuit, consensus));
    // Guard came from the set.
    EXPECT_NE(std::find(guards.begin(), guards.end(), circuit.guard), guards.end());
    // The /16 rule.
    const auto& relays = consensus.relays();
    EXPECT_NE(relays[circuit.guard].address.value() >> 16,
              relays[circuit.exit].address.value() >> 16);
    EXPECT_NE(relays[circuit.guard].address.value() >> 16,
              relays[circuit.middle].address.value() >> 16);
    EXPECT_NE(relays[circuit.middle].address.value() >> 16,
              relays[circuit.exit].address.value() >> 16);
  }
}

TEST(PathSelector, Slash16RuleCanBeDisabled) {
  const Consensus consensus = TestConsensus();
  PathSelectionConfig config;
  config.enforce_distinct_slash16 = false;
  const PathSelector selector(consensus, config);
  Rng rng(5);
  // g1 and e3 share a /16; with the rule off they may co-occur.
  const std::vector<std::size_t> guards = {0};
  bool shared_slash16_seen = false;
  for (int i = 0; i < 300 && !shared_slash16_seen; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng);
    shared_slash16_seen = circuit.exit == 6;  // e3
  }
  EXPECT_TRUE(shared_slash16_seen);
}

TEST(PathSelector, ConstraintVetoesGuardsAndPairs) {
  class VetoExit3 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index, std::size_t) const override {
      return exit_index != 4;  // never e1
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const VetoExit3 constraint;
  Rng rng(6);
  const auto guards = selector.PickGuardSet(rng);
  for (int i = 0; i < 100; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng, &constraint);
    EXPECT_NE(circuit.exit, 4u);
  }
}

/// The constraint judges a drawn (guard, exit) pair; it does not condition
/// the exit draw. Guard set {g1, g2}; g1 is allowed only with e2 (1000 of
/// the 4000 exit bandwidth g1 can use: e3 shares g1's /16), g2 with any
/// exit. Each attempt picks either guard with probability 1/2 and a
/// rejection restarts it, so g1 carries 0.5 * 0.25 / (0.5 * 0.25 + 0.5) =
/// 0.2 of the circuits. Conditioning the exit draw on the constraint would
/// give g1 one half.
TEST(PathSelector, ConstraintRejectsDrawnPairsAndRedraws) {
  class G1OnlyWithE2 final : public CircuitConstraint {
   public:
    bool AllowExitWithGuard(std::size_t exit_index,
                            std::size_t guard_index) const override {
      return guard_index != 0 || exit_index == 5;
    }
  };
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  const G1OnlyWithE2 constraint;
  const std::vector<std::size_t> guards = {0, 1};
  Rng rng(20140702);
  const int trials = 4000;
  int with_g1 = 0;
  for (int i = 0; i < trials; ++i) {
    const Circuit circuit = selector.BuildCircuit(guards, rng, &constraint);
    if (circuit.guard == 0) {
      ++with_g1;
      EXPECT_EQ(circuit.exit, 5u);
    }
  }
  // Binomial(4000, 0.2): sd 25.3; 4.5 sd either side.
  const double expected = trials * 0.2;
  const double sd = std::sqrt(trials * 0.2 * 0.8);
  EXPECT_NEAR(with_g1, expected, 4.5 * sd);
}

TEST(PathSelector, RejectsNegativeOrNonFiniteMultipliers) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(9);
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::vector<double> multipliers(consensus.size(), 1.0);
    multipliers[1] = bad;
    EXPECT_THROW((void)selector.PickGuardSet(rng, multipliers), std::invalid_argument)
        << bad;
  }
  const std::vector<double> misaligned(consensus.size() - 1, 1.0);
  EXPECT_THROW((void)selector.PickGuardSet(rng, misaligned), std::invalid_argument);
}

TEST(PathSelector, ZeroWeightGuardsAreExhaustedNotInvalid) {
  // No guard keeps a positive weight: the same runtime_error as too few
  // guards, which callers catch as "this policy found no guard set".
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(10);
  const std::vector<double> zeros(consensus.size(), 0.0);
  EXPECT_THROW((void)selector.PickGuardSet(rng, zeros), std::runtime_error);
  // One positive-weight guard cannot fill a three-guard set.
  std::vector<double> one(consensus.size(), 0.0);
  one[3] = 1.0;
  EXPECT_THROW((void)selector.PickGuardSet(rng, one), std::runtime_error);
}

TEST(PathSelector, SelectionProbabilities) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(0), 0.5);
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(4), 0.0);  // not a guard
  EXPECT_DOUBLE_EQ(selector.GuardSelectionProbability(9), 0.0);  // not running
  EXPECT_DOUBLE_EQ(selector.ExitSelectionProbability(6), 5000.0 / 9000.0);
  EXPECT_DOUBLE_EQ(selector.ExitSelectionProbability(999), 0.0);
}

TEST(PathSelector, ThrowsWhenGuardPoolTooSmall) {
  std::vector<Relay> relays = {
      {"g1", Ipv4Address(1, 0, 0, 1), 9001, 100, RelayFlag::kGuard | RelayFlag::kRunning},
  };
  const Consensus consensus(netbase::SimTime{0}, std::move(relays));
  PathSelectionConfig config;
  config.guard_set_size = 3;
  const PathSelector selector(consensus, config);
  Rng rng(7);
  EXPECT_THROW((void)selector.PickGuardSet(rng), std::runtime_error);
}

TEST(PathSelector, BuildCircuitRejectsEmptyGuardSet) {
  const Consensus consensus = TestConsensus();
  const PathSelector selector(consensus);
  Rng rng(8);
  EXPECT_THROW((void)selector.BuildCircuit({}, rng), std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::tor
