#include "core/longterm.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "bgp/topology_gen.hpp"
#include "support/scan_reference.hpp"
#include "tor/consensus_gen.hpp"

namespace quicksand::core {
namespace {

const tor::Consensus& TestConsensus() {
  static const tor::Consensus consensus = [] {
    bgp::TopologyParams tp;
    tp.tier1_count = 4;
    tp.transit_count = 16;
    tp.eyeball_count = 24;
    tp.hosting_count = 10;
    tp.content_count = 16;
    tp.seed = 61;
    const bgp::Topology topo = bgp::GenerateTopology(tp);
    tor::ConsensusGenParams gp;
    gp.total_relays = 600;
    gp.guard_only = 200;
    gp.exit_only = 60;
    gp.guard_exit = 60;
    gp.seed = 62;
    return tor::GenerateConsensus(topo, gp).consensus;
  }();
  return consensus;
}

LongTermParams FastParams() {
  LongTermParams params;
  params.clients = 150;
  params.instances = 120;
  params.malicious_bandwidth_fraction = 0.15;
  params.seed = 7;
  return params;
}

TEST(LongTerm, CumulativeCurveIsMonotoneWithinBounds) {
  const LongTermResult result = SimulateLongTermExposure(TestConsensus(), FastParams());
  ASSERT_EQ(result.cumulative_compromised.size(), 120u);
  double previous = 0;
  for (double fraction : result.cumulative_compromised) {
    EXPECT_GE(fraction, previous);
    EXPECT_GE(fraction, 0.0);
    EXPECT_LE(fraction, 1.0);
    previous = fraction;
  }
  EXPECT_DOUBLE_EQ(result.final_fraction, result.cumulative_compromised.back());
}

TEST(LongTerm, AdversaryOwnsRequestedShare) {
  const LongTermResult result = SimulateLongTermExposure(TestConsensus(), FastParams());
  EXPECT_GT(result.malicious_relays, 0u);
  EXPECT_GT(result.malicious_guards, 0u);
  EXPECT_GT(result.malicious_exits, 0u);
  EXPECT_LT(result.malicious_relays, TestConsensus().size());
}

TEST(LongTerm, NoAdversaryNoCompromise) {
  LongTermParams params = FastParams();
  params.malicious_bandwidth_fraction = 0;
  const LongTermResult result = SimulateLongTermExposure(TestConsensus(), params);
  EXPECT_DOUBLE_EQ(result.final_fraction, 0.0);
  EXPECT_EQ(result.malicious_relays, 0u);
}

TEST(LongTerm, GuardsSlowLongTermCompromise) {
  // The Section 2 claim: without guard persistence, compromise approaches
  // 1 over time; persistent guards pin most clients to honest entries.
  LongTermParams no_guards = FastParams();
  no_guards.guard_set_size = 0;
  no_guards.instances = 240;
  LongTermParams with_guards = FastParams();
  with_guards.guard_set_size = 3;
  with_guards.instances = 240;
  // Guards never rotate within the horizon ("one fast guard for life").
  with_guards.guard_lifetime_s = 400 * netbase::duration::kDay;

  const auto without = SimulateLongTermExposure(TestConsensus(), no_guards);
  const auto with = SimulateLongTermExposure(TestConsensus(), with_guards);
  EXPECT_GT(without.final_fraction, with.final_fraction);
  EXPECT_GT(without.final_fraction, 0.5);  // approaches 1 over time
}

TEST(LongTerm, ShorterGuardLifetimeHurts) {
  LongTermParams slow = FastParams();
  slow.instances = 240;
  slow.guard_lifetime_s = 400 * netbase::duration::kDay;
  LongTermParams fast = slow;
  fast.guard_lifetime_s = 10 * netbase::duration::kDay;
  const auto rarely = SimulateLongTermExposure(TestConsensus(), slow);
  const auto often = SimulateLongTermExposure(TestConsensus(), fast);
  EXPECT_GE(often.final_fraction, rarely.final_fraction);
}

TEST(LongTerm, DeterministicForSeed) {
  const auto a = SimulateLongTermExposure(TestConsensus(), FastParams());
  const auto b = SimulateLongTermExposure(TestConsensus(), FastParams());
  EXPECT_EQ(a.cumulative_compromised, b.cumulative_compromised);
}

/// SimulateLongTermExposure (population engine, alias draws) against the
/// scan-based client-by-client loop it replaced
/// (tests/support/scan_reference.hpp). Both mark the same adversary from
/// Rng(seed) and then draw their clients independently, so at every
/// instance the two cumulative fractions estimate one probability: they
/// must agree within a two-proportion binomial bound (4 standard errors
/// plus a 1/n continuity term), for each Section 2 guard policy. The
/// no-guard policy carries a 30-day lifetime that must not matter.
TEST(LongTerm, AgreesWithScanOracleForEveryGuardPolicy) {
  struct Policy {
    std::size_t guards;
    std::int64_t lifetime_days;
  };
  const Policy policies[] = {{0, 30}, {1, 4000}, {3, 30}, {3, 270}, {9, 30}};
  for (const Policy& policy : policies) {
    LongTermParams params = FastParams();
    params.clients = 1000;
    params.guard_set_size = policy.guards;
    params.guard_lifetime_s = policy.lifetime_days * netbase::duration::kDay;
    const std::vector<double> oracle = scan_reference::ScanLongTermCurve(TestConsensus(), params);
    const LongTermResult result = SimulateLongTermExposure(TestConsensus(), params);
    ASSERT_EQ(result.cumulative_compromised.size(), oracle.size());
    const double n = static_cast<double>(params.clients);
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      const double a = oracle[i], b = result.cumulative_compromised[i];
      const double pooled = (a + b) / 2;
      const double se = std::sqrt(pooled * (1 - pooled) * 2 / n);
      ASSERT_LE(std::abs(a - b), 4 * se + 1 / n)
          << policy.guards << " guards, " << policy.lifetime_days << "-day lifetime, instance "
          << i << ": scan " << a << " vs alias " << b;
    }
    EXPECT_GT(oracle.back(), 0.0);
  }
}

TEST(LongTerm, InputValidation) {
  LongTermParams params = FastParams();
  params.clients = 0;
  EXPECT_THROW((void)SimulateLongTermExposure(TestConsensus(), params),
               std::invalid_argument);
  params = FastParams();
  params.malicious_bandwidth_fraction = 1.5;
  EXPECT_THROW((void)SimulateLongTermExposure(TestConsensus(), params),
               std::invalid_argument);
}

}  // namespace
}  // namespace quicksand::core
