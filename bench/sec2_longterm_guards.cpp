// Section 2 background + Section 5 trade-off: guard relays against
// long-term compromise by malicious relays.
//
// "Without the use of guard relays, the probability of user
// deanonymization approaches 1 over time. With the use of guard relays,
// if the chosen guards are honest, then the user cannot be deanonymized
// for the lifetime of guards." The countermeasures section adds the
// tension: preferring short-AS-PATH guards (or any smaller guard pool)
// must be balanced against "the need to limit the number of guard
// relays". This bench sweeps guard-set size and guard lifetime.

#include <iostream>
#include <iterator>

#include "ckpt/sweep.hpp"
#include "common.hpp"
#include "core/longterm.hpp"
#include "core/population_exposure.hpp"
#include "core/report.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace quicksand;

  bench::BenchContext ctx(
      argc, argv, "Section 2 — guard relays vs long-term relay-level adversaries",
      "without guards P(compromise) -> 1 over time; guards pin fate to a few "
      "relays; more/faster-rotating guards weaken the defence");

  const bench::Scenario scenario =
      ctx.Timed("scenario", [] { return bench::MakePaperScenario(); });
  const tor::Consensus& consensus = scenario.consensus.consensus;

  core::LongTermParams base;
  base.clients = 600;
  base.instances = 360;  // daily connections for a year
  base.malicious_bandwidth_fraction = 0.10;
  base.seed = 20140701;
  base.threads = ctx.threads();

  // --- Guard-set size sweep (0 = no guard persistence, pre-2006 Tor).
  util::PrintBanner(std::cout, "compromised clients after one year of daily use "
                               "(10% malicious bandwidth)");
  util::Table table({"guard policy", "90 days", "180 days", "360 days"});
  util::CsvWriter csv("sec2_longterm.csv",
                      {"policy", "instance", "cumulative_compromised"});

  std::vector<std::vector<double>> curves;
  std::vector<std::string> names;
  struct PolicyCase {
    std::string name;
    std::size_t guards;
    std::int64_t lifetime_days;
  };
  const PolicyCase cases[] = {
      {"no guards (fresh entry per circuit)", 0, 0},
      {"1 guard, never rotated [13]", 1, 4000},
      {"3 guards, 30-day rotation (Tor 2014)", 3, 30},
      {"3 guards, 9-month rotation (proposal)", 3, 270},
      {"9 guards, 30-day rotation", 9, 30},
  };
  // One checkpoint shard per guard policy: each year-long simulation is
  // independent and seeded, so a killed sweep resumes at the first
  // unsimulated policy (inner parallelism still uses ctx.threads()).
  const ckpt::StageOptions sweep_stage =
      ctx.Stage("policy_sweep", std::size(cases), /*config_key=*/base.seed);
  const std::vector<core::LongTermResult> sweep_results =
      ctx.Timed("policy_sweep", [&] {
        return ckpt::CheckpointedMap(
            sweep_stage, /*threads=*/1, std::size(cases),
            [&](std::size_t i) {
              core::LongTermParams params = base;
              params.guard_set_size = cases[i].guards;
              params.guard_lifetime_s =
                  cases[i].lifetime_days * netbase::duration::kDay;
              return core::SimulateLongTermExposure(consensus, params);
            },
            [](const core::LongTermResult& result, ckpt::PayloadWriter& payload) {
              payload.U64(result.cumulative_compromised.size());
              for (const double v : result.cumulative_compromised) payload.Dbl(v);
              payload.Dbl(result.final_fraction);
              payload.U64(result.malicious_relays);
              payload.U64(result.malicious_guards);
              payload.U64(result.malicious_exits);
            },
            [](ckpt::PayloadReader& payload) {
              core::LongTermResult result;
              result.cumulative_compromised.resize(payload.U64());
              for (double& v : result.cumulative_compromised) v = payload.Dbl();
              result.final_fraction = payload.Dbl();
              result.malicious_relays = payload.U64();
              result.malicious_guards = payload.U64();
              result.malicious_exits = payload.U64();
              return result;
            });
      });
  for (std::size_t p = 0; p < sweep_results.size(); ++p) {
    const PolicyCase& policy = cases[p];
    const core::LongTermResult& result = sweep_results[p];
    table.AddRow({policy.name,
                  util::FormatPercent(result.cumulative_compromised[89], 1),
                  util::FormatPercent(result.cumulative_compromised[179], 1),
                  util::FormatPercent(result.cumulative_compromised[359], 1)});
    for (std::size_t i = 0; i < result.cumulative_compromised.size(); i += 10) {
      csv.WriteRow({policy.name, std::to_string(i),
                    util::FormatDouble(result.cumulative_compromised[i], 5)});
    }
    ctx.Result("compromised_360d[" + policy.name + "]",
               result.cumulative_compromised[359]);
    curves.push_back(result.cumulative_compromised);
    names.push_back(policy.name);
  }
  std::cout << table.Render();

  util::PrintBanner(std::cout, "cumulative compromise over time");
  std::cout << core::RenderAsciiChart(names, curves, 70, 14);

  util::PrintBanner(std::cout, "paper vs measured");
  util::Table comparison({"claim", "paper", "measured"});
  ctx.Comparison(comparison, "no guards: P -> 1 over time",
                 "\"approaches 1\"", "top row, 360-day column");
  ctx.Comparison(comparison, "honest guards protect for their lifetime",
                 "\"cannot be deanonymized for the lifetime\"",
                 "never-rotated row stays flat after initial split");
  ctx.Comparison(comparison, "more guards raise exposure",
                 "\"limit the number of guard relays\"",
                 "9-guard row vs 3-guard row");
  std::cout << comparison.Render();
  std::cout << "\nwrote sec2_longterm.csv\n";

  // --- Population distribution: the same Tor-2014 policy, but across a
  // full client population homed in the eyeball ASes, via the vectorized
  // tor::population engine. The point estimates above are unchanged; this
  // stage adds the per-client-AS distribution behind them. Placed after
  // the policy sweep so its checkpoint stage does not disturb the sweep's
  // kill/resume abort points (resume/* in scripts/contracts.py).
  core::PopulationExposureParams pop_params;
  pop_params.clients = 20000;
  pop_params.days = 360;
  pop_params.malicious_bandwidth_fraction = base.malicious_bandwidth_fraction;
  pop_params.seed = 20140702;
  pop_params.threads = ctx.threads();
  pop_params.shard_clients = 2500;
  const std::size_t pop_shards =
      (pop_params.clients + pop_params.shard_clients - 1) / pop_params.shard_clients;
  pop_params.stage = ctx.Stage("population_distribution", pop_shards,
                               /*config_key=*/pop_params.seed);
  const tor::PathSelector selector(consensus);
  const core::PopulationExposureResult population =
      ctx.Timed("population_distribution", [&] {
        return core::SimulatePopulationExposure(selector, scenario.topology.eyeballs,
                                                pop_params);
      });

  std::vector<double> as_fractions;
  as_fractions.reserve(population.per_as.size());
  for (const core::ClientAsExposure& entry : population.per_as) {
    as_fractions.push_back(entry.fraction);
  }
  const util::Summary as_spread = util::Summarize(as_fractions);

  util::PrintBanner(std::cout, "population distribution (20k clients, Tor 2014 "
                               "policy, per client AS)");
  util::Table pop_table({"metric", "value"});
  pop_table.AddRow({"clients", std::to_string(pop_params.clients)});
  pop_table.AddRow({"client ASes", std::to_string(population.per_as.size())});
  pop_table.AddRow({"compromised after 360d",
                    util::FormatPercent(population.final_fraction, 1)});
  pop_table.AddRow({"per-AS fraction median", util::FormatPercent(as_spread.median, 1)});
  pop_table.AddRow({"per-AS fraction p75", util::FormatPercent(as_spread.p75, 1)});
  pop_table.AddRow({"per-AS fraction max", util::FormatPercent(as_spread.max, 1)});
  std::cout << pop_table.Render();

  util::CsvWriter pop_csv("sec2_population.csv",
                          {"client_as", "clients", "compromised", "fraction"});
  for (const core::ClientAsExposure& entry : population.per_as) {
    pop_csv.WriteRow({static_cast<double>(entry.as), static_cast<double>(entry.clients),
                      static_cast<double>(entry.compromised), entry.fraction});
  }
  std::cout << "\nwrote sec2_population.csv (" << population.per_as.size()
            << " ASes)\n";

  ctx.Result("population_clients", static_cast<std::int64_t>(pop_params.clients));
  ctx.Result("population_final_fraction", population.final_fraction);
  ctx.Result("population_client_ases",
             static_cast<std::int64_t>(population.per_as.size()));
  ctx.Result("population_fraction_median", as_spread.median);
  ctx.Result("population_fraction_p75", as_spread.p75);
  ctx.Result("population_fraction_max", as_spread.max);
  obs::JsonValue pop_histogram = obs::JsonValue::Array();
  for (std::size_t count : population.fraction_histogram) {
    pop_histogram.Append(obs::JsonValue(static_cast<std::int64_t>(count)));
  }
  ctx.Result("population_fraction_histogram", std::move(pop_histogram));
  ctx.Finish();
  return 0;
}
