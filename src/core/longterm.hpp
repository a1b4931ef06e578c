#pragma once

// Long-term anonymity against malicious *relays* (Section 2 background).
//
// "When users communicate with recipients over multiple time instances,
// then there is a potential for compromise of anonymity at every
// communication instance... Without the use of guard relays, the
// probability of user deanonymization approaches 1 over time. With the
// use of guard relays, if the chosen guards are honest, then the user
// cannot be deanonymized for the lifetime of guards."
//
// This module simulates that dynamic over a real consensus: an adversary
// controls a bandwidth fraction of relays; clients run one circuit per
// instance; an instance is compromised when both its guard and its exit
// are malicious (end-to-end timing analysis). It backs the guard-count
// trade-off the countermeasures section raises ("balance this strategy
// with the need to limit the number of guard relays").
//
// It is a configuration of the population engine
// (core/population_exposure.hpp): guard-set size and lifetime become a
// PathSelector and a rotation period, and the clients share one home AS.

#include <cstdint>

#include "core/population_exposure.hpp"

namespace quicksand::core {

struct LongTermParams {
  std::size_t clients = 400;
  std::size_t instances = 180;  ///< e.g. one connection per day, six months
  std::int64_t instance_interval_s = netbase::duration::kDay;
  /// Guard-set size; 0 disables guard persistence entirely (a fresh
  /// bandwidth-weighted entry relay per circuit — pre-guard Tor).
  std::size_t guard_set_size = 3;
  std::int64_t guard_lifetime_s = 30 * netbase::duration::kDay;
  /// Fraction of total relay bandwidth the adversary controls.
  double malicious_bandwidth_fraction = 0.1;
  std::uint64_t seed = 1;
  /// Worker threads for the client sweep (0 = hardware concurrency); the
  /// result is byte-identical for every value.
  std::size_t threads = 1;
};

/// cumulative_compromised[i] is the fraction of clients with at least one
/// compromised instance among instances [0, i].
using LongTermResult = PopulationExposureResult;

/// Runs the simulation. The adversary's relays come from
/// MarkMaliciousByBandwidth on Rng(seed). Throws std::invalid_argument on
/// a zero-client or zero-instance configuration or a fraction outside
/// [0, 1].
[[nodiscard]] LongTermResult SimulateLongTermExposure(const tor::Consensus& consensus,
                                                      const LongTermParams& params);

}  // namespace quicksand::core
