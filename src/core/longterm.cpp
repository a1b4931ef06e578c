#include "core/longterm.hpp"

#include <algorithm>

#include "obs/span.hpp"

namespace quicksand::core {

LongTermResult SimulateLongTermExposure(const tor::Consensus& consensus,
                                        const LongTermParams& params) {
  const obs::ScopedSpan span("core.longterm_exposure");
  tor::PathSelectionConfig config;
  config.guard_set_size = std::max<std::size_t>(1, params.guard_set_size);
  const tor::PathSelector selector(consensus, config);

  PopulationExposureParams population;
  population.clients = params.clients;
  population.days = params.instances;
  population.instance_interval_s = params.instance_interval_s;
  // Without guard persistence the one-guard set rotates at every instance:
  // a fresh bandwidth-weighted entry relay per circuit.
  population.guard_lifetime_s = params.guard_set_size == 0 ? 0 : params.guard_lifetime_s;
  population.malicious_bandwidth_fraction = params.malicious_bandwidth_fraction;
  population.seed = params.seed;
  population.threads = params.threads;
  const bgp::AsNumber home_as[] = {0};  // the clients' location plays no part
  return SimulatePopulationExposure(selector, home_as, population);
}

}  // namespace quicksand::core
