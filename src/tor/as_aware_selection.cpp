#include "tor/as_aware_selection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace quicksand::tor {

namespace {

void SortValues(SegmentAsSets& sets) {
  for (auto& [relay, ases] : sets) std::sort(ases.begin(), ases.end());
}

bool SortedDisjoint(const std::vector<bgp::AsNumber>& a,
                    const std::vector<bgp::AsNumber>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return false;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return true;
}

}  // namespace

AsAwareConstraint::AsAwareConstraint(SegmentAsSets guard_side, SegmentAsSets exit_side,
                                     bool strict)
    : guard_side_(std::move(guard_side)), exit_side_(std::move(exit_side)),
      strict_(strict) {
  SortValues(guard_side_);
  SortValues(exit_side_);
}

bool AsAwareConstraint::AllowGuard(std::size_t relay_index) const {
  if (guard_side_.contains(relay_index)) return true;
  return !strict_;
}

bool AsAwareConstraint::AllowExitWithGuard(std::size_t exit_index,
                                           std::size_t guard_index) const {
  const auto guard_it = guard_side_.find(guard_index);
  const auto exit_it = exit_side_.find(exit_index);
  if (guard_it == guard_side_.end() || exit_it == exit_side_.end()) return !strict_;
  return SortedDisjoint(guard_it->second, exit_it->second);
}

std::vector<double> ShortAsPathGuardWeights(
    const Consensus& consensus,
    const std::unordered_map<std::size_t, int>& guard_as_path_length, double gamma) {
  if (!std::isfinite(gamma) || gamma < 0) {
    throw std::invalid_argument("ShortAsPathGuardWeights: gamma must be finite and >= 0");
  }
  int worst = 1;
  for (const auto& [relay, length] : guard_as_path_length) {
    worst = std::max(worst, length);
  }
  std::vector<double> weights(consensus.relays().size(), 1.0);
  if (gamma == 0) return weights;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const auto it = guard_as_path_length.find(i);
    const int length = it == guard_as_path_length.end() ? worst : std::max(1, it->second);
    weights[i] = std::pow(static_cast<double>(length), -gamma);
  }
  return weights;
}

}  // namespace quicksand::tor
