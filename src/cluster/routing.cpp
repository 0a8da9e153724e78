#include "cluster/routing.h"

#include <algorithm>

#include "common/check.h"

namespace scp {

std::size_t RandomSelector::select(KeyId /*key*/, std::span<const NodeId> group,
                                   std::span<const double> /*node_loads*/,
                                   Rng& rng) {
  SCP_DCHECK(!group.empty());
  return static_cast<std::size_t>(rng.uniform_u64(group.size()));
}

std::size_t RoundRobinSelector::select(KeyId key, std::span<const NodeId> group,
                                       std::span<const double> /*node_loads*/,
                                       Rng& /*rng*/) {
  SCP_DCHECK(!group.empty());
  const std::uint32_t turn = counters_[key]++;
  return turn % group.size();
}

std::size_t LeastLoadedSelector::select(KeyId /*key*/,
                                        std::span<const NodeId> group,
                                        std::span<const double> node_loads,
                                        Rng& rng) {
  SCP_DCHECK(!group.empty());
  return least_loaded_pick(group, node_loads, rng);
}

std::size_t PinnedLeastLoadedSelector::select(KeyId key,
                                              std::span<const NodeId> group,
                                              std::span<const double> node_loads,
                                              Rng& rng) {
  SCP_DCHECK(!group.empty());
  const auto [it, fresh] = pins_.try_emplace(key);
  if (!fresh) {
    const auto pinned = std::find(group.begin(), group.end(), it->second);
    if (pinned != group.end()) {
      return static_cast<std::size_t>(pinned - group.begin());
    }
  }
  const std::size_t pick = least_loaded_pick(group, node_loads, rng);
  it->second = group[pick];
  return pick;
}

std::unique_ptr<ReplicaSelector> make_selector(const std::string& kind) {
  if (kind == "random") {
    return std::make_unique<RandomSelector>();
  }
  if (kind == "round-robin") {
    return std::make_unique<RoundRobinSelector>();
  }
  if (kind == "least-loaded") {
    return std::make_unique<LeastLoadedSelector>();
  }
  if (kind == "pinned") {
    return std::make_unique<PinnedLeastLoadedSelector>();
  }
  SCP_CHECK_MSG(
      false, "unknown selector kind (use random|round-robin|least-loaded|pinned)");
  return nullptr;
}

double RetryPolicy::backoff_s(std::uint32_t retry) const noexcept {
  double backoff = backoff_base_s;
  for (std::uint32_t i = 0; i < retry && backoff < backoff_cap_s; ++i) {
    backoff *= 2.0;
  }
  return std::min(backoff, backoff_cap_s);
}

std::uint32_t RetryPolicy::max_attempts() const noexcept {
  std::uint32_t attempts = 1;
  double waited = 0.0;
  for (std::uint32_t retry = 0; retry < max_retries; ++retry) {
    waited += backoff_s(retry);
    if (waited > timeout_s) {
      break;
    }
    ++attempts;
  }
  return attempts;
}

std::uint32_t alive_members(std::span<const NodeId> group,
                            std::span<const std::uint8_t> alive,
                            std::span<NodeId> out) noexcept {
  std::uint32_t count = 0;
  for (const NodeId node : group) {
    if (alive[node]) {
      out[count++] = node;
    }
  }
  return count;
}

}  // namespace scp
