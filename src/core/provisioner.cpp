#include "core/provisioner.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "adversary/strategy.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sim/scenario.h"

namespace scp {

CacheProvisioner::CacheProvisioner(ProvisionOptions options)
    : options_(std::move(options)) {
  SCP_CHECK(options_.safety_factor >= 1.0);
  SCP_CHECK(options_.validation_trials >= 1);
}

double CacheProvisioner::threshold(std::uint32_t nodes,
                                   std::uint32_t replication) const {
  return cache_size_threshold(nodes, replication, options_.k_prime);
}

ProvisionPlan CacheProvisioner::plan(const ClusterSpec& spec) const {
  SCP_CHECK_MSG(spec.nodes >= 3, "need at least three nodes (ln ln n)");
  SCP_CHECK_MSG(spec.replication >= 1 && spec.replication <= spec.nodes,
                "replication must be in [1, nodes]");
  SCP_CHECK_MSG(spec.items >= 2, "need at least two items");
  SCP_CHECK_MSG(spec.attack_rate_qps > 0.0, "attack rate must be positive");

  ProvisionPlan plan;
  plan.spec = spec;
  plan.even_load_qps =
      spec.attack_rate_qps / static_cast<double>(spec.nodes);

  if (spec.replication < 2) {
    // Fan et al.'s unreplicated regime: the adversary can always pick an x
    // with gain > 1; no cache size yields *prevention* (only mitigation).
    plan.prevention_possible = false;
    return plan;
  }

  plan.prevention_possible = true;
  plan.k = gap_k(spec.nodes, spec.replication, options_.k_prime);
  plan.threshold =
      cache_size_threshold(spec.nodes, spec.replication, options_.k_prime);
  plan.recommended_cache_size = static_cast<std::uint64_t>(
      std::ceil(plan.threshold * options_.safety_factor));
  SCP_CHECK_MSG(plan.recommended_cache_size < spec.items,
                "key space smaller than the required cache: cache everything "
                "instead (m <= c*)");

  SystemParams params;
  params.nodes = spec.nodes;
  params.replication = spec.replication;
  params.items = spec.items;
  params.cache_size = plan.recommended_cache_size;
  params.query_rate = spec.attack_rate_qps;

  // Case 2 ⇒ the adversary's best response is x = m; Eq. 8 there is the
  // worst-case absolute load.
  plan.worst_case_load_bound_qps = max_load_bound(params, spec.items, plan.k);
  if (spec.node_capacity_qps > 0.0) {
    plan.capacity_sufficient =
        spec.node_capacity_qps >= plan.worst_case_load_bound_qps;
  }

  if (options_.degraded_failures > 0) {
    plan.degraded = degraded_guarantee(spec, plan.recommended_cache_size,
                                       options_.degraded_failures);
  }

  if (options_.validate) {
    validate_plan(plan);
  }
  return plan;
}

DegradedGuarantee CacheProvisioner::degraded_guarantee(
    const ClusterSpec& spec, std::uint64_t cache_size,
    std::uint32_t failures) const {
  SCP_CHECK_MSG(spec.replication >= 2,
                "degraded guarantees need replication (d >= 2)");
  SCP_CHECK_MSG(failures < spec.nodes, "cannot fail every node");
  const std::uint32_t survivors = spec.nodes - failures;
  SCP_CHECK_MSG(survivors >= 3 && survivors >= spec.replication,
                "need at least max(3, d) surviving nodes (ln ln n)");

  DegradedGuarantee degraded;
  degraded.failures = failures;
  degraded.surviving_nodes = survivors;
  degraded.k = gap_k(survivors, spec.replication, options_.k_prime);
  degraded.threshold =
      cache_size_threshold(survivors, spec.replication, options_.k_prime);
  degraded.cache_covers_threshold =
      static_cast<double>(cache_size) >= degraded.threshold;
  degraded.even_load_qps =
      spec.attack_rate_qps / static_cast<double>(survivors);

  SystemParams params;
  params.nodes = survivors;
  params.replication = spec.replication;
  params.items = spec.items;
  params.cache_size = cache_size;
  params.query_rate = spec.attack_rate_qps;
  degraded.worst_case_load_bound_qps =
      max_load_bound(params, spec.items, degraded.k);
  if (spec.node_capacity_qps > 0.0) {
    degraded.capacity_sufficient =
        spec.node_capacity_qps >= degraded.worst_case_load_bound_qps;
  }
  return degraded;
}

void CacheProvisioner::validate_plan(ProvisionPlan& plan) const {
  ScenarioConfig config;
  config.params.nodes = plan.spec.nodes;
  config.params.replication = plan.spec.replication;
  config.params.items = plan.spec.items;
  config.params.cache_size = plan.recommended_cache_size;
  config.params.query_rate = plan.spec.attack_rate_qps;
  config.partitioner = options_.partitioner;
  config.selector = options_.selector;

  // The serial search is measure_adversarial_gain(config, x, trials,
  // seed ^ x) per candidate x. Its (x, trial) gain trials are independent,
  // so they run as one pool of tasks, heaviest (largest x) first; each keeps
  // its serial seed and writes its own slot, and the reduction below runs in
  // candidate order, so the plan is bit-identical to the serial loop. A
  // candidate's distribution (16 bytes per key) is built by its first task
  // and freed by its last, so only the candidates in flight hold one.
  const std::vector<std::uint64_t> xs = candidate_queried_keys(
      config.params, options_.validation_grid_points);
  const std::uint32_t trials = options_.validation_trials;
  std::vector<std::optional<QueryDistribution>> distributions(xs.size());
  std::vector<std::once_flag> built(xs.size());
  std::vector<std::atomic<std::uint32_t>> unfinished(xs.size());
  for (std::atomic<std::uint32_t>& count : unfinished) count = trials;
  std::vector<std::vector<double>> gains(xs.size(),
                                         std::vector<double>(trials));
  const auto trial = [&](std::size_t task, std::size_t) {
    const std::size_t i = xs.size() - 1 - task / trials;
    const std::size_t t = task % trials;
    std::call_once(built[i], [&] {
      distributions[i].emplace(
          QueryDistribution::uniform_over(xs[i], config.params.items));
    });
    gains[i][t] = gain_trial(config, *distributions[i],
                             derive_seed(options_.seed ^ xs[i], 1000 + t));
    if (unfinished[i].fetch_sub(1) == 1) distributions[i].reset();
  };
  parallel_for(xs.size() * trials, std::thread::hardware_concurrency(), trial);

  const auto evaluate = [&](std::uint64_t x) {
    const std::size_t i =
        std::lower_bound(xs.begin(), xs.end(), x) - xs.begin();
    return summarize(gains[i]).max;
  };
  const BestResponse best = best_response_search(
      config.params, evaluate, options_.validation_grid_points);

  plan.validated = true;
  plan.observed_worst_gain = best.gain;
  plan.observed_worst_x = best.queried_keys;
  plan.prevention_holds = best.gain <= 1.0;
}

}  // namespace scp
