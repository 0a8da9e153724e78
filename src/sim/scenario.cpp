#include "sim/scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <vector>

#include "adversary/knowledge.h"
#include "cache/perfect_cache.h"
#include "cluster/cluster.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "sim/rate_sim.h"

namespace scp {

double gain_trial(const ScenarioConfig& config,
                  const QueryDistribution& distribution, std::uint64_t seed) {
  config.params.check();
  SCP_CHECK_MSG(distribution.size() == config.params.items,
                "distribution key space must match params.items");
  Cluster cluster(make_partitioner(config.partitioner, config.params.nodes,
                                   config.params.replication,
                                   derive_seed(seed, 1)));
  const PerfectCache cache(config.params.cache_size, distribution);
  auto selector = make_selector(config.selector);
  RateSimConfig sim_config;
  sim_config.query_rate = config.params.query_rate;
  sim_config.seed = derive_seed(seed, 2);
  sim_config.faults = config.faults;
  sim_config.retry = config.retry;
  const RateSimResult result =
      simulate_rates(cluster, cache, distribution, *selector, sim_config);
  return result.normalized_max_load;
}

double adversarial_gain_trial(const ScenarioConfig& config, std::uint64_t x,
                              std::uint64_t seed) {
  return gain_trial(
      config, QueryDistribution::uniform_over(x, config.params.items), seed);
}

GainStatistics measure_gain(const ScenarioConfig& config,
                            const QueryDistribution& distribution,
                            std::uint32_t trials, std::uint64_t base_seed) {
  SCP_CHECK_MSG(trials >= 1, "need at least one trial");
  std::vector<double> gains;
  gains.reserve(trials);
  for (std::uint32_t t = 0; t < trials; ++t) {
    gains.push_back(gain_trial(config, distribution,
                               derive_seed(base_seed, 1000 + t)));
  }
  GainStatistics stats;
  stats.summary = summarize(gains);
  stats.max_gain = stats.summary.max;
  return stats;
}

GainStatistics measure_adversarial_gain(const ScenarioConfig& config,
                                        std::uint64_t x, std::uint32_t trials,
                                        std::uint64_t base_seed) {
  const QueryDistribution distribution =
      QueryDistribution::uniform_over(x, config.params.items);
  return measure_gain(config, distribution, trials, base_seed);
}

GainSweep::GainSweep(ScenarioConfig config, std::uint32_t trials,
                     std::uint64_t base_seed, Options options)
    : config_(std::move(config)),
      trials_(trials),
      base_seed_(base_seed),
      options_(options) {
  SCP_CHECK_MSG(trials_ >= 1, "need at least one trial");
  SCP_CHECK_MSG(options_.threads >= 1, "need at least one thread");
  config_.params.check();
}

std::vector<GainStatistics> GainSweep::run(
    std::span<const Point> points) const {
  for (const Point& point : points) {
    SCP_CHECK_MSG(point.distribution != nullptr, "point needs a distribution");
    SCP_CHECK_MSG(point.distribution->size() == config_.params.items,
                  "distribution key space must match params.items");
  }

  // Per-point caches are immutable (the perfect oracle's contents are its
  // definition), so one instance is shared read-only by every trial.
  std::vector<PerfectCache> caches;
  caches.reserve(points.size());
  for (const Point& point : points) {
    caches.emplace_back(point.cache_size, *point.distribution);
  }

  // Evaluate points grouped by distribution (stably, so same-workload
  // points stay in input order). Each point's simulation is independent —
  // per-sim selector reset, seed fixed per trial — so evaluation order
  // cannot change results, but grouping maximizes the scratch memo hits:
  // the shuffled order, order-major placement rows and order-major rates
  // are all reused across every point that shares a workload (e.g. the
  // x = m pattern at each cache size) instead of being rebuilt when
  // supports alternate.
  std::vector<std::size_t> eval_order(points.size());
  std::iota(eval_order.begin(), eval_order.end(), 0);
  std::stable_sort(eval_order.begin(), eval_order.end(),
                   [&points](std::size_t a, std::size_t b) {
                     return std::less<const QueryDistribution*>{}(
                         points[a].distribution, points[b].distribution);
                   });

  // values[point][trial], written by trial index so aggregation (and hence
  // the result) is independent of thread scheduling.
  std::vector<std::vector<double>> values(
      points.size(), std::vector<double>(trials_, 0.0));
  const std::size_t workers = parallel_workers(trials_, options_.threads);
  std::vector<std::unique_ptr<ReplicaSelector>> selectors;
  for (std::size_t w = 0; w < workers; ++w) {
    selectors.push_back(make_selector(config_.selector));
  }
  std::vector<RateSimScratch> scratch(workers);
  parallel_for(trials_, options_.threads, [&](std::size_t t,
                                              std::size_t worker) {
    const std::uint64_t trial_seed = derive_seed(base_seed_, 1000 + t);
    Cluster cluster(make_partitioner(
        config_.partitioner, config_.params.nodes, config_.params.replication,
        derive_seed(trial_seed, 1)));
    const PlacementIndex index(cluster.partitioner(), config_.params.items,
                               options_.index_memory_budget);
    RateSimConfig sim_config;
    sim_config.query_rate = config_.params.query_rate;
    sim_config.seed = derive_seed(trial_seed, 2);
    sim_config.faults = config_.faults;
    sim_config.retry = config_.retry;
    for (const std::size_t p : eval_order) {
      values[p][t] =
          simulate_rates(cluster, caches[p], *points[p].distribution,
                         *selectors[worker], sim_config, &index,
                         &scratch[worker])
              .normalized_max_load;
    }
  });

  std::vector<GainStatistics> stats(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    stats[p].summary = summarize(values[p]);
    stats[p].max_gain = stats[p].summary.max;
  }
  return stats;
}

GainStatistics GainSweep::run_one(const QueryDistribution& distribution,
                                  std::uint64_t cache_size) const {
  const Point point{&distribution, cache_size};
  return run(std::span<const Point>(&point, 1)).front();
}

TargetedAttackResult knowledge_attack_trial(const ScenarioConfig& config,
                                            double known_fraction,
                                            std::uint64_t seed) {
  config.params.check();
  Cluster cluster(make_partitioner(config.partitioner, config.params.nodes,
                                   config.params.replication,
                                   derive_seed(seed, 1)));
  const KnowledgePlan plan = plan_knowledge_attack(
      cluster.partitioner(), config.params.items, config.params.cache_size,
      known_fraction, derive_seed(seed, 3));

  // Uniform over the targeted key set — Theorem 1's logic applies within
  // the set: no key should be hotter than the cached ceiling.
  const std::uint64_t x = plan.queried_keys.size();
  const std::vector<double> probabilities(
      x, 1.0 / static_cast<double>(x));
  const PerfectCache cache(config.params.cache_size,
                           std::span<const KeyId>(plan.queried_keys),
                           std::span<const double>(probabilities));

  auto selector = make_selector(config.selector);
  Rng rng(derive_seed(seed, 2));
  const std::uint32_t d = cluster.replication();
  std::vector<NodeId> group(d);
  std::vector<double> loads(cluster.node_count(), 0.0);
  const double per_key_rate =
      config.params.query_rate / static_cast<double>(x);

  std::vector<std::uint64_t> order(x);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(std::span<std::uint64_t>(order));
  for (const std::uint64_t index : order) {
    const KeyId key = plan.queried_keys[index];
    if (cache.contains(key)) {
      continue;
    }
    cluster.replica_group(key, std::span<NodeId>(group));
    if (selector->splits_evenly()) {
      const double share = per_key_rate / static_cast<double>(d);
      for (const NodeId node : group) {
        loads[node] += share;
      }
    } else {
      const std::size_t pick =
          selector->select(key, std::span<const NodeId>(group), loads, rng);
      loads[group[pick]] += per_key_rate;
    }
  }

  TargetedAttackResult result;
  result.queried_keys = x;
  result.known_keys = plan.known_keys;
  const double even = config.params.query_rate /
                      static_cast<double>(config.params.nodes);
  result.target_gain = loads[plan.target] / even;
  result.max_gain = *std::max_element(loads.begin(), loads.end()) / even;
  return result;
}

}  // namespace scp
