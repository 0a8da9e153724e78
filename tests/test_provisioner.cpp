#include "core/provisioner.h"

#include <cmath>

#include <gtest/gtest.h>

#include "adversary/bounds.h"
#include "adversary/strategy.h"
#include "core/serialize.h"
#include "sim/scenario.h"

namespace scp {
namespace {

ClusterSpec small_spec() {
  ClusterSpec spec;
  spec.nodes = 100;
  spec.replication = 3;
  spec.items = 10000;
  spec.attack_rate_qps = 10000.0;
  return spec;
}

ProvisionOptions fast_options() {
  ProvisionOptions options;
  options.validation_trials = 3;
  options.validation_grid_points = 2;
  return options;
}

TEST(CacheProvisioner, ThresholdMatchesBoundsModule) {
  const CacheProvisioner provisioner(fast_options());
  EXPECT_DOUBLE_EQ(
      provisioner.threshold(1000, 3),
      cache_size_threshold(1000, 3, provisioner.options().k_prime));
}

TEST(CacheProvisioner, PlanComputesTheoryFields) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  const ProvisionPlan plan = provisioner.plan(small_spec());
  EXPECT_TRUE(plan.prevention_possible);
  EXPECT_NEAR(plan.k, gap_k(100, 3, options.k_prime), 1e-12);
  EXPECT_NEAR(plan.threshold, 100.0 * plan.k + 1.0, 1e-9);
  EXPECT_EQ(plan.recommended_cache_size,
            static_cast<std::uint64_t>(
                std::ceil(plan.threshold * options.safety_factor)));
  EXPECT_DOUBLE_EQ(plan.even_load_qps, 100.0);
  EXPECT_FALSE(plan.validated);
}

TEST(CacheProvisioner, RecommendationIsOrderN) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  spec.nodes = 1000;
  spec.items = 1000000;
  const ProvisionPlan plan = provisioner.plan(spec);
  // < n · (2 + k') · safety for d = 3, per the paper's headline.
  EXPECT_LT(static_cast<double>(plan.recommended_cache_size),
            1000.0 * (2.0 + options.k_prime) * options.safety_factor + 2.0);
}

TEST(CacheProvisioner, ValidationConfirmsPrevention) {
  const CacheProvisioner provisioner(fast_options());
  const ProvisionPlan plan = provisioner.plan(small_spec());
  ASSERT_TRUE(plan.validated);
  EXPECT_TRUE(plan.prevention_holds);
  EXPECT_LE(plan.observed_worst_gain, 1.0);
  EXPECT_GT(plan.observed_worst_x, plan.recommended_cache_size);
}

/// validate_plan as a serial loop: measure_adversarial_gain per candidate
/// x, in candidate order, keeping the first x of highest gain.
ProvisionPlan serial_reference_plan(const ProvisionOptions& options,
                                    const ClusterSpec& spec) {
  ProvisionOptions unvalidated = options;
  unvalidated.validate = false;
  ProvisionPlan plan = CacheProvisioner(unvalidated).plan(spec);
  ScenarioConfig config;
  config.params.nodes = spec.nodes;
  config.params.replication = spec.replication;
  config.params.items = spec.items;
  config.params.cache_size = plan.recommended_cache_size;
  config.params.query_rate = spec.attack_rate_qps;
  config.partitioner = options.partitioner;
  config.selector = options.selector;
  for (const std::uint64_t x : candidate_queried_keys(
           config.params, options.validation_grid_points)) {
    const double gain =
        measure_adversarial_gain(config, x, options.validation_trials,
                                 options.seed ^ x)
            .max_gain;
    if (gain > plan.observed_worst_gain) {
      plan.observed_worst_gain = gain;
      plan.observed_worst_x = x;
    }
  }
  plan.validated = true;
  plan.prevention_holds = plan.observed_worst_gain <= 1.0;
  return plan;
}

void expect_identical_plans(const ProvisionPlan& a, const ProvisionPlan& b) {
  EXPECT_EQ(a.spec.nodes, b.spec.nodes);
  EXPECT_EQ(a.spec.replication, b.spec.replication);
  EXPECT_EQ(a.spec.items, b.spec.items);
  EXPECT_EQ(a.spec.attack_rate_qps, b.spec.attack_rate_qps);
  EXPECT_EQ(a.spec.node_capacity_qps, b.spec.node_capacity_qps);
  EXPECT_EQ(a.prevention_possible, b.prevention_possible);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.threshold, b.threshold);
  EXPECT_EQ(a.recommended_cache_size, b.recommended_cache_size);
  EXPECT_EQ(a.even_load_qps, b.even_load_qps);
  EXPECT_EQ(a.worst_case_load_bound_qps, b.worst_case_load_bound_qps);
  EXPECT_EQ(a.capacity_sufficient, b.capacity_sufficient);
  EXPECT_EQ(a.validated, b.validated);
  EXPECT_EQ(a.observed_worst_gain, b.observed_worst_gain);
  EXPECT_EQ(a.observed_worst_x, b.observed_worst_x);
  EXPECT_EQ(a.prevention_holds, b.prevention_holds);
  EXPECT_EQ(a.degraded.has_value(), b.degraded.has_value());
  EXPECT_EQ(to_json(a), to_json(b));
}

TEST(CacheProvisioner, ValidationMatchesSerialBestResponseSearch) {
  // The live benchmark's cluster under the default options, then a larger
  // cluster with a denser grid, a ring partitioner and random replica
  // choice. Least-loaded choice quantizes the gain to ceil(x/n)·n/x at
  // nearly every seed; random choice makes every (x, trial) seed show.
  const ClusterSpec bench{.nodes = 8, .replication = 2, .items = 100'000};
  expect_identical_plans(CacheProvisioner().plan(bench),
                         serial_reference_plan(ProvisionOptions{}, bench));

  ProvisionOptions options = fast_options();
  options.validation_grid_points = 5;
  options.partitioner = "ring";
  options.selector = "random";
  options.seed = 42;
  const ClusterSpec spec = small_spec();
  expect_identical_plans(CacheProvisioner(options).plan(spec),
                         serial_reference_plan(options, spec));
}

TEST(CacheProvisioner, WorstCaseBoundNearEvenLoad) {
  // In Case 2 the Eq. 8 bound at x = m approaches R/n from below as m grows.
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  const ProvisionPlan plan = provisioner.plan(small_spec());
  EXPECT_LT(plan.worst_case_load_bound_qps, plan.even_load_qps);
  EXPECT_GT(plan.worst_case_load_bound_qps, plan.even_load_qps * 0.8);
}

TEST(CacheProvisioner, CapacityCheckBothWays) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  spec.node_capacity_qps = 1000.0;  // 10× the even load
  EXPECT_TRUE(provisioner.plan(spec).capacity_sufficient);
  spec.node_capacity_qps = 50.0;  // below the even load
  EXPECT_FALSE(provisioner.plan(spec).capacity_sufficient);
}

TEST(CacheProvisioner, UnreplicatedClusterHasNoPreventionPlan) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  spec.replication = 1;
  const ProvisionPlan plan = provisioner.plan(spec);
  EXPECT_FALSE(plan.prevention_possible);
  EXPECT_EQ(plan.recommended_cache_size, 0u);
}

TEST(CacheProvisioner, HigherReplicationNeedsSmallerCache) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  spec.replication = 2;
  const auto plan_d2 = provisioner.plan(spec);
  spec.replication = 5;
  const auto plan_d5 = provisioner.plan(spec);
  EXPECT_GT(plan_d2.recommended_cache_size, plan_d5.recommended_cache_size);
}

TEST(CacheProvisioner, RejectsKeySpaceSmallerThanThreshold) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  spec.items = 10;  // far below c*
  EXPECT_DEATH(provisioner.plan(spec), "cache everything");
}

TEST(CacheProvisioner, RejectsDegenerateSpecs) {
  const CacheProvisioner provisioner(fast_options());
  ClusterSpec spec = small_spec();
  spec.nodes = 2;
  EXPECT_DEATH(provisioner.plan(spec), "three nodes");
  spec = small_spec();
  spec.attack_rate_qps = 0.0;
  EXPECT_DEATH(provisioner.plan(spec), "rate");
}

TEST(CacheProvisioner, DegradedGuaranteeRecomputesBoundsForSurvivors) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  const ClusterSpec spec = small_spec();
  const DegradedGuarantee dg = provisioner.degraded_guarantee(spec, 400, 10);
  EXPECT_EQ(dg.failures, 10u);
  EXPECT_EQ(dg.surviving_nodes, 90u);
  EXPECT_NEAR(dg.k, gap_k(90, 3, options.k_prime), 1e-12);
  EXPECT_NEAR(dg.threshold, cache_size_threshold(90, 3, options.k_prime),
              1e-9);
  // c*(n) grows with n: a cache covering c*(100) still covers c*(90).
  EXPECT_LT(dg.threshold, provisioner.threshold(100, 3));
  EXPECT_TRUE(dg.cache_covers_threshold);
  EXPECT_DOUBLE_EQ(dg.even_load_qps, 10000.0 / 90.0);
  // The survivors' even spread (and worst case) exceed the healthy ones.
  const ProvisionPlan plan = provisioner.plan(spec);
  EXPECT_GT(dg.even_load_qps, plan.even_load_qps);
  EXPECT_GT(dg.worst_case_load_bound_qps, 0.0);
}

TEST(CacheProvisioner, DegradedGuaranteeFlagsTooSmallCache) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  const DegradedGuarantee dg =
      provisioner.degraded_guarantee(small_spec(), 50, 10);
  EXPECT_FALSE(dg.cache_covers_threshold);
}

TEST(CacheProvisioner, DegradedCapacityCheckUsesSurvivingBaseline) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  ClusterSpec spec = small_spec();
  // Healthy worst case is just under R/n = 100; half the cluster gone
  // roughly doubles it. Pick a capacity between the two regimes.
  spec.node_capacity_qps = 120.0;
  EXPECT_TRUE(provisioner.plan(spec).capacity_sufficient);
  const DegradedGuarantee dg =
      provisioner.degraded_guarantee(spec, 400, 50);
  EXPECT_FALSE(dg.capacity_sufficient);
}

TEST(CacheProvisioner, PlanEmbedsDegradedGuaranteeWhenRequested) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const ProvisionPlan healthy = CacheProvisioner(options).plan(small_spec());
  EXPECT_FALSE(healthy.degraded.has_value());

  options.degraded_failures = 10;
  const CacheProvisioner provisioner(options);
  const ProvisionPlan plan = provisioner.plan(small_spec());
  ASSERT_TRUE(plan.degraded.has_value());
  EXPECT_EQ(plan.degraded->failures, 10u);
  // The embedded guarantee is evaluated at the recommended size, which
  // covers the (smaller) degraded threshold by construction.
  EXPECT_TRUE(plan.degraded->cache_covers_threshold);
}

TEST(CacheProvisioner, DegradedGuaranteeRejectsTooManyFailures) {
  ProvisionOptions options = fast_options();
  options.validate = false;
  const CacheProvisioner provisioner(options);
  EXPECT_DEATH(provisioner.degraded_guarantee(small_spec(), 400, 98),
               "surviv");
}

TEST(CacheProvisioner, RejectsBadOptions) {
  ProvisionOptions options;
  options.safety_factor = 0.5;
  EXPECT_DEATH(CacheProvisioner{options}, "safety");
}

}  // namespace
}  // namespace scp
