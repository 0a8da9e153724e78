// Fault injection through both simulators: bit-transparency when no faults
// are configured, degraded-mode physics when they are, and determinism of
// faulted runs across paths and thread counts.
#include <numeric>

#include <gtest/gtest.h>

#include "cache/perfect_cache.h"
#include "cluster/cluster.h"
#include "sim/event_sim.h"
#include "sim/fault.h"
#include "sim/rate_sim.h"
#include "sim/scenario.h"

namespace scp {
namespace {

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

// --- rate simulator -------------------------------------------------------

TEST(FaultRateSim, HealthyViewIsBitTransparent) {
  // The acceptance bar: wiring in a fault view with nothing to inject must
  // reproduce the fault-unaware simulation bit-for-bit (same RNG draws,
  // same loads), for every selector family.
  const auto d = QueryDistribution::zipf(2000, 1.05);
  const FaultView healthy(20);
  for (const char* kind : {"least-loaded", "random", "round-robin"}) {
    Cluster baseline_cluster(make_partitioner("hash", 20, 3, 11));
    Cluster faulted_cluster(make_partitioner("hash", 20, 3, 11));
    PerfectCache cache(100, d);
    auto baseline_selector = make_selector(kind);
    auto faulted_selector = make_selector(kind);
    RateSimConfig config;
    config.query_rate = 10000.0;
    config.seed = 5;
    const RateSimResult baseline = simulate_rates(
        baseline_cluster, cache, d, *baseline_selector, config);
    config.faults = &healthy;
    const RateSimResult faulted = simulate_rates(
        faulted_cluster, cache, d, *faulted_selector, config);
    EXPECT_EQ(faulted.node_loads, baseline.node_loads) << kind;
    EXPECT_EQ(faulted.normalized_max_load, baseline.normalized_max_load)
        << kind;
    EXPECT_DOUBLE_EQ(faulted.unserved_rate, 0.0) << kind;
    // Without faults the degraded gain *is* the gain.
    EXPECT_EQ(baseline.degraded_normalized_max_load,
              baseline.normalized_max_load)
        << kind;
    EXPECT_EQ(baseline.alive_nodes, 20u) << kind;
  }
}

TEST(FaultRateSim, CrashShiftsLoadToSurvivors) {
  const auto d = QueryDistribution::uniform(2000);
  Cluster cluster(make_partitioner("hash", 10, 3, 7));
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultView faults(10);
  faults.alive[4] = 0;
  faults.alive_count = 9;
  RateSimConfig config;
  config.query_rate = 9000.0;
  config.seed = 3;
  config.faults = &faults;
  const RateSimResult r = simulate_rates(cluster, cache, d, *selector, config);
  EXPECT_DOUBLE_EQ(r.node_loads[4], 0.0);
  EXPECT_EQ(r.alive_nodes, 9u);
  // d = 3 replicas: every key keeps at least one survivor, nothing is lost.
  EXPECT_DOUBLE_EQ(r.unserved_rate, 0.0);
  EXPECT_NEAR(sum(r.node_loads), 9000.0, 1e-6);
  // Degraded gain renormalizes against R/(n-f) > R/n.
  EXPECT_LT(r.degraded_normalized_max_load, r.normalized_max_load);
}

TEST(FaultRateSim, WholeGroupDeadGoesUnserved) {
  const auto d = QueryDistribution::uniform(100);
  Cluster cluster(make_partitioner("hash", 5, 2, 9));
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultView faults(5);
  for (NodeId n = 0; n < 5; ++n) {
    faults.alive[n] = 0;
  }
  faults.alive_count = 0;
  RateSimConfig config;
  config.query_rate = 1000.0;
  config.faults = &faults;
  const RateSimResult r = simulate_rates(cluster, cache, d, *selector, config);
  EXPECT_NEAR(r.unserved_rate, 1000.0, 1e-9);
  EXPECT_DOUBLE_EQ(sum(r.node_loads), 0.0);
  EXPECT_EQ(r.alive_nodes, 0u);
}

TEST(FaultRateSim, SlowNodesInflateOfferedWork) {
  const auto d = QueryDistribution::uniform(500);
  Cluster cluster(make_partitioner("hash", 8, 2, 5));
  PerfectCache cache(0, d);
  auto selector = make_selector("random");  // splits evenly: load is exact
  FaultView faults(8);
  for (NodeId n = 0; n < 8; ++n) {
    faults.slow[n] = 3.0;
  }
  RateSimConfig config;
  config.query_rate = 4000.0;
  config.faults = &faults;
  const RateSimResult r = simulate_rates(cluster, cache, d, *selector, config);
  // Every delivered query costs 3x the work on a uniformly slow cluster.
  EXPECT_NEAR(sum(r.node_loads), 3.0 * 4000.0, 1e-6);
  EXPECT_DOUBLE_EQ(r.unserved_rate, 0.0);
}

TEST(FaultRateSim, NetworkDropRetriesConserveMass) {
  const auto d = QueryDistribution::uniform(500);
  Cluster cluster(make_partitioner("hash", 8, 2, 5));
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultView faults(8);
  for (NodeId n = 0; n < 8; ++n) {
    faults.drop[n] = 0.5;
  }
  RateSimConfig config;
  config.query_rate = 4000.0;
  config.faults = &faults;
  config.retry.max_retries = 2;
  const RateSimResult r = simulate_rates(cluster, cache, d, *selector, config);
  // Delivered + undeliverable-after-retries must add back up to R.
  EXPECT_NEAR(sum(r.node_loads) + r.unserved_rate, 4000.0, 1e-6);
  // p = 0.5, 3 attempts: 1/8 of the mass survives all attempts undelivered.
  EXPECT_NEAR(r.unserved_rate, 4000.0 / 8.0, 1e-6);
  // More retries leave less unserved.
  Cluster retry_cluster(make_partitioner("hash", 8, 2, 5));
  auto retry_selector = make_selector("least-loaded");
  config.retry.max_retries = 5;
  const RateSimResult more =
      simulate_rates(retry_cluster, cache, d, *retry_selector, config);
  EXPECT_LT(more.unserved_rate, r.unserved_rate);
}

TEST(FaultRateSim, FastPathMatchesLegacyUnderFaults) {
  const auto d = QueryDistribution::zipf(2000, 1.05);
  const auto partitioner = make_partitioner("ring", 16, 3, 6);
  const PlacementIndex index(*partitioner, 2000);
  RateSimScratch scratch;
  FaultView faults(16);
  faults.alive[1] = faults.alive[9] = 0;
  faults.alive_count = 14;
  faults.slow[3] = 2.5;
  faults.drop[5] = 0.4;
  for (const char* kind : {"least-loaded", "random", "round-robin"}) {
    Cluster legacy_cluster(make_partitioner("ring", 16, 3, 6));
    Cluster fast_cluster(make_partitioner("ring", 16, 3, 6));
    PerfectCache cache(50, d);
    auto legacy_selector = make_selector(kind);
    auto fast_selector = make_selector(kind);
    RateSimConfig config;
    config.query_rate = 8000.0;
    config.seed = 13;
    config.faults = &faults;
    const RateSimResult legacy =
        simulate_rates(legacy_cluster, cache, d, *legacy_selector, config);
    const RateSimResult fast = simulate_rates(
        fast_cluster, cache, d, *fast_selector, config, &index, &scratch);
    EXPECT_EQ(fast.node_loads, legacy.node_loads) << kind;
    EXPECT_EQ(fast.unserved_rate, legacy.unserved_rate) << kind;
    EXPECT_EQ(fast.degraded_normalized_max_load,
              legacy.degraded_normalized_max_load)
        << kind;
  }
}

// --- event simulator ------------------------------------------------------

EventSimConfig event_config_with(double rate, double duration,
                                 std::uint64_t seed = 1) {
  EventSimConfig c;
  c.query_rate = rate;
  c.duration_s = duration;
  c.queue_capacity = 100;
  c.seed = seed;
  return c;
}

TEST(FaultEventSim, EmptyScheduleIsBitTransparent) {
  const auto d = QueryDistribution::zipf(1000, 1.05);
  const FaultSchedule empty(20);
  Cluster baseline_cluster(make_partitioner("hash", 20, 3, 7), 500.0);
  Cluster faulted_cluster(make_partitioner("hash", 20, 3, 7), 500.0);
  PerfectCache cache(50, d);
  auto baseline_selector = make_selector("least-loaded");
  auto faulted_selector = make_selector("least-loaded");
  EventSimConfig config = event_config_with(5000.0, 1.0, 9);
  const EventSimResult baseline = simulate_events(
      baseline_cluster, cache, d, *baseline_selector, config);
  config.faults = &empty;
  const EventSimResult faulted = simulate_events(
      faulted_cluster, cache, d, *faulted_selector, config);
  EXPECT_EQ(faulted.node_arrivals, baseline.node_arrivals);
  EXPECT_EQ(faulted.cache_hits, baseline.cache_hits);
  EXPECT_EQ(faulted.dropped, baseline.dropped);
  EXPECT_EQ(faulted.unserved, 0u);
  EXPECT_EQ(faulted.retries, 0u);
  EXPECT_EQ(faulted.min_alive_nodes, 20u);
}

TEST(FaultEventSim, TotalOutageWindowGoesUnserved) {
  // d = n: every key's group is the whole cluster, so a full-cluster crash
  // window makes queries in [0.3, 0.6) unservable and nothing else.
  const auto d = QueryDistribution::uniform(100);
  Cluster cluster(make_partitioner("hash", 4, 4, 2), 1e6);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultSchedule schedule(4);
  for (NodeId n = 0; n < 4; ++n) {
    schedule.add_crash(n, 0.3, 0.6);
  }
  EventSimConfig config = event_config_with(2000.0, 1.0);
  config.faults = &schedule;
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config);
  EXPECT_EQ(r.min_alive_nodes, 0u);
  EXPECT_GT(r.unserved, 0u);
  // ~30% of the horizon is dark; Poisson noise stays well inside +-10 pts.
  EXPECT_NEAR(r.unserved_ratio, 0.3, 0.1);
  EXPECT_EQ(r.total_queries, r.cache_hits + r.backend_arrivals + r.unserved);
}

TEST(FaultEventSim, CrashLosesBacklogRecoveryRejoinsEmpty) {
  // One node, saturated queue, crash mid-run: the backlog is lost (counted
  // in crash_lost) and the node rejoins empty after recovery.
  const auto d = QueryDistribution::uniform(10);
  Cluster cluster(make_partitioner("hash", 1, 1, 2), 100.0);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultSchedule schedule(1);
  schedule.add_crash(0, 0.5, 0.6);
  EventSimConfig config = event_config_with(1000.0, 1.0);
  config.faults = &schedule;
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config);
  // 1000 qps against 100 qps capacity: ~100 queries queued by t = 0.5.
  EXPECT_GT(r.crash_lost, 50u);
  EXPECT_EQ(r.min_alive_nodes, 0u);
  // Queries during the outage window are unserved; the rest are routed.
  EXPECT_GT(r.unserved, 0u);
  EXPECT_EQ(r.total_queries, r.cache_hits + r.backend_arrivals + r.unserved);
}

TEST(FaultEventSim, SlowNodeStretchesWaits) {
  const auto d = QueryDistribution::uniform(200);
  auto selector = make_selector("least-loaded");
  PerfectCache cache(0, d);
  const EventSimConfig healthy_config = event_config_with(3000.0, 1.0);

  Cluster healthy(make_partitioner("hash", 4, 2, 3), 1000.0);
  const EventSimResult fast = simulate_events(healthy, cache, d, *selector,
                                              healthy_config);

  FaultSchedule schedule(4);
  for (NodeId n = 0; n < 4; ++n) {
    schedule.add_slow(n, 0.0, 1.0, 8.0);
  }
  Cluster degraded(make_partitioner("hash", 4, 2, 3), 1000.0);
  auto slow_selector = make_selector("least-loaded");
  EventSimConfig slow_config = event_config_with(3000.0, 1.0);
  slow_config.faults = &schedule;
  const EventSimResult slow = simulate_events(degraded, cache, d,
                                              *slow_selector, slow_config);
  EXPECT_GT(slow.wait_us.mean(), fast.wait_us.mean());
}

TEST(FaultEventSim, LossyLinksTriggerRetries) {
  const auto d = QueryDistribution::uniform(200);
  Cluster cluster(make_partitioner("hash", 6, 3, 3), 1e6);
  PerfectCache cache(0, d);
  auto selector = make_selector("least-loaded");
  FaultSchedule schedule(6);
  for (NodeId n = 0; n < 6; ++n) {
    schedule.add_network_drop(n, 0.0, 1.0, 0.5);
  }
  EventSimConfig config = event_config_with(3000.0, 1.0);
  config.faults = &schedule;
  config.retry.max_retries = 3;
  const EventSimResult r = simulate_events(cluster, cache, d, *selector,
                                           config);
  EXPECT_GT(r.retries, 0u);
  // p = 0.5, 4 attempts: ~1/16 of routed queries still fail.
  EXPECT_NEAR(r.unserved_ratio, 1.0 / 16.0, 0.03);
  EXPECT_EQ(r.total_queries, r.cache_hits + r.backend_arrivals + r.unserved);
}

TEST(FaultEventSim, FaultedRunsDeterministicAcrossPaths) {
  const auto d = QueryDistribution::zipf(1000, 1.05);
  const auto partitioner = make_partitioner("hash", 12, 3, 4);
  const PlacementIndex index(*partitioner, 1000);
  EventSimScratch scratch;
  FaultSchedule schedule(12);
  schedule.add_crash(2, 0.2, 0.7);
  schedule.add_crash(5, 0.1);
  schedule.add_slow(7, 0.0, 1.0, 4.0);
  schedule.add_network_drop(9, 0.3, 0.9, 0.4);
  auto run = [&](bool fast) {
    Cluster cluster(make_partitioner("hash", 12, 3, 4), 400.0);
    PerfectCache cache(30, d);
    auto selector = make_selector("least-loaded");
    EventSimConfig config = event_config_with(4000.0, 1.0, 21);
    config.faults = &schedule;
    return fast ? simulate_events(cluster, cache, d, *selector, config,
                                  &index, &scratch)
                : simulate_events(cluster, cache, d, *selector, config);
  };
  const EventSimResult legacy = run(false);
  const EventSimResult repeat = run(false);
  const EventSimResult fast = run(true);
  for (const EventSimResult* other : {&repeat, &fast}) {
    EXPECT_EQ(other->node_arrivals, legacy.node_arrivals);
    EXPECT_EQ(other->unserved, legacy.unserved);
    EXPECT_EQ(other->retries, legacy.retries);
    EXPECT_EQ(other->crash_lost, legacy.crash_lost);
    EXPECT_EQ(other->dropped, legacy.dropped);
    EXPECT_EQ(other->min_alive_nodes, legacy.min_alive_nodes);
  }
}

// The pinned selector is handed only a key's live replicas: a key pinned
// before the crash to the node that crashed is re-pinned to a survivor.
TEST(FaultEventSim, PinnedRoutingRepinsAroundACrash) {
  const auto d = QueryDistribution::uniform(400);
  const auto partitioner = make_partitioner("hash", 4, 2, 6);
  const PlacementIndex index(*partitioner, 400);
  EventSimScratch scratch;
  FaultSchedule schedule(4);
  schedule.add_crash(1, 0.3);
  auto run = [&](bool fast) {
    Cluster cluster(make_partitioner("hash", 4, 2, 6), 1e6);
    PerfectCache cache(0, d);
    auto selector = make_selector("pinned");
    EventSimConfig config = event_config_with(4000.0, 1.0, 5);
    config.faults = &schedule;
    return fast ? simulate_events(cluster, cache, d, *selector, config,
                                  &index, &scratch)
                : simulate_events(cluster, cache, d, *selector, config);
  };
  const EventSimResult legacy = run(false);
  const EventSimResult fast = run(true);
  EXPECT_EQ(legacy.min_alive_nodes, 3u);
  EXPECT_EQ(legacy.unserved, 0u) << "d = 2 leaves every key a survivor";
  EXPECT_EQ(legacy.total_queries, legacy.backend_arrivals);
  EXPECT_EQ(fast.node_arrivals, legacy.node_arrivals);
}

// --- scenario / sweep plumbing -------------------------------------------

TEST(FaultScenario, GainSweepWithFaultsThreadCountInvariant) {
  // Faulted Monte-Carlo sweeps must stay bit-identical regardless of worker
  // threads — the determinism half of the acceptance bar.
  FaultView faults(20);
  faults.alive[3] = faults.alive[11] = 0;
  faults.alive_count = 18;
  faults.slow[0] = 2.0;
  ScenarioConfig config;
  config.params.nodes = 20;
  config.params.replication = 3;
  config.params.items = 2000;
  config.params.cache_size = 50;
  config.params.query_rate = 20000.0;
  config.faults = &faults;
  const auto attack = QueryDistribution::uniform_over(51, 2000);
  const GainSweep::Point point{&attack, 50};

  GainSweepOptions serial;
  serial.threads = 1;
  GainSweepOptions parallel;
  parallel.threads = 4;
  const auto a =
      GainSweep(config, 12, 99, serial).run(std::span(&point, 1)).front();
  const auto b =
      GainSweep(config, 12, 99, parallel).run(std::span(&point, 1)).front();
  EXPECT_EQ(a.max_gain, b.max_gain);
  EXPECT_EQ(a.summary.mean, b.summary.mean);
  EXPECT_EQ(a.summary.p99, b.summary.p99);
}

TEST(FaultScenario, GainTrialFaultsReduceEffectiveChoices) {
  // Killing all but one replica per group degrades the power-of-d-choices
  // to d' = 1: the max load cannot improve. Weak sanity, exact per-seed.
  ScenarioConfig config;
  config.params.nodes = 10;
  config.params.replication = 2;
  config.params.items = 1000;
  config.params.cache_size = 0;
  config.params.query_rate = 10000.0;
  const double healthy = gain_trial(
      config, QueryDistribution::uniform(1000), 7);

  FaultView faults(10);
  for (NodeId n = 5; n < 10; ++n) {
    faults.alive[n] = 0;
  }
  faults.alive_count = 5;
  config.faults = &faults;
  const double degraded = gain_trial(
      config, QueryDistribution::uniform(1000), 7);
  EXPECT_GE(degraded, healthy);
}

}  // namespace
}  // namespace scp
