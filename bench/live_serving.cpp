// Live serving tier under open-loop load — the paper's rate-simulator
// claims measured on a real TCP request path.
//
// Stands a full loopback tier up in-process through net::LocalTier (n
// backends plus one front end, each on its own reactor thread), then
// replays a query distribution against it from open-loop client threads:
// arrivals are scheduled by a Poisson process at the configured aggregate
// rate and latency is measured from the *scheduled* send time, so a slow
// server cannot hide queueing delay by slowing the clients down (no
// coordinated omission).
//
// The headline check: the live normalized max load — max over backends of
// GETs served, divided by the even split completed/n — is compared against
// the rate simulator's prediction for the *same* partition seed, cache size
// and distribution. For --preset adversarial with --x 0 the bench first
// lets the adversary pick their best x by sweeping predicted gain, exactly
// how the paper's attacker would plan against a known c.
//
// --fe-shards N runs the front end as N SO_REUSEPORT reactors (cache split
// c/N across them); --shard-sweep 1,2,4 repeats the whole measurement per
// shard count and emits one table row each, which is how the front-end
// scaling curve in EXPERIMENTS.md is produced.
//
// --fe-fleet N runs the front end as a DistCache-style *fleet*: N separate
// FrontendServer instances (fleet hash-partitioning the aggregate cache c
// across them, single-copy) behind an in-process RouterServer that sends
// each key to its owning member (its alternate while the owner is down)
// and follows FE-to-FE REDIRECTs. Clients talk to the router; the per-FE
// request/hit spread and the backend best_gain land in the same table/JSON
// row (fe_fleet, fe_requests, fe_hits columns). --fe-fleet 1 keeps the
// classic direct single-frontend path, byte-identical to earlier revisions.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cache/perfect_cache.h"
#include "cluster/cluster.h"
#include "cluster/partitioner.h"
#include "cluster/routing.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sampling.h"
#include "common/table.h"
#include "net/local_tier.h"
#include "net/sync_client.h"
#include "obs/metrics.h"
#include "sim/rate_sim.h"
#include "workload/distribution.h"

namespace {

using namespace scp;
using namespace scp::bench;
using Clock = std::chrono::steady_clock;

struct LiveFlags {
  std::uint64_t n = 8;           // backends
  std::uint64_t d = 2;           // replication
  std::uint64_t m = 4096;        // key space
  std::uint64_t c = 4;           // front-end cache entries
  std::uint64_t x = 0;           // adversarial: queried keys (0 = best x)
  double theta = 0.9;            // zipf exponent
  std::string preset = "adversarial";  // adversarial | zipf | flat
  double rate = 3000.0;          // aggregate open-loop qps
  double duration = 3.0;         // measured seconds
  double warmup = 0.5;           // unrecorded seconds before measuring
  std::uint64_t threads = 4;     // load generator threads
  std::string cache = "perfect";
  std::string partitioner = "hash";
  std::uint64_t value_bytes = 64;
  std::uint64_t seed = 20130708;
  std::uint64_t fe_shards = 1;   // front-end reactor shards
  std::uint64_t fe_fleet = 1;    // front-end fleet width (1 = no router)
  std::string shard_sweep;       // "1,2,4": one full run per shard count
  double write_frac = 0.0;       // fraction of ops issued as quorum PUTs
  std::string attack;            // "" | invalidate | adaptive
  double shift_period = 1.0;     // adaptive: seconds between key-set shifts
  bool detect = false;           // hot-key detection + FE mitigation
  double detect_interval_ms = 100.0;  // backend report/aging cadence
  double detect_threshold = 0.02;     // aggregated hot-share entry bound
  std::uint64_t detect_min_samples = 256;
  std::uint64_t write_quorum = 0;  // W (0 = majority of d)
  std::uint64_t read_quorum = 0;   // R (0 = majority of d)
  std::string csv;
  std::string json;
};

/// The one pin rule: the live front end routes its misses through it and
/// the rate simulator predicts with it. The simulator places each key once,
/// so its prediction equals least-loaded's, draw for draw.
constexpr const char* kSelector = "pinned";

/// Predicted attack gain (Definition 1) for this distribution against the
/// exact partition the live cluster runs: same partitioner kind and seed.
double predict_gain(const LiveFlags& flags, const QueryDistribution& dist,
                    std::uint64_t partition_seed, std::uint64_t sim_seed) {
  Cluster cluster(make_partitioner(
      flags.partitioner, static_cast<std::uint32_t>(flags.n),
      static_cast<std::uint32_t>(flags.d), partition_seed));
  PerfectCache cache(flags.c, dist);
  auto selector = make_selector(kSelector);
  RateSimConfig config;
  config.query_rate = flags.rate;
  config.seed = sim_seed;
  return simulate_rates(cluster, cache, dist, *selector, config)
      .normalized_max_load;
}

/// The adversary's planning step: sweep x over [c+1, m] and keep the x with
/// the highest predicted gain against the live partition.
std::uint64_t best_adversarial_x(const LiveFlags& flags,
                                 std::uint64_t partition_seed,
                                 std::uint64_t sim_seed) {
  const std::uint64_t lo = std::min(flags.c + 1, flags.m);
  std::vector<std::uint64_t> candidates = log_spaced(lo, flags.m, 17);
  // The optimum often sits right above c; make sure the sweep has the first
  // few x values exactly.
  for (std::uint64_t x = lo; x < std::min(lo + 8, flags.m + 1); ++x) {
    candidates.push_back(x);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());

  std::uint64_t best_x = lo;
  double best_gain = -1.0;
  for (std::uint64_t x : candidates) {
    const QueryDistribution dist = QueryDistribution::uniform_over(x, flags.m);
    const double gain = predict_gain(flags, dist, partition_seed, sim_seed);
    if (gain > best_gain) {
      best_gain = gain;
      best_x = x;
    }
  }
  return best_x;
}

struct WorkerResult {
  std::uint64_t completed = 0;  // VALUE or MISS replies inside the window
  std::uint64_t failures = 0;   // kError replies, timeouts, dead connection
  std::uint64_t puts = 0;          // acked quorum writes inside the window
  std::uint64_t put_failures = 0;  // write kErrors/timeouts inside the window
  LogHistogram latency_us{5};  // from the *scheduled* send (open-loop e2e)
  LogHistogram service_us{5};  // from the actual send (network + server)
};

/// Mixed read/write knobs for one worker. With attack == "invalidate" the
/// writers aim every PUT at the front-end cache's own working set (the
/// rank prefix [0, c)): each write drops a cached key's bytes, so the FE
/// must forward the next GET for it to refill the slot — version churn
/// turning the cache itself into attack surface.
struct WriteMix {
  double write_frac = 0.0;
  bool attack_invalidate = false;
  std::uint64_t cache_entries = 0;  // c (invalidate target range)
  std::uint64_t items = 0;          // m
  std::uint64_t value_bytes = 64;
};

/// Read-side adaptive adversary (--attack adaptive): the adversarial
/// preset's attacked window [0, x) rotates to a fresh x-key window every
/// shift period — phase p queries [(p·x) mod m, …) — so any mitigation
/// trained on the previous set starts cold again at each shift. Workers
/// derive the phase from the scheduled arrival offset, which keeps every
/// thread (and the detect timeline sampler) on the same phase clock.
struct AdaptiveAttack {
  bool enabled = false;
  double shift_period_s = 1.0;
  std::uint64_t x = 0;
  std::uint64_t m = 0;
};

/// One open-loop client: Poisson arrivals at `rate` qps, latency measured
/// from the scheduled arrival. Samples scheduled before `measure_from` are
/// sent (they warm caches and pins) but not recorded; one scheduled later
/// is held until `window_open`, so the servers' window counts it. Every
/// completed GET also bumps `live_completed` (warmup included) — the
/// denominator feed for the detect timeline's windowed gain.
void run_worker(const std::string& address, std::uint16_t port,
                const AliasSampler& sampler, double rate, Clock::time_point start,
                Clock::time_point measure_from, Clock::time_point end,
                const std::atomic<bool>& window_open, std::uint64_t seed,
                const WriteMix& mix, const AdaptiveAttack& attack,
                std::atomic<std::uint64_t>& live_completed,
                WorkerResult& result) {
  net::SyncClient client;
  if (!client.connect(address, port, 2.0)) {
    result.failures += 1;
    return;
  }
  Rng rng(seed);
  // A real writer's bytes: none that an earlier write sent (this worker's
  // seed and write count), padded to the stored value size.
  const std::string write_tag = "w" + std::to_string(seed) + ".";
  std::uint64_t writes = 0;
  double offset_s = 0.0;  // scheduled arrival, relative to start
  while (true) {
    offset_s += rng.exponential(rate);
    const auto scheduled =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(offset_s));
    if (scheduled >= end) break;
    std::this_thread::sleep_until(scheduled);
    if (scheduled >= measure_from) window_open.wait(false);

    const bool is_write =
        mix.write_frac > 0.0 && rng.bernoulli(mix.write_frac);
    std::uint64_t key = sampler.sample(rng);
    if (attack.enabled && key < attack.x && attack.m > 0) {
      const auto phase =
          static_cast<std::uint64_t>(offset_s / attack.shift_period_s);
      key = (key + phase * attack.x) % attack.m;
    }
    if (is_write && mix.attack_invalidate) {
      const std::uint64_t span =
          std::max<std::uint64_t>(std::min(mix.cache_entries, mix.items), 1);
      key = rng.uniform_u64(span);  // aim at the cached prefix
    }
    const auto sent = Clock::now();
    std::optional<net::Message> reply;
    if (is_write) {
      net::Message request;
      request.type = net::MsgType::kPut;
      request.key = key;
      request.payload = write_tag + std::to_string(++writes) + ":";
      request.payload.resize(
          std::max<std::size_t>(request.payload.size(), mix.value_bytes), 'x');
      reply = client.call(request, 1.0);
    } else {
      reply = client.get(key, 1.0);
    }
    const auto done = Clock::now();
    const bool record = scheduled >= measure_from;

    if (!reply.has_value()) {
      if (record) (is_write ? result.put_failures : result.failures) += 1;
      if (!client.connected() && !client.connect(address, port, 1.0)) {
        return;  // front end is gone; give up
      }
      continue;
    }
    if (reply->type == net::MsgType::kError) {
      if (record) (is_write ? result.put_failures : result.failures) += 1;
      continue;
    }
    if (!is_write) live_completed.fetch_add(1, std::memory_order_relaxed);
    if (record) {
      (is_write ? result.puts : result.completed) += 1;
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          done - scheduled)
                          .count();
      result.latency_us.record(static_cast<std::uint64_t>(std::max<long long>(
          us, 1)));
      const auto svc_us =
          std::chrono::duration_cast<std::chrono::microseconds>(done - sent)
              .count();
      result.service_us.record(static_cast<std::uint64_t>(
          std::max<long long>(svc_us, 1)));
    }
  }
}

/// Every server's metrics snapshot, read in-process: the backends by NodeId,
/// the members by fleet index, and the router (empty without one).
struct TierMetrics {
  std::vector<obs::MetricsSnapshot> backends;
  std::vector<obs::MetricsSnapshot> members;
  obs::MetricsSnapshot router;
};

TierMetrics snapshot_tier(const net::LocalTier& tier) {
  TierMetrics metrics;
  for (const auto& backend : tier.backends) {
    metrics.backends.push_back(backend->metrics_snapshot());
  }
  for (const auto& member : tier.frontends) {
    metrics.members.push_back(member->metrics_snapshot());
  }
  if (tier.router != nullptr) metrics.router = tier.router->metrics_snapshot();
  return metrics;
}

/// `end` with each counter less its value in `start`: what the measured
/// window added. Gauges and timers stay as in `end` (a histogram cannot be
/// subtracted), so the timers include the warm-up.
obs::MetricsSnapshot since(const obs::MetricsSnapshot& start,
                           obs::MetricsSnapshot end) {
  for (auto& [name, value] : end.counters) {
    const auto it = start.counters.find(name);
    if (it != start.counters.end()) value -= it->second;
  }
  return end;
}

TierMetrics since(const TierMetrics& start, TierMetrics end) {
  for (std::size_t i = 0; i < end.backends.size(); ++i) {
    end.backends[i] = since(start.backends[i], std::move(end.backends[i]));
  }
  for (std::size_t i = 0; i < end.members.size(); ++i) {
    end.members[i] = since(start.members[i], std::move(end.members[i]));
  }
  end.router = since(start.router, std::move(end.router));
  return end;
}

/// A named counter, or 0 when the snapshot has none.
std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

/// p99 of a named server-side timer, or 0 when the timer is absent or empty.
std::uint64_t timer_p99(const obs::MetricsSnapshot& snap,
                        const std::string& name) {
  const auto it = snap.timers.find(name);
  return it != snap.timers.end() && it->second.count() > 0
             ? it->second.value_at_quantile(0.99)
             : 0;
}

/// "r0|r1|…": per-shard front-end request counts from the
/// "frontend.shardK.requests" series ("frontend.requests" when unsharded),
/// so a table row shows how evenly the kernel spread connections.
std::string shard_requests_cell(const obs::MetricsSnapshot& fe_metrics,
                                std::uint64_t fe_shards) {
  std::string cell;
  for (std::uint64_t k = 0; k < fe_shards; ++k) {
    const std::string name =
        fe_shards == 1 ? "frontend.requests"
                       : "frontend.shard" + std::to_string(k) + ".requests";
    if (!cell.empty()) cell += "|";
    cell += std::to_string(counter(fe_metrics, name));
  }
  return cell;
}

/// "a|b|c": one named counter per fleet member, in fleet index order — the
/// row-level view of how key ownership spread client load (fe_requests) and
/// where the cache slots live (fe_hits).
std::string fleet_counter_cell(
    const std::vector<obs::MetricsSnapshot>& member_metrics,
    const std::string& name) {
  std::string cell;
  for (const obs::MetricsSnapshot& snap : member_metrics) {
    if (!cell.empty()) cell += "|";
    cell += std::to_string(counter(snap, name));
  }
  return cell;
}

/// One detect-timeline probe: cumulative per-backend GET counters, the
/// client-side completed count and the FE detect counters, stamped on the
/// workers' phase clock (seconds since the load start).
struct DetectSample {
  double t = 0.0;
  std::vector<std::uint64_t> be_requests;
  std::uint64_t completed = 0;
  std::uint64_t flagged = 0;
  std::uint64_t prefetches = 0;
  std::uint64_t reprovisioned = 0;
};

/// Per adversary phase: when the key set shifted, how long detection took
/// to react (first FE flagged-counter increment after the shift), the worst
/// windowed normalized max load inside the phase, and how long the
/// excursion stayed above the 1.1 recovery bound.
struct PhaseStats {
  std::uint64_t phase = 0;
  double shift_t = 0.0;
  double detect_latency_s = -1.0;  ///< -1 = never detected in this phase
  double peak_gain = 0.0;
  double recovery_s = 0.0;  ///< time from shift to the last >1.1 window
  std::uint64_t flagged_delta = 0;
};

/// Windowed replay of the timeline: between consecutive samples the gain is
/// max-over-nodes of served GETs divided by the even client-side split
/// (Δcompleted/n) — the live normalized max load at ~100 ms resolution,
/// with the client count as denominator so a fully-absorbed attack reads
/// as gain ≈ 0, not 0/0 noise.
std::vector<PhaseStats> analyze_timeline(
    const std::vector<DetectSample>& timeline, std::uint64_t n,
    double shift_period_s) {
  std::vector<PhaseStats> phases;
  if (timeline.size() < 2 || shift_period_s <= 0.0) return phases;
  const double horizon = timeline.back().t;
  const auto phase_count =
      static_cast<std::uint64_t>(horizon / shift_period_s) + 1;
  for (std::uint64_t p = 0; p < phase_count; ++p) {
    PhaseStats stats;
    stats.phase = p;
    stats.shift_t = static_cast<double>(p) * shift_period_s;
    const double phase_end = stats.shift_t + shift_period_s;
    std::uint64_t flagged_at_shift = 0;
    for (const DetectSample& sample : timeline) {
      if (sample.t <= stats.shift_t) flagged_at_shift = sample.flagged;
    }
    std::uint64_t flagged_last = flagged_at_shift;
    for (std::size_t i = 1; i < timeline.size(); ++i) {
      const DetectSample& prev = timeline[i - 1];
      const DetectSample& cur = timeline[i];
      if (cur.t <= stats.shift_t || cur.t > phase_end) continue;
      if (stats.detect_latency_s < 0.0 && cur.flagged > flagged_at_shift) {
        stats.detect_latency_s = cur.t - stats.shift_t;
      }
      flagged_last = cur.flagged;
      const std::uint64_t d_completed = cur.completed - prev.completed;
      if (d_completed < n) continue;  // empty window: no gain estimate
      std::uint64_t max_delta = 0;
      for (std::size_t node = 0; node < cur.be_requests.size(); ++node) {
        max_delta =
            std::max(max_delta, cur.be_requests[node] - prev.be_requests[node]);
      }
      const double ideal =
          static_cast<double>(d_completed) / static_cast<double>(n);
      const double gain = static_cast<double>(max_delta) / ideal;
      stats.peak_gain = std::max(stats.peak_gain, gain);
      if (gain > 1.1) stats.recovery_s = cur.t - stats.shift_t;
    }
    stats.flagged_delta = flagged_last - flagged_at_shift;
    phases.push_back(stats);
  }
  return phases;
}

/// One full measurement at `fe_shards` front-end shards: stand the loopback
/// tier up, drive the open-loop load, read every server's metrics, and
/// append a row to `table`. Returns false when the tier fails to come up.
bool run_once(const LiveFlags& flags, std::uint64_t fe_shards, std::uint64_t x,
              const QueryDistribution& dist, double predicted,
              std::uint64_t partition_seed, TextTable& table) {
  // --- loopback tier ------------------------------------------------------
  net::BackendConfig backend;
  backend.nodes = static_cast<std::uint32_t>(flags.n);
  backend.replication = static_cast<std::uint32_t>(flags.d);
  backend.partitioner = flags.partitioner;
  backend.partition_seed = partition_seed;
  backend.items = flags.m;
  backend.value_bytes = static_cast<std::uint32_t>(flags.value_bytes);
  backend.write_quorum = static_cast<std::uint32_t>(flags.write_quorum);
  backend.read_quorum = static_cast<std::uint32_t>(flags.read_quorum);
  backend.detect = flags.detect;
  backend.detect_interval_s = flags.detect_interval_ms / 1000.0;
  // A fleet (fe_fleet > 1) shares one aggregate c, sliced per member, behind
  // the edge router; clients talk only to it. A single front end is served
  // directly, with no router hop.
  const std::uint64_t fleet = flags.fe_fleet == 0 ? 1 : flags.fe_fleet;
  net::FrontendConfig frontend;
  frontend.cache_policy = flags.cache;
  frontend.cache_capacity = flags.c;
  frontend.seed = derive_seed(flags.seed, 3);
  frontend.shards = static_cast<std::uint32_t>(fe_shards);
  frontend.fleet_size = static_cast<std::uint32_t>(fleet);
  frontend.fleet_seed = derive_seed(flags.seed, 5);
  frontend.detect = flags.detect;
  frontend.detect_hot_fraction = flags.detect_threshold;
  frontend.detect_min_samples = flags.detect_min_samples;
  // Writes need the replica mesh (quorum fan-out between backends);
  // read-only runs skip it.
  net::LocalTier tier(backend, /*mesh=*/flags.write_frac > 0.0, frontend);
  if (!tier.start()) {
    std::fprintf(stderr, "live_serving: the tier failed to come up\n");
    return false;
  }
  const std::uint16_t serve_port = tier.port();

  // --- open-loop load -----------------------------------------------------
  const AliasSampler sampler = dist.make_sampler();
  const double per_thread_rate = flags.rate / static_cast<double>(flags.threads);
  const auto start = Clock::now();
  const auto measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(flags.warmup));
  const auto end =
      measure_from + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(flags.duration));

  // Server counters bumped during warmup are excluded from the row the same
  // way warmup samples are excluded from latency: snapshot and subtract.
  // The window opens once the snapshot is taken; the workers hold measured
  // requests until then, so no measured request lands in the warmup.
  std::vector<WorkerResult> results(flags.threads);
  std::vector<std::thread> workers;
  TierMetrics warm;
  std::atomic<bool> window_open{false};
  std::thread snapshotter([&] {
    std::this_thread::sleep_until(measure_from);
    warm = snapshot_tier(tier);
    window_open.store(true);
    window_open.notify_all();
  });
  WriteMix mix;
  mix.write_frac = flags.write_frac;
  mix.attack_invalidate = flags.attack == "invalidate";
  mix.cache_entries = flags.c;
  mix.items = flags.m;
  mix.value_bytes = flags.value_bytes;
  AdaptiveAttack adaptive;
  adaptive.enabled = flags.attack == "adaptive";
  adaptive.shift_period_s = flags.shift_period;
  adaptive.x = x;
  adaptive.m = flags.m;

  // Detect timeline: ~100 ms probes of backend counters + FE detect
  // counters while the load runs, feeding the per-phase detection-latency /
  // excursion / recovery report below.
  std::atomic<std::uint64_t> live_completed{0};
  std::vector<DetectSample> timeline;
  std::atomic<bool> sampling{true};
  std::thread timeline_sampler;
  const bool want_timeline = flags.detect || adaptive.enabled;
  if (want_timeline) {
    timeline_sampler = std::thread([&] {
      while (sampling.load(std::memory_order_relaxed)) {
        DetectSample sample;
        sample.t = std::chrono::duration<double>(Clock::now() - start).count();
        sample.be_requests.resize(flags.n);
        for (std::uint32_t node = 0; node < flags.n; ++node) {
          sample.be_requests[node] = tier.backends[node]->stats().requests;
        }
        sample.completed = live_completed.load(std::memory_order_relaxed);
        for (const auto& member : tier.frontends) {
          const obs::MetricsSnapshot snap = member->metrics_snapshot();
          sample.flagged += counter(snap, "detect.flagged_keys");
          sample.prefetches += counter(snap, "detect.prefetches");
          sample.reprovisioned += counter(snap, "detect.reprovisioned");
        }
        timeline.push_back(std::move(sample));
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
  }
  for (std::uint64_t t = 0; t < flags.threads; ++t) {
    workers.emplace_back(run_worker, "127.0.0.1", serve_port,
                         std::cref(sampler), per_thread_rate, start,
                         measure_from, end, std::cref(window_open),
                         derive_seed(flags.seed, 100 + t), std::cref(mix),
                         std::cref(adaptive), std::ref(live_completed),
                         std::ref(results[t]));
  }
  for (std::thread& worker : workers) worker.join();
  snapshotter.join();
  sampling.store(false, std::memory_order_relaxed);
  if (timeline_sampler.joinable()) timeline_sampler.join();

  // --- collect ------------------------------------------------------------
  // Every counter below is the measured window's: the warmup snapshot is
  // subtracted server by server. Server timers cover warmup traffic too,
  // which only biases them *upward* relative to the measured window — fine
  // for the client-vs-server consistency check below.
  const TierMetrics window = since(warm, snapshot_tier(tier));
  tier.stop();
  obs::MetricsSnapshot fe_metrics;
  for (const obs::MetricsSnapshot& snap : window.members) {
    fe_metrics.merge(snap);
  }
  obs::MetricsSnapshot be_metrics;
  for (const obs::MetricsSnapshot& snap : window.backends) {
    be_metrics.merge(snap);
  }
  const auto fe_counter = [&fe_metrics](const char* name) {
    return counter(fe_metrics, name);
  };
  const std::uint64_t fe_syscalls = fe_counter("loop.syscalls");
  const std::uint64_t batch_frames = fe_counter("frontend.batch_frames");
  const std::uint64_t batch_keys = fe_counter("frontend.batch_keys");
  const std::uint64_t coalesced = fe_counter("frontend.coalesced");
  const std::uint64_t invalidations = fe_counter("frontend.invalidations");
  const std::uint64_t be_replications =
      counter(be_metrics, "backend.replications");
  const std::uint64_t be_rebalanced =
      counter(be_metrics, "backend.rebalanced_keys");

  std::uint64_t completed = 0;
  std::uint64_t failures = 0;
  std::uint64_t puts = 0;
  std::uint64_t put_failures = 0;
  LogHistogram latency_us(5);
  LogHistogram cli_service_us(5);
  for (const WorkerResult& result : results) {
    completed += result.completed;
    failures += result.failures;
    puts += result.puts;
    put_failures += result.put_failures;
    latency_us.merge(result.latency_us);
    cli_service_us.merge(result.service_us);
  }

  TextTable backend_table({"node", "requests", "hits", "redirects", "share"});
  std::uint64_t max_backend = 0;
  for (std::uint32_t node = 0; node < flags.n; ++node) {
    const obs::MetricsSnapshot& snap = window.backends[node];
    const std::uint64_t measured = counter(snap, "backend.requests");
    max_backend = std::max(max_backend, measured);
    backend_table.add_row(
        {static_cast<std::int64_t>(node), static_cast<std::int64_t>(measured),
         static_cast<std::int64_t>(counter(snap, "backend.hits")),
         static_cast<std::int64_t>(counter(snap, "backend.redirects")),
         completed > 0 ? static_cast<double>(measured) /
                             static_cast<double>(completed)
                       : 0.0});
  }

  const double ideal =
      static_cast<double>(completed) / static_cast<double>(flags.n);
  const double live_gain =
      ideal > 0.0 ? static_cast<double>(max_backend) / ideal : 0.0;
  const double throughput =
      static_cast<double>(completed) / flags.duration;
  // Syscall economics of the front end's data plane over the measured
  // window. rps_per_core charges each SO_REUSEPORT shard of each fleet
  // member as one core (the router's core, shared by the whole fleet, is
  // not billed here).
  const double rps_per_core =
      throughput / static_cast<double>(fleet * fe_shards);
  const double syscalls_per_req =
      completed > 0
          ? static_cast<double>(fe_syscalls) / static_cast<double>(completed)
          : 0.0;
  // FE->BE request frames over the measured window: every attempt is one
  // per-key send, but attempts that rode a kBatchGet share its single frame
  // — so frames = (plain attempts) + (batch frames). batch_fill is how full
  // those batch frames ran; coalescing shrinks attempts itself (parked
  // waiters never reach the wire).
  const std::uint64_t fe_be_frames =
      fe_counter("frontend.attempts_total") - batch_keys + batch_frames;
  const double frames_per_req =
      completed > 0
          ? static_cast<double>(fe_be_frames) / static_cast<double>(completed)
          : 0.0;
  const double batch_fill =
      batch_frames > 0 ? static_cast<double>(batch_keys) /
                             static_cast<double>(batch_frames)
                       : 0.0;
  // Open-loop honesty check: when the cluster cannot absorb the offered
  // rate, throughput is server-bound and the latency columns include queue
  // wait — flag the row instead of letting it read as capacity.
  const bool rate_bound = throughput < 0.95 * flags.rate;
  const std::uint64_t fe_requests = fe_counter("frontend.requests");
  const double hit_ratio =
      fe_requests > 0 ? static_cast<double>(fe_counter("frontend.hits")) /
                            static_cast<double>(fe_requests)
                      : 0.0;

  std::printf("[fe_fleet=%llu fe_shards=%llu] per-backend load (measured "
              "window):\n%s\n",
              static_cast<unsigned long long>(fleet),
              static_cast<unsigned long long>(fe_shards),
              backend_table.render().c_str());
  std::printf("[fe_fleet=%llu fe_shards=%llu] offered=%.0f qps "
              "achieved=%.0f qps (%.1f%%)%s | rps/core=%.0f "
              "fe_syscalls/req=%.2f fe_be_frames/req=%.3f coalesced=%llu "
              "batch_fill=%.1f\n\n",
              static_cast<unsigned long long>(fleet),
              static_cast<unsigned long long>(fe_shards),
              flags.rate, throughput,
              flags.rate > 0 ? 100.0 * throughput / flags.rate : 0.0,
              rate_bound ? " RATE-BOUND" : "", rps_per_core,
              syscalls_per_req, frames_per_req,
              static_cast<unsigned long long>(coalesced), batch_fill);
  if (flags.write_frac > 0.0) {
    std::printf("[fe_fleet=%llu fe_shards=%llu] write mix%s: puts=%llu "
                "put_failures=%llu fe_invalidations=%llu "
                "be_replications=%llu\n\n",
                static_cast<unsigned long long>(fleet),
                static_cast<unsigned long long>(fe_shards),
                mix.attack_invalidate ? " (attack=invalidate)" : "",
                static_cast<unsigned long long>(puts),
                static_cast<unsigned long long>(put_failures),
                static_cast<unsigned long long>(invalidations),
                static_cast<unsigned long long>(be_replications));
  }
  if (fleet > 1) {
    const auto router_counter = [&window](const char* name) {
      return static_cast<unsigned long long>(counter(window.router, name));
    };
    std::printf("[fe_fleet=%llu] router: requests=%llu forwarded=%llu "
                "redirects=%llu failures=%llu | per-FE requests: %s | "
                "per-FE hits: %s\n\n",
                static_cast<unsigned long long>(fleet),
                router_counter("router.requests"),
                router_counter("router.forwarded"),
                router_counter("router.redirects_followed"),
                router_counter("router.failures"),
                fleet_counter_cell(window.members, "frontend.requests")
                    .c_str(),
                fleet_counter_cell(window.members, "frontend.hits").c_str());
  }

  // --- detect timeline ----------------------------------------------------
  // Per-phase report for the adaptive adversary (one phase covering the
  // whole run when the key set never shifts): detection latency from each
  // shift, the worst ~100 ms-windowed normalized max load, and how long the
  // excursion stayed above the 1.1 recovery bound. det_latency_s == -1
  // means no FE flag fired in that phase (expected with --detect off).
  double det_latency = -1.0;
  bool det_scored = false;
  double peak_gain_w = 0.0;
  double recover_s = 0.0;
  if (want_timeline && timeline.size() >= 2) {
    const double horizon = timeline.back().t;
    const double period = adaptive.enabled ? adaptive.shift_period_s
                                           : horizon + 1.0;
    const std::vector<PhaseStats> phases =
        analyze_timeline(timeline, flags.n, period);
    TextTable detect_table({"phase", "shift_s", "det_latency_s",
                            "peak_gain_w", "recover_s", "flagged_delta"});
    for (const PhaseStats& phase : phases) {
      detect_table.add_row({static_cast<std::int64_t>(phase.phase),
                            phase.shift_t, phase.detect_latency_s,
                            phase.peak_gain, phase.recovery_s,
                            static_cast<std::int64_t>(phase.flagged_delta)});
      peak_gain_w = std::max(peak_gain_w, phase.peak_gain);
      recover_s = std::max(recover_s, phase.recovery_s);
      // Aggregate detection latency over the phases that had a fresh key
      // set to detect: every post-shift phase when adaptive, the single
      // phase otherwise. A phase cut short by the end of the run (< 0.3 s
      // observed) can't score a fair -1, so it is skipped; an unscored -1
      // stays sticky in det_latency.
      const bool fresh_set = !adaptive.enabled || phase.phase >= 1;
      if (!fresh_set || phase.shift_t > horizon - 0.3) continue;
      if (phase.detect_latency_s < 0.0) {
        det_latency = -1.0;
        det_scored = true;
      } else if (det_latency >= 0.0 || !det_scored) {
        det_latency = std::max(det_latency, phase.detect_latency_s);
        det_scored = true;
      }
    }
    std::printf("[detect=%d attack=%s] timeline (windowed gain = max backend "
                "GETs / (completed/n), ~100ms windows):\n%s\n",
                flags.detect ? 1 : 0,
                flags.attack.empty() ? "none" : flags.attack.c_str(),
                detect_table.render().c_str());
  }

  // --- latency decomposition ----------------------------------------------
  // Client side, two histograms per request:
  //   e2e        — scheduled send -> reply. Open-loop, coordinated-omission
  //                free: includes the wait behind earlier requests.
  //   service    — actual send -> reply: what the cluster itself cost
  //                (network + FE handling + any forward).
  // The gap between them is pure client-side queue wait. Server side, read
  // from each server's metrics while the tier ran:
  //   frontend.request_us  — FE kGet receipt -> reply written (hits+misses)
  //   frontend.forward_rtt_us — FE wire send -> backend reply (misses only)
  //   backend.service_us   — BE kGet receipt -> reply written
  // client service >= FE request and forward RTT >= backend service hold
  // sample-by-sample (each stage nests in the previous); the e2e p99 can sit
  // far above all of them whenever the offered rate bursts past the
  // synchronous clients' capacity.
  const std::uint64_t client_p99 = latency_us.value_at_quantile(0.99);
  const std::uint64_t cli_svc_p99 = cli_service_us.value_at_quantile(0.99);
  const std::uint64_t fe_p99 = timer_p99(fe_metrics, "frontend.request_us");
  const std::uint64_t rtt_p99 = timer_p99(fe_metrics, "frontend.forward_rtt_us");
  const std::uint64_t svc_p99 = timer_p99(be_metrics, "backend.service_us");
  TextTable decomp({"stage", "p99_us", "count"});
  const auto timer_count = [](const obs::MetricsSnapshot& snap,
                              const std::string& name) {
    const auto it = snap.timers.find(name);
    return static_cast<std::int64_t>(
        it != snap.timers.end() ? it->second.count() : 0);
  };
  decomp.add_row({std::string("client e2e (queue+svc)"),
                  static_cast<std::int64_t>(client_p99),
                  static_cast<std::int64_t>(completed)});
  decomp.add_row({std::string("client service"),
                  static_cast<std::int64_t>(cli_svc_p99),
                  static_cast<std::int64_t>(completed)});
  decomp.add_row({std::string("frontend request"),
                  static_cast<std::int64_t>(fe_p99),
                  timer_count(fe_metrics, "frontend.request_us")});
  decomp.add_row({std::string("forward rtt"),
                  static_cast<std::int64_t>(rtt_p99),
                  timer_count(fe_metrics, "frontend.forward_rtt_us")});
  decomp.add_row({std::string("backend service"),
                  static_cast<std::int64_t>(svc_p99),
                  timer_count(be_metrics, "backend.service_us")});
  std::printf("latency decomposition (server side includes warmup):\n%s\n",
              decomp.render().c_str());

  table.add_row({flags.preset,
                 static_cast<std::int64_t>(flags.preset == "adversarial" ? x
                                                                         : 0),
                 static_cast<std::int64_t>(fe_shards),
                 static_cast<std::int64_t>(fleet),
                 static_cast<std::int64_t>(completed), throughput,
                 rps_per_core, syscalls_per_req, frames_per_req,
                 static_cast<std::int64_t>(coalesced), batch_fill,
                 static_cast<std::int64_t>(rate_bound ? 1 : 0), hit_ratio,
                 static_cast<std::int64_t>(failures),
                 static_cast<std::int64_t>(max_backend), ideal, live_gain,
                 predicted,
                 predicted > 0.0 ? live_gain / predicted : 0.0,
                 static_cast<std::int64_t>(latency_us.value_at_quantile(0.50)),
                 static_cast<std::int64_t>(client_p99),
                 static_cast<std::int64_t>(
                     latency_us.value_at_quantile(0.999)),
                 static_cast<std::int64_t>(cli_svc_p99),
                 static_cast<std::int64_t>(fe_p99),
                 static_cast<std::int64_t>(rtt_p99),
                 static_cast<std::int64_t>(svc_p99),
                 shard_requests_cell(fe_metrics, fe_shards),
                 fleet_counter_cell(window.members, "frontend.requests"),
                 fleet_counter_cell(window.members, "frontend.hits"),
                 flags.write_frac, static_cast<std::int64_t>(puts),
                 static_cast<std::int64_t>(put_failures),
                 static_cast<std::int64_t>(invalidations),
                 static_cast<std::int64_t>(be_replications),
                 static_cast<std::int64_t>(be_rebalanced),
                 static_cast<std::int64_t>(flags.detect ? 1 : 0),
                 adaptive.enabled ? adaptive.shift_period_s : 0.0,
                 det_latency, peak_gain_w, recover_s,
                 static_cast<std::int64_t>(fe_counter("detect.flagged_keys")),
                 static_cast<std::int64_t>(fe_counter("detect.prefetches")),
                 static_cast<std::int64_t>(
                     fe_counter("detect.reprovisioned"))});
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // The acceptance-command form `--json` (bare, no path) means "write the
  // default file"; FlagSet wants a value, so synthesize one.
  std::vector<char*> args(argv, argv + argc);
  std::vector<std::string> rewritten;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string arg = args[i];
    const bool bare =
        (i + 1 == args.size()) ||
        (std::string(args[i + 1]).rfind("--", 0) == 0);
    if (arg == "--json" && bare) {
      rewritten.push_back("--json=live_serving.json");
    } else if (arg == "--csv" && bare) {
      rewritten.push_back("--csv=live_serving.csv");
    } else {
      rewritten.push_back(arg);
    }
  }
  std::vector<char*> argv2;
  for (std::string& arg : rewritten) argv2.push_back(arg.data());

  LiveFlags flags;
  FlagSet flag_set(
      "live_serving: open-loop load against a loopback scp cluster");
  flag_set.add_uint64("n", &flags.n, "number of backend servers");
  flag_set.add_uint64("d", &flags.d, "replica-group size");
  flag_set.add_uint64("m", &flags.m, "key space size");
  flag_set.add_uint64("c", &flags.c, "front-end cache entries");
  flag_set.add_uint64("x", &flags.x,
                      "adversarial queried keys (0 = adversary's best x)");
  flag_set.add_double("theta", &flags.theta, "zipf exponent (--preset zipf)");
  flag_set.add_string("preset", &flags.preset,
                      "workload: adversarial|zipf|flat");
  flag_set.add_double("rate", &flags.rate, "aggregate open-loop rate (qps)");
  flag_set.add_double("duration", &flags.duration, "measured seconds");
  flag_set.add_double("warmup", &flags.warmup,
                      "unrecorded warmup seconds before measuring");
  flag_set.add_uint64("threads", &flags.threads, "load generator threads");
  flag_set.add_string("cache", &flags.cache,
                      "front-end cache: perfect|none|lru|lfu|slru|tinylfu");
  flag_set.add_string("partitioner", &flags.partitioner,
                      "replica partitioner: hash|ring|rendezvous");
  flag_set.add_uint64("value-bytes", &flags.value_bytes, "stored value size");
  flag_set.add_uint64("seed", &flags.seed, "base seed");
  flag_set.add_uint64("fe-shards", &flags.fe_shards,
                      "front-end reactor shards (SO_REUSEPORT; cache split "
                      "c/N)");
  flag_set.add_uint64("fe-fleet", &flags.fe_fleet,
                      "front-end fleet width N: N FrontendServers (aggregate "
                      "cache c hash-partitioned across them) behind an edge "
                      "router; 1 = classic direct single front end");
  flag_set.add_string("shard-sweep", &flags.shard_sweep,
                      "comma-separated shard counts (e.g. 1,2,4): run the "
                      "full measurement once per count, one row each");
  flag_set.add_double("write-frac", &flags.write_frac,
                      "fraction of ops issued as quorum PUTs (0 = read-only; "
                      "> 0 wires the backend replica mesh)");
  flag_set.add_string("attack", &flags.attack,
                      "adversary: invalidate = every PUT targets the cached "
                      "rank prefix [0, c); adaptive = the adversarial read "
                      "window [0, x) rotates to a fresh x-key window every "
                      "--shift-period seconds");
  flag_set.add_double("shift-period", &flags.shift_period,
                      "adaptive attack: seconds between key-set shifts");
  flag_set.add_bool("detect", &flags.detect,
                    "hot-key detection: backends sketch served GETs and push "
                    "kHotKeyReport to the subscribed FE, which merges them, "
                    "classifies and mitigates (force-admit / re-provision)");
  flag_set.add_double("detect-interval-ms", &flags.detect_interval_ms,
                      "backend report + sketch-aging cadence");
  flag_set.add_double("detect-threshold", &flags.detect_threshold,
                      "aggregated share of the backend stream that flags a "
                      "key");
  flag_set.add_uint64("detect-min-samples", &flags.detect_min_samples,
                      "no hot-key classification below this aggregated "
                      "total");
  flag_set.add_uint64("write-quorum", &flags.write_quorum,
                      "W replica acks per write (0 = majority of d)");
  flag_set.add_uint64("read-quorum", &flags.read_quorum,
                      "R replica responses per quorum read (0 = majority)");
  flag_set.add_string("csv", &flags.csv, "also write the table to this CSV");
  flag_set.add_string("json", &flags.json,
                      "also write the standard bench record to this JSON");
  if (!flag_set.parse(static_cast<int>(argv2.size()), argv2.data())) return 2;

  if (flags.n == 0 || flags.d == 0 || flags.d > flags.n || flags.m == 0 ||
      flags.threads == 0) {
    std::fprintf(stderr, "live_serving: need n > 0, 0 < d <= n, m > 0\n");
    return 2;
  }
  if (flags.write_frac < 0.0 || flags.write_frac >= 1.0) {
    std::fprintf(stderr, "live_serving: need 0 <= --write-frac < 1\n");
    return 2;
  }
  if (!flags.attack.empty() && flags.attack != "invalidate" &&
      flags.attack != "adaptive") {
    std::fprintf(stderr,
                 "live_serving: unknown --attack '%s' (invalidate|adaptive)\n",
                 flags.attack.c_str());
    return 2;
  }
  if (flags.attack == "adaptive" &&
      (flags.preset != "adversarial" || flags.shift_period <= 0.0)) {
    std::fprintf(stderr,
                 "live_serving: --attack adaptive needs --preset adversarial "
                 "and --shift-period > 0\n");
    return 2;
  }
  std::vector<std::uint64_t> shard_counts;
  if (!flags.shard_sweep.empty()) {
    shard_counts = parse_u64_list(flags.shard_sweep);
  }
  if (shard_counts.empty()) {
    shard_counts.push_back(flags.fe_shards == 0 ? 1 : flags.fe_shards);
  }
  for (std::uint64_t& count : shard_counts) {
    if (count == 0) count = 1;
  }

  CommonFlags common;
  common.bench = "live_serving";
  common.nodes = flags.n;
  common.replication = flags.d;
  common.items = flags.m;
  common.rate = flags.rate;
  common.runs = 1;
  common.seed = flags.seed;
  common.threads = flags.threads;
  common.partitioner = flags.partitioner;
  common.selector = kSelector;
  common.csv = flags.csv;
  common.json = flags.json;

  const std::uint64_t partition_seed = derive_seed(flags.seed, 1);
  const std::uint64_t sim_seed = derive_seed(flags.seed, 2);

  // --- workload -----------------------------------------------------------
  std::uint64_t x = flags.x;
  if (flags.preset == "adversarial" && x == 0) {
    x = best_adversarial_x(flags, partition_seed, sim_seed);
  }
  QueryDistribution dist = QueryDistribution::uniform(flags.m);
  if (flags.preset == "adversarial") {
    dist = QueryDistribution::uniform_over(x, flags.m);
  } else if (flags.preset == "zipf") {
    dist = QueryDistribution::zipf(flags.m, flags.theta);
  } else if (flags.preset != "flat") {
    std::fprintf(stderr, "live_serving: unknown preset '%s'\n",
                 flags.preset.c_str());
    return 2;
  }
  const double predicted =
      predict_gain(flags, dist, partition_seed, sim_seed);

  std::printf("live_serving: n=%llu d=%llu m=%llu c=%llu preset=%s%s "
              "rate=%.0f duration=%.1fs threads=%llu cache=%s router=%s\n",
              static_cast<unsigned long long>(flags.n),
              static_cast<unsigned long long>(flags.d),
              static_cast<unsigned long long>(flags.m),
              static_cast<unsigned long long>(flags.c), flags.preset.c_str(),
              flags.preset == "adversarial"
                  ? (" x=" + std::to_string(x)).c_str()
                  : "",
              flags.rate, flags.duration,
              static_cast<unsigned long long>(flags.threads),
              flags.cache.c_str(), kSelector);
  std::printf("rate-sim prediction (same partition seed): gain=%.4f\n\n",
              predicted);

  TextTable table({"preset", "x", "fe_shards", "fe_fleet", "completed",
                   "throughput_qps", "rps_per_core",
                   "syscalls_per_req", "frames_per_req", "coalesced",
                   "batch_fill", "rate_bound", "hit_ratio", "failures",
                   "max_backend", "ideal", "live_gain", "predicted_gain",
                   "gain_ratio", "p50_us", "p99_us", "p999_us",
                   "cli_svc_p99_us", "fe_p99_us", "rtt_p99_us", "svc_p99_us",
                   "shard_requests", "fe_requests", "fe_hits", "write_frac",
                   "puts", "put_failures", "invalidations", "replications",
                   "rebalanced_keys", "detect", "shift_s", "det_latency_s",
                   "peak_gain_w", "recover_s", "flagged", "prefetches",
                   "reprovisioned"});
  for (std::uint64_t fe_shards : shard_counts) {
    if (!run_once(flags, fe_shards, x, dist, predicted, partition_seed,
                  table)) {
      return 1;
    }
  }
  finish_table(table, common);
  return 0;
}
