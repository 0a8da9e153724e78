// Micro-benchmarks (google-benchmark) for the hot paths of the simulation
// stack: hashing, sampling, partitioning, cache operations, balls-into-bins
// throws and whole rate-simulation trials. These bound how large an
// experiment the figure benches can afford.
#include <benchmark/benchmark.h>

#include <memory>

#include "cache/lru_cache.h"
#include "cache/tinylfu_cache.h"
#include "cluster/placement_index.h"
#include "core/scp.h"
#include "net/frame_loop.h"
#include "net/sync_client.h"
#include "net/wire.h"
#include "obs/metrics.h"

namespace {

using namespace scp;  // NOLINT: bench-local convenience

void BM_Mix64(benchmark::State& state) {
  std::uint64_t x = 0x12345678;
  for (auto _ : state) {
    x = mix64(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Mix64);

void BM_SipHash24(benchmark::State& state) {
  const SipKey key = sip_key_from_seed(1);
  std::uint64_t v = 0;
  for (auto _ : state) {
    v = siphash24(key, v);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_SipHash24);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_u64(1000));
  }
}
BENCHMARK(BM_RngUniform);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfSampler zipf(static_cast<std::uint64_t>(state.range(0)), 1.01);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(1000)->Arg(1000000);

void BM_AliasSample(benchmark::State& state) {
  const auto d = QueryDistribution::zipf(
      static_cast<std::uint64_t>(state.range(0)), 1.01);
  const AliasSampler sampler = d.make_sampler();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.sample(rng));
  }
}
BENCHMARK(BM_AliasSample)->Arg(1000)->Arg(1000000);

void BM_PartitionerReplicaGroup(benchmark::State& state) {
  const auto kind = static_cast<std::size_t>(state.range(0));
  const char* kinds[] = {"hash", "ring", "rendezvous"};
  const auto partitioner = make_partitioner(kinds[kind], 1000, 3, 7);
  std::vector<NodeId> group(3);
  KeyId key = 0;
  for (auto _ : state) {
    partitioner->replica_group(key++, std::span<NodeId>(group));
    benchmark::DoNotOptimize(group.data());
  }
  state.SetLabel(kinds[kind]);
}
BENCHMARK(BM_PartitionerReplicaGroup)->Arg(0)->Arg(1)->Arg(2);

void BM_PlacementIndexBuild(benchmark::State& state) {
  const auto kind = static_cast<std::size_t>(state.range(0));
  const char* kinds[] = {"hash", "ring", "rendezvous"};
  const std::uint64_t keys = 100000;
  const auto partitioner = make_partitioner(kinds[kind], 1000, 3, 7);
  for (auto _ : state) {
    const PlacementIndex index(*partitioner, keys);
    benchmark::DoNotOptimize(index.group(0));
  }
  state.SetLabel(kinds[kind]);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys));
}
BENCHMARK(BM_PlacementIndexBuild)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMillisecond);

void BM_LruAccess(benchmark::State& state) {
  LruCache cache(1024);
  const auto d = QueryDistribution::zipf(100000, 1.01);
  const AliasSampler sampler = d.make_sampler();
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(sampler.sample(rng)));
  }
}
BENCHMARK(BM_LruAccess);

void BM_TinyLfuAccess(benchmark::State& state) {
  TinyLfuCache cache(1024);
  const auto d = QueryDistribution::zipf(100000, 1.01);
  const AliasSampler sampler = d.make_sampler();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(sampler.sample(rng)));
  }
}
BENCHMARK(BM_TinyLfuAccess);

void BM_PerfectCacheAccess(benchmark::State& state) {
  const auto d = QueryDistribution::zipf(100000, 1.01);
  PerfectCache cache(1024, d);
  const AliasSampler sampler = d.make_sampler();
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.access(sampler.sample(rng)));
  }
}
BENCHMARK(BM_PerfectCacheAccess);

void BM_ThrowBalls(benchmark::State& state) {
  Rng rng(7);
  const auto balls = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_occupancy(balls, 1000, 3, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ThrowBalls)->Arg(10000)->Arg(100000);

void BM_RateSimTrial(benchmark::State& state) {
  const auto x = static_cast<std::uint64_t>(state.range(0));
  ScenarioConfig config;
  config.params.nodes = 1000;
  config.params.replication = 3;
  config.params.items = 100000;
  config.params.cache_size = 200;
  config.params.query_rate = 1e5;
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adversarial_gain_trial(config, x, seed++));
  }
}
BENCHMARK(BM_RateSimTrial)->Arg(201)->Arg(100000)->Unit(benchmark::kMicrosecond);

// The indexed fast path under the sweep pattern: partition + placement table
// built once, many simulations against it with reusable scratch. Contrast
// with BM_RateSimTrial, which pays partition construction + virtual hashing
// per trial.
void BM_RateSimTrialIndexed(benchmark::State& state) {
  const auto x = static_cast<std::uint64_t>(state.range(0));
  const std::uint64_t items = 100000;
  const auto distribution = QueryDistribution::uniform_over(x, items);
  Cluster cluster(make_partitioner("hash", 1000, 3, 7));
  const PlacementIndex index(cluster.partitioner(), items);
  const PerfectCache cache(200, distribution);
  auto selector = make_selector("least-loaded");
  RateSimScratch scratch;
  RateSimConfig config;
  config.query_rate = 1e5;
  config.seed = 1;
  for (auto _ : state) {
    ++config.seed;
    benchmark::DoNotOptimize(simulate_rates(cluster, cache, distribution,
                                            *selector, config, &index,
                                            &scratch));
  }
}
BENCHMARK(BM_RateSimTrialIndexed)
    ->Arg(201)
    ->Arg(100000)
    ->Unit(benchmark::kMicrosecond);

void BM_EventSimSecond(benchmark::State& state) {
  const auto d = QueryDistribution::zipf(10000, 1.01);
  auto selector = make_selector("least-loaded");
  std::uint64_t seed = 1;
  for (auto _ : state) {
    Cluster cluster(make_partitioner("hash", 100, 3, seed), 200.0);
    PerfectCache cache(100, d);
    EventSimConfig config;
    config.query_rate = 10000.0;
    config.duration_s = 1.0;
    config.seed = seed++;
    benchmark::DoNotOptimize(
        simulate_events(cluster, cache, d, *selector, config));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_EventSimSecond)->Unit(benchmark::kMillisecond);

// The obs layer's hot-path costs: these bound the instrumentation overhead
// the live servers pay per request (the ISSUE budget is <= 2% throughput).
void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.counter("bench.ops");
  for (auto _ : state) {
    counter.inc();
  }
  benchmark::DoNotOptimize(counter.value());
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsTimerRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Timer& timer = registry.timer("bench.latency_us");
  std::uint64_t v = 0x9e3779b9;
  for (auto _ : state) {
    v = mix64(v);
    timer.record(v >> 44);  // spread over the histogram's linear region
  }
}
BENCHMARK(BM_ObsTimerRecord);

// One timed request as the servers do it: now_ns() twice plus the record.
void BM_ObsRecordElapsed(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Timer& timer = registry.timer("bench.latency_us");
  for (auto _ : state) {
    const std::uint64_t start = obs::now_ns();
    obs::record_elapsed(&timer, start, 1'000);
  }
}
BENCHMARK(BM_ObsRecordElapsed);

// A scrape of a registry shaped like a live front end's (a handful of
// counters and gauges, per-node RTT timers): the cost the serving thread's
// spinlocks absorb a few times per second.
void BM_ObsRegistrySnapshot(benchmark::State& state) {
  obs::MetricsRegistry registry;
  for (int i = 0; i < 8; ++i) {
    registry.counter("bench.counter." + std::to_string(i)).inc();
    registry.gauge("bench.gauge." + std::to_string(i)).set(i);
    obs::Timer& timer = registry.timer("bench.timer." + std::to_string(i));
    for (std::uint64_t v = 1; v <= 4096; ++v) timer.record(v);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
}
BENCHMARK(BM_ObsRegistrySnapshot)->Unit(benchmark::kMicrosecond);

// Wire-frame encode, before/after the zero-allocation hot path. The
// serving tier encodes one frame per reply, so the gap between these two is
// the per-request allocation cost the reactors stopped paying when send()
// switched to encode_into() with pooled scratch. Arg = payload bytes.
void BM_WireEncode(benchmark::State& state) {
  net::Message message;
  message.type = net::MsgType::kValue;
  message.key = 42;
  message.payload = net::make_value(42, static_cast<std::uint32_t>(
                                            state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::encode(message));  // fresh vector per frame
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(message.payload.size()));
}
BENCHMARK(BM_WireEncode)->Arg(64)->Arg(4096);

void BM_WireEncodeInto(benchmark::State& state) {
  net::Message message;
  message.type = net::MsgType::kValue;
  message.key = 42;
  message.payload = net::make_value(42, static_cast<std::uint32_t>(
                                            state.range(0)));
  std::vector<std::uint8_t> frame;  // reused scratch, as FrameLoop::send does
  for (auto _ : state) {
    net::encode_into(message, frame);
    benchmark::DoNotOptimize(frame.data());
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(message.payload.size()));
}
BENCHMARK(BM_WireEncodeInto)->Arg(64)->Arg(4096);

// Per-key wire cost of the batched forward path: one kBatchGet (N keys)
// plus one kBatchReply (N 64-byte values) encoded and decoded per
// iteration, as one FE->BE round trip costs. items_processed counts keys,
// so items/s is keys/s — compare across Arg(1)/Arg(8)/Arg(64) to see the
// per-key framing overhead amortize as batches fill.
void BM_WireBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  net::Message get;
  get.type = net::MsgType::kBatchGet;
  net::Message reply;
  reply.type = net::MsgType::kBatchReply;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = mix64(i);
    get.batch_keys.push_back(key);
    reply.batch.push_back({net::MsgType::kValue, key, 0,
                           net::make_value(key, 64)});
  }
  std::vector<std::uint8_t> get_frame;    // reused scratch, as the FE does
  std::vector<std::uint8_t> reply_frame;  // reused scratch, as the BE does
  for (auto _ : state) {
    net::encode_into(get, get_frame);
    net::encode_into(reply, reply_frame);
    const auto decoded_get = net::decode_payload(
        {get_frame.data() + net::kLengthPrefixBytes,
         get_frame.size() - net::kLengthPrefixBytes});
    const auto decoded_reply = net::decode_payload(
        {reply_frame.data() + net::kLengthPrefixBytes,
         reply_frame.size() - net::kLengthPrefixBytes});
    benchmark::DoNotOptimize(decoded_get->batch_keys.size());
    benchmark::DoNotOptimize(decoded_reply->batch.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_WireBatch)->Arg(1)->Arg(8)->Arg(64);

// One FrameLoop echoing frames to one synchronous client. Reports ns/frame
// (round trip) plus syscalls/frame and frames/wakeup on the server's data
// plane.
void BM_FrameLoopEcho(benchmark::State& state) {
  net::FrameLoop loop;
  net::Reactor::Callbacks callbacks;
  callbacks.on_message = [&loop](net::ConnId conn, net::Message&& message) {
    loop.send(conn, message);
  };
  loop.set_callbacks(std::move(callbacks));
  if (!loop.listen("127.0.0.1", 0) || !loop.start()) {
    state.SkipWithError("echo reactor failed to start");
    return;
  }
  net::SyncClient client;
  if (!client.connect("127.0.0.1", loop.port(), 2.0)) {
    state.SkipWithError("echo client failed to connect");
    return;
  }
  net::Message request;
  request.type = net::MsgType::kGet;
  const std::uint64_t syscalls0 = loop.counters().syscalls.load();
  const std::uint64_t wakeups0 = loop.counters().wakeups.load();
  std::uint64_t frames = 0;
  for (auto _ : state) {
    request.key = frames++;
    const auto reply = client.call(request, 2.0);
    if (!reply.has_value()) {
      state.SkipWithError("echo round trip failed");
      break;
    }
    benchmark::DoNotOptimize(reply->key);
  }
  const std::uint64_t syscalls = loop.counters().syscalls.load() - syscalls0;
  const std::uint64_t wakeups = loop.counters().wakeups.load() - wakeups0;
  if (frames > 0) {
    state.counters["syscalls_per_frame"] =
        static_cast<double>(syscalls) / static_cast<double>(frames);
    state.counters["frames_per_wakeup"] =
        wakeups > 0 ? 2.0 * static_cast<double>(frames) /
                          static_cast<double>(wakeups)
                    : 0.0;
  }
  client.disconnect();
  loop.stop(0.5);
}
BENCHMARK(BM_FrameLoopEcho)->UseRealTime();

void BM_AdversarialShiftFixpoint(benchmark::State& state) {
  const auto start = QueryDistribution::zipf(
      static_cast<std::uint64_t>(state.range(0)), 1.1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adversarial_shift_fixpoint(start, 100));
  }
}
BENCHMARK(BM_AdversarialShiftFixpoint)->Arg(10000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
