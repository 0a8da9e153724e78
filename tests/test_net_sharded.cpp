// Loopback tests for the multi-reactor (sharded) serving tier, stood up by
// net::LocalTier: SO_REUSEPORT accept sharding, the single-acceptor
// fallback, per-shard metrics merging, cache partitioning, and graceful
// drain across shards. Labeled slow — each case spins up real TCP servers
// and many blocking clients.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "loopback_tier.h"
#include "net/local_tier.h"
#include "net/sync_client.h"
#include "obs/metrics.h"

namespace scp::net {
namespace {

/// A front end of `shards` shards caching the oracle's `cache_capacity`
/// keys.
FrontendConfig sharded_frontend(std::size_t cache_capacity,
                                std::uint32_t shards) {
  FrontendConfig config = frontend_template("perfect", cache_capacity);
  config.shards = shards;
  return config;
}

TEST(ShardedFrontend, StressManyClientsCounterConsistency) {
  // Many concurrent SyncClients (one per thread, as the class requires)
  // spread across the shards by the kernel's SO_REUSEPORT placement,
  // interleaving GETs and metrics scrapes. Every GET must resolve to the
  // canonical value and the aggregated ServerStats must stay exact:
  // requests == hits + forwarded + coalesced + failures (concurrent misses
  // for one key on one shard single-flight onto the same forward).
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 256;
  constexpr std::size_t kCache = 64;
  constexpr std::uint32_t kShards = 4;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kOpsPerThread = 150;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, sharded_frontend(kCache, kShards));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  const std::uint16_t port = frontend.port();

  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, port, &gets, &wrong] {
      SyncClient client;
      if (!client.connect("127.0.0.1", port, 3.0)) {
        wrong.fetch_add(1);
        return;
      }
      for (std::uint64_t i = 0; i < kOpsPerThread; ++i) {
        const std::uint64_t key = (t * 7919 + i * 31) % kItems;
        const auto reply = client.get(key, 5.0);
        if (!reply.has_value() || reply->type != MsgType::kValue ||
            reply->payload != make_value(key, 64)) {
          wrong.fetch_add(1);
          return;
        }
        gets.fetch_add(1);
        if (i % 16 == 0) {  // interleave a scrape on the same connection
          Message request;
          request.type = MsgType::kMetricsRequest;
          const auto metrics = client.call(request, 5.0);
          // The aggregate counter has seen at least this thread's GETs.
          if (!metrics.has_value() ||
              metrics->type != MsgType::kMetricsReply ||
              metrics->metrics.counters.count("frontend.requests") == 0 ||
              metrics->metrics.counters.at("frontend.requests") < i + 1) {
            wrong.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(gets.load(), kThreads * kOpsPerThread);

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kThreads * kOpsPerThread);
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures)
      << "every GET must resolve to exactly one of "
         "hit/forwarded/coalesced/failure";
  EXPECT_EQ(stats.failures, 0u);
  // Sharded cache still hits: the kernel spreads connections over shards,
  // and a shard hits for the cached-prefix keys it owns.
  EXPECT_GT(stats.hits, 0u);

  // Backend request counters account for every forward attempt.
  std::uint64_t backend_requests = 0;
  for (const auto& backend : tier.backends) {
    backend_requests += backend->stats().requests;
  }
  EXPECT_EQ(backend_requests, stats.attempts);
}

TEST(ShardedFrontend, PerShardMetricsSumToAggregate) {
  // Acceptance criterion: in a live scrape the aggregated series must equal
  // the sum of the per-shard series — counters exactly, histogram by count.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 128;
  constexpr std::uint32_t kShards = 4;

  FrontendConfig config = sharded_frontend(/*cache=*/32, kShards);
  // Deterministic shard spread: the fallback acceptor round-robins
  // connections, so 4 clients land on 4 distinct shards.
  config.force_fallback_accept = true;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  constexpr std::size_t kClients = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([t, port = frontend.port()] {
      SyncClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", port, 3.0));
      for (std::uint64_t key = 0; key < kItems; ++key) {
        const auto reply = client.get((key + t) % kItems, 5.0);
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->type, MsgType::kValue);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
  const ServerStats stats = frontend.stats();
  ASSERT_EQ(snap.counters.at("frontend.requests"), stats.requests);

  std::uint64_t shard_requests = 0;
  std::uint64_t shard_request_us = 0;
  std::uint64_t shards_with_traffic = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const std::string tag = "frontend.shard" + std::to_string(k) + ".";
    const auto requests = snap.counters.find(tag + "requests");
    ASSERT_NE(requests, snap.counters.end()) << "missing " << tag;
    shard_requests += requests->second;
    if (requests->second > 0) ++shards_with_traffic;
    const auto request_us = snap.timers.find(tag + "request_us");
    ASSERT_NE(request_us, snap.timers.end()) << "missing " << tag;
    shard_request_us += request_us->second.count();
  }
  EXPECT_EQ(shard_requests, snap.counters.at("frontend.requests"))
      << "aggregate counter must equal the sum of the shard counters";
  EXPECT_EQ(shard_request_us, snap.timers.at("frontend.request_us").count())
      << "aggregate histogram count must equal the sum of shard counts";
  EXPECT_EQ(shards_with_traffic, kShards)
      << "round-robin fallback accept must spread 4 clients over 4 shards";
}

TEST(ShardedFrontend, FallbackAcceptPartitionsCacheByKeyHash) {
  // Documented c/N semantics: a shard only serves cache hits for keys it
  // owns (mix64(key) % N); the cached prefix {key < c} is partitioned, not
  // duplicated. One client on the fallback acceptor lands on shard 0, so
  // its hits are exactly the shard-0-owned cached keys.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 128;
  constexpr std::size_t kCache = 64;
  constexpr std::uint32_t kShards = 4;

  FrontendConfig config = sharded_frontend(kCache, kShards);
  config.force_fallback_accept = true;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;  // first accepted connection -> shard 0
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port(), 3.0));
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 5.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue) << "key " << key;
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }

  std::uint64_t owned_cached = 0;
  for (std::uint64_t key = 0; key < kCache; ++key) {
    if (mix64(key) % kShards == 0) ++owned_cached;
  }
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kItems);
  EXPECT_EQ(stats.hits, owned_cached)
      << "shard 0 must hit exactly the cached keys it owns";
  EXPECT_EQ(stats.requests, stats.hits + stats.forwarded + stats.coalesced +
                                stats.failures);
}

TEST(ShardedFrontend, GracefulStopDrainsAllShards) {
  // SIGTERM maps to stop(): after it returns, no shard may keep accepting —
  // every listener (all N SO_REUSEPORT sockets) must be closed, in-flight
  // requests answered first.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::uint32_t kShards = 4;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, sharded_frontend(/*cache=*/0, kShards));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  const std::uint16_t port = frontend.port();

  // Load on several connections so multiple shards have live conns to drain.
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t) {
    threads.emplace_back([port] {
      SyncClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", port, 3.0));
      for (std::uint64_t key = 0; key < kItems; ++key) {
        const auto reply = client.get(key, 5.0);
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->type, MsgType::kValue);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  frontend.stop(2.0);
  EXPECT_FALSE(frontend.running());
  // With SO_REUSEPORT the kernel picks a listener per connection; probe
  // repeatedly so a single leaked shard listener cannot hide.
  for (int probe = 0; probe < 2 * static_cast<int>(kShards); ++probe) {
    SyncClient late;
    EXPECT_FALSE(late.connect("127.0.0.1", port, 0.5))
        << "probe " << probe << ": a shard is still accepting after stop()";
  }
}

TEST(ShardedBackend, ServesAcrossShardsAndMergesMetrics) {
  // Sharded backend: shared storage behind N reactors. Replies must be
  // identical from every shard, the service-time histogram must merge
  // (aggregate count == sum of shard counts == requests), and the
  // backend.keys gauge must report the key count once, not shards x keys.
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;  // d = n: node 0 owns every key
  constexpr std::uint64_t kItems = 96;
  constexpr std::uint32_t kShards = 4;

  BackendConfig config = backend_template(kNodes, kReplication, kItems);
  config.shards = kShards;
  config.force_fallback_accept = true;  // deterministic shard spread
  BackendServer server(config);
  ASSERT_TRUE(server.start());

  constexpr std::size_t kClients = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([port = server.port()] {
      SyncClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", port, 3.0));
      for (std::uint64_t key = 0; key < kItems; ++key) {
        const auto reply = client.get(key, 5.0);
        ASSERT_TRUE(reply.has_value()) << "key " << key;
        ASSERT_EQ(reply->type, MsgType::kValue);
        EXPECT_EQ(reply->payload, make_value(key, 64));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kClients * kItems);
  EXPECT_EQ(stats.hits, stats.requests);

  const obs::MetricsSnapshot snap = server.metrics_snapshot();
  EXPECT_EQ(snap.counters.at("backend.requests"), stats.requests);
  ASSERT_EQ(snap.timers.count("backend.service_us"), 1u);
  EXPECT_EQ(snap.timers.at("backend.service_us").count(), stats.requests);
  std::uint64_t shard_service = 0;
  for (std::uint32_t k = 0; k < kShards; ++k) {
    const std::string name =
        "backend.shard" + std::to_string(k) + ".service_us";
    const auto it = snap.timers.find(name);
    ASSERT_NE(it, snap.timers.end()) << "missing " << name;
    EXPECT_GT(it->second.count(), 0u)
        << name << ": round-robin accept must give every shard traffic";
    shard_service += it->second.count();
  }
  EXPECT_EQ(shard_service, snap.timers.at("backend.service_us").count());
  // Storage is shared; the gauge must not multiply by the shard count.
  EXPECT_EQ(snap.gauges.at("backend.keys"),
            static_cast<std::int64_t>(server.storage().live_count()));

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ShardedFrontend, SingleShardMatchesUnshardedCounters) {
  // Equivalence guard: --shards 1 runs the same code path the unsharded
  // server did — same counter totals on the canonical hit/forward workload
  // (the full byte-level guard is the unmodified test_net_loopback suite).
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 128;
  constexpr std::size_t kCache = 16;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, sharded_frontend(kCache, /*shards=*/1));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port(), 3.0));
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 5.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }

  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kItems);
  EXPECT_EQ(stats.hits, kCache);  // every cached-prefix key hits at 1 shard
  EXPECT_EQ(stats.forwarded, kItems - kCache);
  EXPECT_EQ(stats.failures, 0u);

  // No shardK series may leak into the 1-shard snapshot (scrapers and
  // scp_stats depend on the unsharded naming).
  const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_EQ(name.find(".shard"), std::string::npos) << name;
  }
  for (const auto& [name, histogram] : snap.timers) {
    EXPECT_EQ(name.find(".shard"), std::string::npos) << name;
  }
}

}  // namespace
}  // namespace scp::net
