// Loopback tests for hot-key attack detection and mitigation, plus the
// front-end cache regressions fixed alongside it:
//
//   * cache_lookup must not refresh (or re-admit) a value-less tier slot —
//     pre-fix, every request for an in-flight key kept its empty slot
//     maximally fresh, evicting real entries (exactly what a miss-flood
//     exploits).
//   * a deleted perfect-oracle key stays deleted: the delete drops the
//     slot's bytes, a relayed MISS leaves the slot empty and every GET
//     forwards, so the oracle never serves its old bytes again.
//   * a write detaches the fetch already in flight for its key, on every
//     shard and for every key, cacheable or not: that fetch's pre-write
//     bytes fill no slot, and a GET parked on it after the write is
//     fetched again.
//   * the values side-map holds only the bytes of keys the policy holds
//     (its eviction listener erases the rest), so it never outgrows c.
//   * perfect-oracle re-provisioning swaps keys within each shard's slice
//     of [0, c), so the shards together never serve more than c keys; a
//     re-provisioned slot is warmed by one fetch, like a policy's; and a
//     write reaches a re-provisioned key, in a fleet too: a member that
//     does not own it bounces the write to the owner.
//   * the detection pipeline end to end, with no replica mesh: backends
//     sketch their served GETs and push kHotKeyReports to subscribed front
//     ends, which merge them into the only hot set; the front end flags
//     keys hot at the backends but absent from its cache and warms them; an
//     adaptive shift of the attacked key set is re-detected and
//     re-mitigated.
//
// Tiers are stood up by net::LocalTier; the write-detach cases put a
// one-node stand-in store behind a front end built by hand. Every case
// checks the front end's request ledger on its scrape:
// requests == hits + forwarded + coalesced + failures + fleet_redirects.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partitioner.h"
#include "common/hash.h"
#include "loopback_tier.h"
#include "net/fleet.h"
#include "net/local_tier.h"
#include "net/socket.h"
#include "net/sync_client.h"
#include "obs/metrics.h"

namespace scp::net {
namespace {

/// Backends that sketch their GETs and push a hot-key report every 50 ms.
BackendConfig detect_template(std::uint32_t nodes, std::uint32_t replication,
                              std::uint64_t items) {
  BackendConfig config = backend_template(nodes, replication, items);
  config.detect = true;
  config.detect_interval_s = 0.05;
  return config;
}

/// A front end under `cache_policy` that merges the backends' reports and
/// flags a key once 128 reported GETs are in.
FrontendConfig detect_frontend(const std::string& cache_policy,
                               std::size_t cache_capacity) {
  FrontendConfig config = frontend_template(cache_policy, cache_capacity);
  config.detect = true;
  config.detect_min_samples = 128;
  return config;
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

std::int64_t gauge(const obs::MetricsSnapshot& snap, const std::string& name) {
  const auto it = snap.gauges.find(name);
  return it != snap.gauges.end() ? it->second : 0;
}

/// Sends GETs for `keys` straight to their replicas for `seconds`: hot at
/// the backends, never seen by the front end — the miss-flood signature
/// the front-end mitigation keys on.
void hammer_backends(const LocalTier& tier, std::uint32_t replication,
                     const std::vector<std::uint64_t>& keys, double seconds) {
  const auto nodes = static_cast<std::uint32_t>(tier.backends.size());
  auto partitioner =
      make_partitioner("hash", nodes, replication, kPartitionSeed);
  std::vector<NodeId> group(replication);
  std::vector<SyncClient> to_backend(nodes);
  for (std::uint32_t node = 0; node < nodes; ++node) {
    ASSERT_TRUE(
        to_backend[node].connect("127.0.0.1", tier.endpoints[node].second));
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds));
  for (std::size_t turn = 0; std::chrono::steady_clock::now() < deadline;
       ++turn) {
    for (const std::uint64_t key : keys) {
      partitioner->replica_group(key, group);
      const auto reply = to_backend[group[turn % group.size()]].get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
    }
  }
}

/// The request ledger on the front end's scrape: every request is a hit,
/// a forward, a coalesced miss, a failure or a fleet redirect.
void expect_consistent(const FrontendServer& frontend) {
  const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
  const auto get = [&](const std::string& name) {
    return counter(snap, "frontend." + name);
  };
  EXPECT_EQ(get("requests"), get("hits") + get("forwarded") +
                                 get("coalesced") + get("failures") +
                                 get("fleet_redirects"))
      << "requests=" << get("requests") << " hits=" << get("hits")
      << " forwarded=" << get("forwarded") << " coalesced="
      << get("coalesced") << " failures=" << get("failures")
      << " fleet_redirects=" << get("fleet_redirects");
}

// --- regression: lookup must not refresh a value-less slot ----------------

TEST(DetectLoopback, LookupDoesNotRefreshValuelessSlots) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 64;

  FrontendConfig config = frontend_template("lru", 2);
  // Keep the dead key's request retrying (slot value-less) for the whole
  // sequence instead of failing fast.
  config.retry.max_retries = 20;
  config.retry.backoff_base_s = 0.3;
  config.retry.backoff_cap_s = 0.3;
  config.retry.timeout_s = 10.0;
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  // Node 1 dies once the tier is up: its keys can never be fetched again,
  // so their admitted slots stay value-less.
  tier.backends[1]->stop(0.0);
  ASSERT_TRUE(eventually([&frontend] {
    return gauge(frontend.metrics_snapshot(), "frontend.backends_up") == 1;
  }));

  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  const auto owner = [&](std::uint64_t key) {
    partitioner->replica_group(key, group);
    return group[0];
  };
  // Three live keys (node 0) and one dead key (node 1).
  std::vector<std::uint64_t> live;
  std::uint64_t dead = kItems;
  for (std::uint64_t key = 0; key < kItems; ++key) {
    if (owner(key) == 0 && live.size() < 3) live.push_back(key);
    if (owner(key) == 1 && dead == kItems) dead = key;
  }
  ASSERT_EQ(live.size(), 3u);
  ASSERT_LT(dead, kItems);
  const std::uint64_t a = live[0], b = live[1], d = live[2];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  SyncClient impatient;
  ASSERT_TRUE(impatient.connect("127.0.0.1", frontend.port()));

  // LRU capacity 2. GET a → [a]. GET dead admits a value-less slot → [a,
  // dead]. GET b evicts a → [dead, b]. GET dead again: pre-fix the lookup's
  // access() refreshed the value-less slot ([b, dead]); fixed, it leaves
  // recency alone ([dead, b]). GET d evicts the LRU head: fixed → dead goes
  // ([b, d]); pre-fix → b goes. The final GET b is a cache hit only with
  // the fix.
  std::optional<Message> reply = client.get(a, /*timeout_s=*/2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  EXPECT_FALSE(impatient.get(dead, /*timeout_s=*/0.2).has_value());
  ASSERT_TRUE(impatient.connect("127.0.0.1", frontend.port()));

  reply = client.get(b, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  EXPECT_FALSE(impatient.get(dead, /*timeout_s=*/0.2).has_value());

  reply = client.get(d, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);

  const std::uint64_t hits_before = frontend.stats().hits;
  reply = client.get(b, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);
  EXPECT_EQ(reply->payload, make_value(b, 64));
  EXPECT_EQ(frontend.stats().hits, hits_before + 1)
      << "value-less slot refresh evicted a resident entry";
  tier.stop(0.0);
}

// --- regression: a deleted oracle key stays deleted -----------------------

TEST(DetectLoopback, DeletedOracleKeyStaysDeleted) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 64;
  constexpr std::size_t kCapacity = 8;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("perfect", kCapacity));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const std::uint64_t key = 3;  // < kCapacity: oracle-cached
  auto reply = client.get(key, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);  // oracle hit

  Message erase;
  erase.type = MsgType::kDelete;
  erase.key = key;
  reply = client.call(erase, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kWriteReply);

  // The delete dropped the oracle slot's bytes, and a relayed MISS leaves
  // the slot empty: the oracle would otherwise serve the deleted key's bytes
  // again.
  for (int i = 0; i < 5; ++i) {
    reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, MsgType::kMiss) << "GET " << i;
  }

  expect_consistent(frontend);
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.hits, 1u);       // the GET before the DELETE
  EXPECT_EQ(stats.forwarded, 6u);  // the DELETE and every GET after it
}

// --- regression: a write detaches the key's in-flight fetch ---------------

/// A one-node stand-in backend that keeps values: it applies and acks each
/// kPut at once, and answers each kGet `lag` late with the value it held
/// when the GET arrived, so a GET sent before a write is answered after the
/// write's ack, with the bytes the write replaced.
class LaggingStore {
 public:
  using Clock = std::chrono::steady_clock;

  explicit LaggingStore(std::chrono::milliseconds lag) : lag_(lag) {}
  LaggingStore(const LaggingStore&) = delete;
  LaggingStore& operator=(const LaggingStore&) = delete;
  ~LaggingStore() { stop(); }

  bool start() {
    listener_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    if (!listener_.valid()) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }

  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    listener_.reset();
  }

  std::uint16_t port() const noexcept { return port_; }
  /// kGet frames read so far.
  std::uint64_t gets() const { return gets_.load(); }

 private:
  struct Conn {
    Socket socket;
    FrameReader reader;
  };
  struct Owed {
    int fd = -1;
    Clock::time_point due;
    Message reply;
  };

  static void send_frame(int fd, const Message& reply) {
    const std::vector<std::uint8_t> frame = encode(reply);
    ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
  }

  /// Answers what `conn` sent; false once it is closed or corrupt.
  bool receive(Conn& conn, std::deque<Owed>& owed) {
    std::uint8_t buffer[16384];
    const ssize_t n = ::recv(conn.socket.fd(), buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    conn.reader.append({buffer, static_cast<std::size_t>(n)});
    while (auto payload = conn.reader.next_payload()) {
      const auto request = decode_payload(*payload);
      if (!request.has_value()) return false;
      Message reply;
      reply.id = request->id;
      reply.key = request->key;
      if (request->type == MsgType::kPut) {
        values_[request->key] = request->payload;
        reply.type = MsgType::kWriteReply;
        send_frame(conn.socket.fd(), reply);
      } else if (request->type == MsgType::kGet) {
        gets_.fetch_add(1);
        const auto it = values_.find(request->key);
        reply.type = it == values_.end() ? MsgType::kMiss : MsgType::kValue;
        if (it != values_.end()) reply.payload = it->second;
        owed.push_back({conn.socket.fd(), Clock::now() + lag_, reply});
      } else {
        reply.type = MsgType::kError;
        send_frame(conn.socket.fd(), reply);
      }
    }
    return !conn.reader.corrupted();
  }

  void run() {
    std::vector<Conn> conns;
    std::deque<Owed> owed;  // every GET waits the same lag: due in order
    while (!stopping_.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds{{listener_.fd(), POLLIN, 0}};
      for (const Conn& conn : conns) {
        fds.push_back({conn.socket.fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 1);
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd >= 0) conns.push_back(Conn{Socket(fd), FrameReader()});
      }
      // Backwards, so dropping a closed connection keeps the rest aligned
      // with fds (fds[i] is conns[i - 1]).
      for (std::size_t i = fds.size() - 1; i >= 1; --i) {
        if (fds[i].revents == 0 || receive(conns[i - 1], owed)) continue;
        std::erase_if(owed, [&](const Owed& o) { return o.fd == fds[i].fd; });
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
      while (!owed.empty() && owed.front().due <= Clock::now()) {
        send_frame(owed.front().fd, owed.front().reply);
        owed.pop_front();
      }
    }
  }

  const std::chrono::milliseconds lag_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::unordered_map<std::uint64_t, std::string> values_;  ///< run() only
  std::atomic<std::uint64_t> gets_{0};
  std::thread thread_;
};

/// PUT v1; a GET that is forwarded and held; PUT v2, acked while the held
/// GET is out; then 3 GETs, on the held GET's shard. The held GET may answer
/// v1 (it came first), but its bytes must not fill the slot, and the GET
/// that parks on it after v2's ack must be fetched again. With c = 8 and
/// m = 64 on `shards` front-end shards; at 2 shards `key` must be owned by
/// shard 1, so every GET is a miss on shard 0.
void expect_no_get_after_a_write_sees_its_old_bytes(const std::string& cache,
                                                    std::uint64_t key,
                                                    std::uint32_t shards) {
  LaggingStore store(std::chrono::milliseconds(200));
  ASSERT_TRUE(store.start());
  FrontendConfig config;
  config.nodes = 1;
  config.replication = 1;
  config.backends = {{"127.0.0.1", store.port()}};
  config.cache_policy = cache;
  config.cache_capacity = 8;
  config.items = 64;
  config.shards = shards;
  // The fallback acceptor deals connections round-robin: at 2 shards
  // `client` and `other` land on shard 0 and `spacer` on shard 1.
  config.force_fallback_accept = shards > 1;
  ASSERT_TRUE(shards == 1 || mix64(key) % shards == 1);
  FrontendServer frontend(config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  SyncClient spacer;
  ASSERT_TRUE(spacer.connect("127.0.0.1", frontend.port()));
  SyncClient other;
  ASSERT_TRUE(other.connect("127.0.0.1", frontend.port()));
  const auto put = [&](const std::string& bytes) {
    Message write;
    write.type = MsgType::kPut;
    write.key = key;
    write.payload = bytes;
    const auto reply = client.call(write, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kWriteReply);
  };
  put("v1");
  std::optional<Message> held;
  {
    std::jthread reader([&] { held = other.get(key, 2.0); });
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(2);
    while (store.gets() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(store.gets(), 1u) << "the first GET was never forwarded";
    put("v2");
    for (int i = 0; i < 3; ++i) {
      const auto reply = client.get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
      EXPECT_EQ(reply->payload, "v2") << cache << " GET " << i;
    }
  }
  ASSERT_TRUE(held.has_value());
  EXPECT_EQ(held->payload, "v1") << "the held GET was not held across v2";
  expect_consistent(frontend);
  frontend.stop(0.0);
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchUnderLru) {
  expect_no_get_after_a_write_sees_its_old_bytes("lru", 3, 1);
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchUnderTheOracle) {
  expect_no_get_after_a_write_sees_its_old_bytes("perfect", 3, 1);
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchWithNoCache) {
  expect_no_get_after_a_write_sees_its_old_bytes("none", 3, 1);
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchOfAnUncachedOracleKey) {
  expect_no_get_after_a_write_sees_its_old_bytes("perfect", 40, 1);  // >= c
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchOnEveryShardUnderLru) {
  expect_no_get_after_a_write_sees_its_old_bytes("lru", 2, 2);
}

TEST(DetectLoopback, WriteDetachesTheInFlightFetchOnEveryShardUnderTheOracle) {
  expect_no_get_after_a_write_sees_its_old_bytes("perfect", 2, 2);
}

// --- regression: the values side-map holds only what the policy holds ------

TEST(DetectLoopback, ValuesSideMapStaysBounded) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 256;
  constexpr std::size_t kCapacity = 16;

  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("lru", kCapacity));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  // Every GET is a new key: once the LRU is full each one evicts a key,
  // whose bytes must leave with it.
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto entries = [&] {
    return gauge(frontend.metrics_snapshot(), "frontend.values_entries");
  };
  for (std::uint64_t key = 0; key < 200; ++key) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue);
    ASSERT_LE(entries(), static_cast<std::int64_t>(kCapacity))
        << "after key " << key;
  }
  EXPECT_EQ(entries(), static_cast<std::int64_t>(kCapacity));
}

// --- detection + mitigation, adaptive adversary ---------------------------

TEST(DetectLoopback, DetectsMissFloodMitigatesAndTracksShift) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 512;

  LocalTier tier(detect_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, detect_frontend("lru", 24));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);

  // The "attack" hammers backends directly: hot at the backends, absent
  // from the front end — the miss-flood signature the FE mitigation keys
  // on. (Real attack traffic reaches backends through FE misses; skipping
  // the FE keeps its cache provably cold until mitigation warms it.)
  std::vector<SyncClient> to_backend(kNodes);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(
        to_backend[node].connect("127.0.0.1", tier.endpoints[node].second));
  }
  const auto hammer = [&](const std::vector<std::uint64_t>& keys,
                          double seconds) {
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(seconds));
    std::size_t turn = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      for (const std::uint64_t key : keys) {
        partitioner->replica_group(key, group);
        const NodeId node = group[turn % group.size()];
        const auto reply = to_backend[node].get(key, 2.0);
        ASSERT_TRUE(reply.has_value());
        ASSERT_EQ(reply->type, MsgType::kValue);
      }
      ++turn;
    }
  };

  const std::vector<std::uint64_t> phase1 = {3, 17, 42, 99, 123, 200};
  hammer(phase1, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // Backends: every node sketched its slice and pushed it to the front
  // end. Only the front end merges reports and flags keys.
  const obs::MetricsSnapshot be = tier.backends[0]->metrics_snapshot();
  EXPECT_GT(counter(be, "detect.observed"), 0u);
  EXPECT_GT(counter(be, "detect.reports_sent"), 0u);
  for (const char* name : {"detect.reports_received", "detect.flagged_keys"}) {
    EXPECT_EQ(be.counters.count(name), 0u) << name;
  }
  EXPECT_EQ(be.gauges.count("detect.hot_keys"), 0u);

  // Front end: subscribed pushes arrived, keys were flagged and warmed.
  obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.reports_received"), 0u);
  EXPECT_EQ(fe.gauges.count("detect.hot_keys"), 1u);
  const std::uint64_t flagged_phase1 = counter(fe, "detect.flagged_keys");
  EXPECT_GT(flagged_phase1, 0u);
  EXPECT_GT(counter(fe, "detect.prefetches"), 0u);

  // Mitigation converged: the attacked keys now hit the FE cache.
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto fe_hits = [&] { return frontend.stats().hits; };
  std::uint64_t hits_before = fe_hits();
  for (const std::uint64_t key : phase1) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }
  EXPECT_GT(fe_hits(), hits_before)
      << "no flagged key was served from the warmed cache";

  // Adaptive adversary: shift the attacked key set. The aged sketches
  // retire the old phase; the new keys must be re-detected and re-warmed.
  const std::vector<std::uint64_t> phase2 = {301, 333, 377, 401, 444, 480};
  hammer(phase2, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.flagged_keys"), flagged_phase1)
      << "shifted attack set was never re-detected";
  hits_before = fe_hits();
  for (const std::uint64_t key : phase2) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }
  EXPECT_GT(fe_hits(), hits_before);

  expect_consistent(frontend);
}

// --- perfect provision: flagged keys re-provision the cached set ----------

TEST(DetectLoopback, PerfectCacheReprovisionsForFlaggedKeys) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 512;
  constexpr std::uint64_t kCapacity = 8;

  LocalTier tier(detect_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, detect_frontend("perfect", kCapacity));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  // Attack keys far outside the provisioned oracle prefix [0, 8): a static
  // perfect provision forwards every one of these, forever.
  auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  std::vector<SyncClient> to_backend(kNodes);
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    ASSERT_TRUE(
        to_backend[node].connect("127.0.0.1", tier.endpoints[node].second));
  }
  const std::vector<std::uint64_t> attack = {100, 217, 350, 470};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(600);
  std::size_t turn = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    for (const std::uint64_t key : attack) {
      partitioner->replica_group(key, group);
      const auto reply = to_backend[group[turn % group.size()]].get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
    }
    ++turn;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  const obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.flagged_keys"), 0u);
  EXPECT_GT(counter(fe, "detect.reprovisioned"), 0u);
  // Each re-provisioned slot is warmed by at most one fetch, as a policy's
  // slot is.
  EXPECT_GT(counter(fe, "detect.prefetches"), 0u);
  EXPECT_LE(counter(fe, "detect.prefetches"),
            counter(fe, "detect.reprovisioned"));

  // The flagged keys now hit the re-provisioned cache instead of
  // forwarding; prefix keys displaced by them simply forward (the cached
  // set never exceeds the provisioned capacity).
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const std::uint64_t hits_before = frontend.stats().hits;
  for (const std::uint64_t key : attack) {
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, make_value(key, 64));
  }
  EXPECT_GT(frontend.stats().hits, hits_before)
      << "no flagged key was served from the re-provisioned set";
  expect_consistent(frontend);
}

// --- perfect provision: re-provisioning stays inside each shard's slice ---

/// A perfect-oracle front end with detection over 3 detecting backends
/// (d = 2, m = 512, c = 8), as in PerfectCacheReprovisionsForFlaggedKeys.
/// The cases that write wire the mesh.
constexpr std::uint32_t kOracleNodes = 3;
constexpr std::uint32_t kOracleReplication = 2;
constexpr std::uint64_t kOracleItems = 512;
constexpr std::uint64_t kOracleCapacity = 8;
const std::vector<std::uint64_t> kOracleAttack = {100, 217, 350, 470};

BackendConfig oracle_backends() {
  return detect_template(kOracleNodes, kOracleReplication, kOracleItems);
}

TEST(DetectLoopback, ReprovisioningStaysInsideEachShardsSlice) {
  FrontendConfig config = detect_frontend("perfect", kOracleCapacity);
  config.shards = 2;
  // The fallback acceptor round-robins connections: client i lands on
  // shard i, so each client sees exactly one shard's cache.
  config.force_fallback_accept = true;
  LocalTier tier(oracle_backends(), /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  std::vector<SyncClient> clients(2);
  for (SyncClient& client : clients) {
    ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  }

  // Keys the two shards answer from cache: each client asks for every key.
  const auto cached_keys = [&] {
    const std::uint64_t before = frontend.stats().hits;
    for (SyncClient& client : clients) {
      for (std::uint64_t key = 0; key < kOracleItems; ++key) {
        const auto reply = client.get(key, 2.0);
        EXPECT_TRUE(reply.has_value() && reply->type == MsgType::kValue)
            << "key " << key;
      }
    }
    return frontend.stats().hits - before;
  };
  EXPECT_EQ(cached_keys(), kOracleCapacity);

  hammer_backends(tier, kOracleReplication, kOracleAttack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(counter(frontend.metrics_snapshot(), "detect.reprovisioned"), 0u);
  EXPECT_LE(cached_keys(), kOracleCapacity)
      << "re-provisioned keys were added to the cached set, not swapped in";
  expect_consistent(frontend);
}

TEST(DetectLoopback, WritesReachReprovisionedKeys) {
  LocalTier tier(oracle_backends(), /*mesh=*/true,
                 detect_frontend("perfect", kOracleCapacity));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto put = [&](std::uint64_t key, const std::string& bytes) {
    Message write;
    write.type = MsgType::kPut;
    write.key = key;
    write.payload = bytes;
    const auto reply = client.call(write, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kWriteReply);
  };

  put(217, "written before it was flagged");
  hammer_backends(tier, kOracleReplication, kOracleAttack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_GT(counter(frontend.metrics_snapshot(), "detect.reprovisioned"), 0u);
  // An unwritten attack key is now served from the cache.
  const std::uint64_t hits_before = frontend.stats().hits;
  auto reply = client.get(350, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue);
  ASSERT_EQ(frontend.stats().hits, hits_before + 1)
      << "key 350 was not re-provisioned";

  put(100, "written after it was re-provisioned");
  for (const auto& [key, bytes] :
       {std::pair<std::uint64_t, std::string>{217,
                                              "written before it was flagged"},
        {100, "written after it was re-provisioned"}}) {
    for (int i = 0; i < 3; ++i) {
      reply = client.get(key, 2.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
      EXPECT_EQ(reply->payload, bytes) << "key " << key << " GET " << i;
    }
  }
  expect_consistent(frontend);
}

TEST(DetectLoopback, FleetWriteReachesTheMemberThatMayCacheItsKey) {
  // Two oracle members split c = 8. Member 0 re-provisions hot keys >= c
  // that it owns, so a write to one must reach member 0, which drops the
  // slot's bytes: member 1 bounces it there instead of forwarding it itself.
  constexpr std::uint64_t kFleetSeed = 4242;
  constexpr std::uint32_t kMembers = 2;
  FrontendConfig fleet = detect_frontend("perfect", kOracleCapacity);
  fleet.fleet_size = kMembers;
  fleet.fleet_seed = kFleetSeed;
  LocalTier tier(oracle_backends(), /*mesh=*/true, fleet);
  ASSERT_TRUE(tier.start());
  const auto& members = tier.frontends;
  std::vector<std::uint64_t> attack;
  for (std::uint64_t key = 100; attack.size() < kOracleAttack.size(); ++key) {
    if (fleet_owner(key, kFleetSeed, kMembers) == 0) attack.push_back(key);
  }
  hammer_backends(tier, kOracleReplication, attack, 0.6);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  ASSERT_GT(counter(members[0]->metrics_snapshot(), "detect.reprovisioned"),
            0u);

  // A key member 0 now answers from its cache.
  SyncClient to_owner;
  ASSERT_TRUE(to_owner.connect("127.0.0.1", members[0]->port()));
  std::optional<std::uint64_t> cached;
  for (const std::uint64_t key : attack) {
    const std::uint64_t hits_before = members[0]->stats().hits;
    const auto reply = to_owner.get(key, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    if (members[0]->stats().hits == hits_before + 1) {
      cached = key;
      break;
    }
  }
  ASSERT_TRUE(cached.has_value()) << "member 0 re-provisioned no attack key";

  Message write;
  write.type = MsgType::kPut;
  write.key = *cached;
  write.payload = "written while re-provisioned";
  SyncClient to_other;
  ASSERT_TRUE(to_other.connect("127.0.0.1", members[1]->port()));
  auto reply = to_other.call(write, 2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kRedirect)
      << "member 1 took a write for a key member 0 may cache";
  EXPECT_EQ(reply->node, 0u);

  // Through the router the write reaches member 0, whose GETs then see it.
  SyncClient via_router;
  ASSERT_TRUE(via_router.connect("127.0.0.1", tier.port()));
  reply = via_router.call(write, 2.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kWriteReply) << reply->payload;
  for (int i = 0; i < 3; ++i) {
    reply = to_owner.get(*cached, 2.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
    EXPECT_EQ(reply->payload, write.payload) << "GET " << i;
  }
  tier.router->stop();
  for (const auto& member : members) expect_consistent(*member);
  EXPECT_EQ(counter(members[1]->metrics_snapshot(), "frontend.fleet_redirects"),
            1u);
}

// --- benign traffic: zero false positives ---------------------------------

TEST(DetectLoopback, BenignUniformTrafficFlagsNothing) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 1;
  constexpr std::uint64_t kItems = 512;

  FrontendConfig config = detect_frontend("lru", 24);
  config.detect_min_samples = 256;
  LocalTier tier(detect_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, config);
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (int i = 0; i < 3000; ++i) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(i) * 2654435761u) % kItems;
    const auto reply = client.get(key, 2.0);
    ASSERT_TRUE(reply.has_value()) << "i=" << i;
    ASSERT_EQ(reply->type, MsgType::kValue);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  for (const auto& backend : tier.backends) {
    EXPECT_GT(counter(backend->metrics_snapshot(), "detect.observed"), 0u);
  }
  const obs::MetricsSnapshot fe = frontend.metrics_snapshot();
  EXPECT_GT(counter(fe, "detect.reports_received"), 0u);
  EXPECT_EQ(counter(fe, "detect.flagged_keys"), 0u);
  EXPECT_EQ(counter(fe, "detect.prefetches"), 0u);
  expect_consistent(frontend);
}

}  // namespace
}  // namespace scp::net
