// Single-flight coalescing + batched forwarding, end to end on real TCP:
// N concurrent misses for one cold key must reach the backend as exactly
// one fetch, a kBatchReply mixing kValue/kMiss/kRedirect items must settle
// each parked forward with its own outcome, a backend must answer a whole
// kBatchGet in one reply frame, and a client's kBatchGet of cold keys must
// leave the front end as kBatchGet frames with every key answered by its
// own bytes, and a key every backend answers kMiss for must leave no
// routing pin behind. Real tiers are stood up by net::LocalTier;
// backend-silence windows are made deterministic with a scripted
// FakeBackend that replies only when told, behind a front end built by hand.
// Labeled slow — each case spins up servers on real sockets.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "cluster/partitioner.h"
#include "loopback_tier.h"
#include "net/local_tier.h"
#include "net/socket.h"
#include "net/sync_client.h"
#include "net/wire.h"

namespace scp::net {
namespace {

/// A scripted stand-in for scp_backend: accepts the front end's connection,
/// decodes every frame, records GET keys and their request ids in
/// wire-arrival order (kBatchGet flattened: key i of a batch with id b owns
/// id b+i), and sends replies only when the test says so; a reply must echo
/// the id of the request it answers. The window in which a forward stays in
/// flight — where waiters park and batches build — is therefore as wide as
/// the test needs, with no race against a real backend's reply.
class FakeBackend {
 public:
  ~FakeBackend() { stop(); }

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

  /// GET keys received so far, in wire order.
  std::vector<std::uint64_t> keys() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return keys_;
  }

  /// The request id of each key in keys(), index for index.
  std::vector<std::uint32_t> ids() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return ids_;
  }

  /// GET-carrying frames received so far (a kBatchGet counts once).
  std::uint64_t get_frames() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return get_frames_;
  }

  /// Encodes and sends `message` on the front end's connection.
  bool reply(const Message& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (conn_fd_ < 0) return false;
    const std::vector<std::uint8_t> frame = encode(message);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(conn_fd_, frame.data() + sent,
                               frame.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

 private:
  void run() {
    while (!stopping_.load(std::memory_order_relaxed)) {
      pollfd pfd{listener_.fd(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      Socket conn(::accept(listener_.fd(), nullptr, nullptr));
      if (!conn.valid()) continue;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        conn_fd_ = conn.fd();
      }
      serve(conn);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        conn_fd_ = -1;
      }
    }
  }

  void serve(const Socket& conn) {
    FrameReader reader;
    std::uint8_t buffer[16384];
    while (!stopping_.load(std::memory_order_relaxed)) {
      pollfd pfd{conn.fd(), POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 20);
      if (ready < 0) return;
      if (ready == 0) continue;
      const ssize_t n = ::recv(conn.fd(), buffer, sizeof(buffer), 0);
      if (n <= 0) return;
      reader.append({buffer, static_cast<std::size_t>(n)});
      while (auto payload = reader.next_payload()) {
        auto message = decode_payload(*payload);
        if (!message.has_value()) return;
        std::lock_guard<std::mutex> lock(mutex_);
        if (message->type == MsgType::kGet) {
          keys_.push_back(message->key);
          ids_.push_back(message->id);
          ++get_frames_;
        } else if (message->type == MsgType::kBatchGet) {
          for (std::size_t i = 0; i < message->batch_keys.size(); ++i) {
            keys_.push_back(message->batch_keys[i]);
            ids_.push_back(message->id + static_cast<std::uint32_t>(i));
          }
          ++get_frames_;
        }
      }
      if (reader.corrupted()) return;
    }
  }

  Socket listener_;
  std::uint16_t port_ = 0;
  std::thread thread_;
  std::atomic<bool> stopping_{false};
  mutable std::mutex mutex_;
  int conn_fd_ = -1;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> ids_;
  std::uint64_t get_frames_ = 0;
};

/// Frontend over `fakes` with no cache (every GET forwards) and a long
/// per-request deadline, so an unanswered forward neither retries nor times
/// out while a test holds the backend silent.
FrontendConfig fake_frontend_config(
    const std::vector<std::unique_ptr<FakeBackend>>& fakes,
    std::uint32_t replication) {
  FrontendConfig config;
  config.nodes = static_cast<std::uint32_t>(fakes.size());
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  for (const auto& fake : fakes) {
    config.backends.emplace_back("127.0.0.1", fake->port());
  }
  config.cache_policy = "none";
  config.retry.max_retries = 2;
  config.retry.timeout_s = 8.0;
  return config;
}

// The tentpole's headline property: N clients missing on the same cold key
// concurrently cost the backend tier exactly ONE fetch — the first miss
// forwards, the rest park on it, and the single kValue fans out to all of
// them. The fake backend stays silent until every client's GET has been
// counted, so all N requests are provably concurrent.
TEST(BatchServing, ConcurrentMissesForOneColdKeyFetchOnce) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint64_t kKey = 17;
  constexpr std::size_t kClients = 4;

  std::vector<std::unique_ptr<FakeBackend>> fakes;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    fakes.push_back(std::make_unique<FakeBackend>());
    ASSERT_TRUE(fakes.back()->start());
  }
  FrontendServer frontend(fake_frontend_config(fakes, 2));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  std::vector<std::optional<Message>> replies(kClients);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&frontend, &replies, i] {
      SyncClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
      replies[i] = client.get(kKey, 10.0);
    });
  }

  // Every client's GET has reached the front end (coalesced ones never show
  // up at the backend, so the FE request counter is the arrival signal)...
  ASSERT_TRUE(eventually(
      [&frontend] { return frontend.stats().requests >= kClients; }));
  // ...and the single forward is on the wire before the reply is released.
  ASSERT_TRUE(eventually([&fakes] {
    return !fakes[0]->keys().empty() || !fakes[1]->keys().empty();
  }));
  const std::string value = make_value(kKey, 64);
  const std::size_t target = fakes[0]->keys().empty() ? 1 : 0;
  Message reply;
  reply.type = MsgType::kValue;
  reply.id = fakes[target]->ids().at(0);
  reply.key = kKey;
  reply.payload = value;
  ASSERT_TRUE(fakes[target]->reply(reply));
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(replies[i].has_value()) << "client " << i;
    EXPECT_EQ(replies[i]->type, MsgType::kValue) << "client " << i;
    EXPECT_EQ(replies[i]->payload, value) << "client " << i;
  }
  // Exactly one fetch crossed the wire, total, across the whole tier.
  EXPECT_EQ(fakes[0]->keys().size() + fakes[1]->keys().size(), 1u);
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kClients);
  EXPECT_EQ(stats.forwarded, 1u);
  EXPECT_EQ(stats.coalesced, kClients - 1);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.requests,
            stats.hits + stats.forwarded + stats.coalesced + stats.failures);
  frontend.stop(1.0);
}

// One kBatchReply may mix outcomes: each item settles its own pending
// forward — kValue answers its client, kMiss answers with a miss, and
// kRedirect re-forwards to the named node without the client ever seeing
// it. The fake owner holds all three forwards, then answers them with a
// single mixed batch frame: the forwards went out on one connection, so
// their ids are consecutive and the batch carries the first.
TEST(BatchServing, MixedBatchReplySettlesEachForward) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::size_t kKeys = 3;

  std::vector<std::unique_ptr<FakeBackend>> fakes;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    fakes.push_back(std::make_unique<FakeBackend>());
    ASSERT_TRUE(fakes.back()->start());
  }
  // d = 1: every key has exactly one candidate, so all traffic for node-0
  // keys lands on fake 0 deterministically.
  FrontendServer frontend(fake_frontend_config(fakes, 1));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  const auto partitioner = make_partitioner("hash", kNodes, 1, kPartitionSeed);
  std::vector<std::uint64_t> keys;
  std::vector<NodeId> group(1);
  for (std::uint64_t key = 0; keys.size() < kKeys; ++key) {
    partitioner->replica_group(key, group);
    if (group[0] == 0) keys.push_back(key);
  }

  std::vector<std::optional<Message>> replies(kKeys);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < kKeys; ++i) {
    clients.emplace_back([&frontend, &replies, &keys, i] {
      SyncClient client;
      ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
      replies[i] = client.get(keys[i], 10.0);
    });
  }

  ASSERT_TRUE(
      eventually([&fakes] { return fakes[0]->keys().size() >= kKeys; }));
  // Answer in wire order — the first-arrived key gets the value, the second
  // a miss, the third a redirect to node 1.
  const std::vector<std::uint64_t> order = fakes[0]->keys();
  const std::vector<std::uint32_t> ids = fakes[0]->ids();
  ASSERT_EQ(order.size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) ASSERT_EQ(ids[i], ids[0] + i);
  const std::string value = make_value(order[0], 64);
  Message batch;
  batch.type = MsgType::kBatchReply;
  batch.id = ids[0];
  batch.batch.push_back({MsgType::kValue, order[0], 0, value});
  batch.batch.push_back({MsgType::kMiss, order[1], 0, ""});
  batch.batch.push_back({MsgType::kRedirect, order[2], 1, ""});
  ASSERT_TRUE(fakes[0]->reply(batch));

  // The redirected key re-forwards to fake 1; answer it there.
  ASSERT_TRUE(eventually([&fakes, &order] {
    const auto keys1 = fakes[1]->keys();
    return keys1.size() == 1 && keys1[0] == order[2];
  }));
  const std::string redirected_value = make_value(order[2], 64);
  Message redirected;
  redirected.type = MsgType::kValue;
  redirected.id = fakes[1]->ids().at(0);
  redirected.key = order[2];
  redirected.payload = redirected_value;
  ASSERT_TRUE(fakes[1]->reply(redirected));
  for (std::thread& client : clients) client.join();

  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(replies[i].has_value()) << "client " << i;
    if (keys[i] == order[0]) {
      EXPECT_EQ(replies[i]->type, MsgType::kValue);
      EXPECT_EQ(replies[i]->payload, value);
    } else if (keys[i] == order[1]) {
      EXPECT_EQ(replies[i]->type, MsgType::kMiss);
    } else {
      EXPECT_EQ(replies[i]->type, MsgType::kValue);
      EXPECT_EQ(replies[i]->payload, redirected_value);
    }
  }
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kKeys);
  EXPECT_EQ(stats.forwarded, kKeys);
  EXPECT_EQ(stats.coalesced, 0u);
  EXPECT_EQ(stats.redirects, 1u);
  EXPECT_EQ(stats.failures, 0u);
  frontend.stop(1.0);
}

// A real backend answers a whole kBatchGet in ONE kBatchReply frame, items
// in request order with per-key outcomes: owned+stored -> kValue,
// owned+absent -> kMiss, non-owned -> kRedirect naming a replica. The batch
// counts one request per key, keeping backend_requests == FE attempts.
TEST(BatchServing, BackendAnswersWholeBatchInOneReply) {
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  const BackendConfig config = backend_template(kNodes, kReplication, kItems);
  BackendServer server(config);
  ASSERT_TRUE(server.start());

  const auto partitioner =
      make_partitioner("hash", kNodes, kReplication, kPartitionSeed);
  std::vector<NodeId> group(kReplication);
  const auto owned_by_0 = [&](std::uint64_t key) {
    partitioner->replica_group(key, group);
    return std::find(group.begin(), group.end(), NodeId{0}) != group.end();
  };
  std::uint64_t stored = 0;       // owned, preloaded -> kValue
  std::uint64_t foreign = 0;      // not owned -> kRedirect
  std::uint64_t absent = kItems;  // owned, beyond the preload -> kMiss
  while (!owned_by_0(stored)) ++stored;
  while (owned_by_0(foreign)) ++foreign;
  while (!owned_by_0(absent)) ++absent;

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()));
  // Duplicate key included: each occurrence gets its own item.
  const std::vector<std::uint64_t> keys = {stored, foreign, absent, stored};
  const auto replies = client.batch_get(keys);
  ASSERT_TRUE(replies.has_value());
  ASSERT_EQ(replies->size(), keys.size());
  EXPECT_EQ((*replies)[0].type, MsgType::kValue);
  EXPECT_EQ((*replies)[0].payload, make_value(stored, config.value_bytes));
  EXPECT_EQ((*replies)[1].type, MsgType::kRedirect);
  partitioner->replica_group(foreign, group);
  EXPECT_NE(std::find(group.begin(), group.end(),
                      NodeId{(*replies)[1].node}),
            group.end())
      << "redirect must name one of the key's replicas";
  EXPECT_EQ((*replies)[2].type, MsgType::kMiss);
  EXPECT_EQ((*replies)[3].type, MsgType::kValue);
  EXPECT_EQ((*replies)[3].payload, make_value(stored, config.value_bytes));
  EXPECT_EQ(server.stats().requests, keys.size());
  server.stop(1.0);
}

// Batching changes how forwards are framed, never what they return: every
// key of a client kBatchGet comes back as its own kValue with its own bytes,
// and the ledger balances. Distinct keys keep coalescing out of it; the
// client's kBatchGet lands all keys in one FE wakeup, which is what makes
// the front end emit kBatchGet frames.
TEST(BatchServing, ClientBatchForwardsAsBatchFrames) {
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;
  constexpr std::size_t kKeys = 16;

  // No cache: every GET forwards.
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("none", 0));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  std::vector<std::uint64_t> keys;
  for (std::size_t i = 0; i < kKeys; ++i) keys.push_back(i * 3 + 1);
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  const auto replies = client.batch_get(keys, 5.0);
  ASSERT_TRUE(replies.has_value());
  ASSERT_EQ(replies->size(), kKeys);
  for (std::size_t i = 0; i < kKeys; ++i) {
    EXPECT_EQ((*replies)[i].type, MsgType::kValue) << "key index " << i;
    EXPECT_EQ((*replies)[i].payload, make_value(keys[i], 64))
        << "key index " << i;
  }

  const auto [batch_frames, batch_keys] = frontend.batch_totals();
  EXPECT_GT(batch_frames, 0u);
  EXPECT_GT(batch_keys, batch_frames);  // at least one frame carried > 1 key
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.requests, kKeys);
  EXPECT_EQ(stats.failures, 0u);
  EXPECT_EQ(stats.requests,
            stats.hits + stats.forwarded + stats.coalesced + stats.failures);
}

// A key no backend holds keeps no pin. The front end pins each forwarded
// key to the replica it first went to; were a kMiss to leave its pin, every
// distinct absent key a client sends would cost the front end memory for
// good (the paper's adversary with x -> infinity).
TEST(BatchServing, AbsentKeysLeaveNoPins) {
  constexpr std::uint32_t kNodes = 2;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 4096;
  constexpr std::uint64_t kAbsentKeys = 4096;
  constexpr std::uint64_t kBatch = 256;

  // No cache: every GET forwards.
  LocalTier tier(backend_template(kNodes, kReplication, kItems),
                 /*mesh=*/false, frontend_template("none", 0));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  const auto pins = [&]() -> std::optional<std::int64_t> {
    const obs::MetricsSnapshot snap = frontend.metrics_snapshot();
    const auto it = snap.gauges.find("frontend.pins");
    if (it == snap.gauges.end()) return std::nullopt;
    return it->second;
  };

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (std::uint64_t first = kItems; first < kItems + kAbsentKeys;
       first += kBatch) {
    std::vector<std::uint64_t> keys;
    for (std::uint64_t key = first; key < first + kBatch; ++key) {
      keys.push_back(key);
    }
    const auto replies = client.batch_get(keys, 5.0);
    ASSERT_TRUE(replies.has_value()) << "batch at key " << first;
    for (const Message& reply : *replies) {
      ASSERT_EQ(reply.type, MsgType::kMiss) << "key " << reply.key;
    }
  }
  EXPECT_EQ(pins(), std::optional<std::int64_t>(0));

  // A key that exists keeps its pin, so the gauge is live.
  const auto present = client.get(1, 5.0);
  ASSERT_TRUE(present.has_value());
  EXPECT_EQ(present->type, MsgType::kValue);
  EXPECT_EQ(pins(), std::optional<std::int64_t>(1));
}

}  // namespace
}  // namespace scp::net
