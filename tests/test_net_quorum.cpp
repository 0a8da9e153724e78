// Loopback tests for the quorum-replicated write path: real TCP backends
// wired into a replica mesh on kernel-assigned ports, driven by the
// blocking SyncClient. Proves the acceptance property over real sockets:
// with R+W>N (N=3, R=W=2) a write acked by any coordinator is readable
// through any coordinator with one replica crashed, and read-repair
// converges a restarted replica. The ReplyMatching cases race a PUT and a
// GET for one key through the front end and the router: the backend acks
// the PUT only after its quorum but answers the GET at once, so each hop
// must match replies by request id, not by order or key. The mesh cases
// pin the peer links: sharded backends, a left peer that is never
// re-dialed, a hung peer that the link deadline resets (failing a write it
// leaves short of W), and a slow joiner that it does not. The last case
// checks that every tier's stats() reads the same counters it exports.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partitioner.h"
#include "net/backend_server.h"
#include "net/frontend_server.h"
#include "net/router_server.h"
#include "net/socket.h"
#include "net/sync_client.h"

namespace scp::net {
namespace {

constexpr std::uint64_t kPartitionSeed = 77;

BackendConfig quorum_config(std::uint32_t node_id, std::uint32_t nodes,
                            std::uint32_t replication, std::uint64_t items) {
  BackendConfig config;
  config.node_id = node_id;
  config.nodes = nodes;
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  config.items = items;
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.op_timeout_s = 2.0;
  return config;
}

/// A meshed backend fleet: every node started on port 0, then every node
/// handed the full endpoint list — exactly how the bench wires a cluster.
struct Mesh {
  std::vector<std::unique_ptr<BackendServer>> backends;
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;

  void rewire() {
    for (auto& backend : backends) {
      if (backend != nullptr && backend->running()) {
        backend->set_peers(endpoints);
      }
    }
  }
};

Mesh start_mesh(std::uint32_t nodes, std::uint32_t replication,
                std::uint64_t items) {
  Mesh mesh;
  for (std::uint32_t node = 0; node < nodes; ++node) {
    auto backend = std::make_unique<BackendServer>(
        quorum_config(node, nodes, replication, items));
    EXPECT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) {
    EXPECT_TRUE(backend->wait_peers_up(5.0));
  }
  return mesh;
}

Message make_put(std::uint64_t key, std::string value) {
  Message request;
  request.type = MsgType::kPut;
  request.key = key;
  request.payload = std::move(value);
  return request;
}

Message make_req(MsgType type, std::uint64_t key) {
  Message request;
  request.type = type;
  request.key = key;
  return request;
}

/// Polls a replica's storage until `pred` holds or the deadline passes.
template <typename Pred>
bool eventually(const Pred& pred, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return pred();
}

TEST(QuorumSuite, WriteThroughOneCoordinatorReadsThroughEveryOther) {
  // N=3, d=3: every node replicates every key, so every node coordinates
  // for every key and every storage engine must converge.
  Mesh mesh = start_mesh(3, 3, /*items=*/0);

  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", mesh.backends[0]->port()));
  const auto ack = writer.call(make_put(7, "quorum value"), 2.0);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  EXPECT_EQ(ack->key, 7u);
  // A minted version always exceeds the preload version (1).
  EXPECT_GT(ack->version, 1u);

  for (int node = 0; node < 3; ++node) {
    SyncClient reader;
    ASSERT_TRUE(reader.connect("127.0.0.1", mesh.backends[node]->port()));
    const auto reply = reader.call(make_req(MsgType::kQuorumGet, 7), 2.0);
    ASSERT_TRUE(reply.has_value()) << "coordinator " << node;
    ASSERT_EQ(reply->type, MsgType::kValue) << "coordinator " << node;
    EXPECT_EQ(reply->payload, "quorum value");
  }

  // W=2 acked synchronously; the third replica converges asynchronously.
  for (int node = 0; node < 3; ++node) {
    EXPECT_TRUE(eventually([&] {
      const auto entry = mesh.backends[node]->storage_entry(7);
      return entry.has_value() && entry->value == "quorum value" &&
             !entry->tombstone && entry->version == ack->version;
    })) << "replica " << node;
  }

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, DeleteTombstonesAcrossTheQuorum) {
  Mesh mesh = start_mesh(3, 3, /*items=*/0);

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", mesh.backends[1]->port()));
  const auto put = client.call(make_put(9, "doomed"), 2.0);
  ASSERT_TRUE(put.has_value());
  ASSERT_EQ(put->type, MsgType::kWriteReply);

  const auto del = client.call(make_req(MsgType::kDelete, 9), 2.0);
  ASSERT_TRUE(del.has_value());
  ASSERT_EQ(del->type, MsgType::kWriteReply);
  EXPECT_GT(del->version, put->version) << "delete must supersede the put";

  // A quorum read through a different coordinator observes the tombstone.
  SyncClient reader;
  ASSERT_TRUE(reader.connect("127.0.0.1", mesh.backends[2]->port()));
  const auto reply = reader.call(make_req(MsgType::kQuorumGet, 9), 2.0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MsgType::kMiss);

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, QuorumSurvivesOneReplicaCrash) {
  Mesh mesh = start_mesh(3, 3, /*items=*/0);

  // Write while all three are up, then crash one replica.
  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", mesh.backends[0]->port()));
  const auto ack = writer.call(make_put(11, "survives"), 2.0);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kWriteReply);

  mesh.backends[2]->stop(0.0);
  mesh.backends[2].reset();

  // R=2 over the two survivors: both remaining coordinators still answer.
  for (int node = 0; node < 2; ++node) {
    SyncClient reader;
    ASSERT_TRUE(reader.connect("127.0.0.1", mesh.backends[node]->port()));
    const auto reply = reader.call(make_req(MsgType::kQuorumGet, 11), 3.0);
    ASSERT_TRUE(reply.has_value()) << "coordinator " << node;
    ASSERT_EQ(reply->type, MsgType::kValue) << "coordinator " << node;
    EXPECT_EQ(reply->payload, "survives");
  }

  // W=2 still reachable: a fresh write through a survivor commits too.
  const auto ack2 = writer.call(make_put(12, "post-crash"), 3.0);
  ASSERT_TRUE(ack2.has_value());
  ASSERT_EQ(ack2->type, MsgType::kWriteReply) << ack2->payload;

  for (auto& backend : mesh.backends) {
    if (backend != nullptr) backend->stop(0.5);
  }
}

TEST(QuorumSuite, ReadRepairConvergesARestartedReplica) {
  Mesh mesh = start_mesh(3, 3, /*items=*/0);

  // Crash replica 2, then commit a write it never sees.
  mesh.backends[2]->stop(0.0);
  mesh.backends[2].reset();

  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", mesh.backends[0]->port()));
  const auto ack = writer.call(make_put(21, "repaired value"), 3.0);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;

  // Restart node 2 empty on a fresh port and re-wire the whole mesh.
  mesh.backends[2] =
      std::make_unique<BackendServer>(quorum_config(2, 3, 3, 0));
  ASSERT_TRUE(mesh.backends[2]->start());
  mesh.endpoints[2] = {"127.0.0.1", mesh.backends[2]->port()};
  mesh.rewire();
  for (auto& backend : mesh.backends) {
    ASSERT_TRUE(backend->wait_peers_up(5.0));
  }
  ASSERT_FALSE(mesh.backends[2]->storage_entry(21).has_value());

  // A quorum read coordinated by the stale node itself sees its own miss
  // lose LWW to a survivor's copy and read-repairs the local store.
  SyncClient reader;
  ASSERT_TRUE(reader.connect("127.0.0.1", mesh.backends[2]->port()));
  const auto reply = reader.call(make_req(MsgType::kQuorumGet, 21), 3.0);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->type, MsgType::kValue) << reply->payload;
  EXPECT_EQ(reply->payload, "repaired value");

  EXPECT_TRUE(eventually([&] {
    const auto entry = mesh.backends[2]->storage_entry(21);
    return entry.has_value() && entry->value == "repaired value" &&
           entry->version == ack->version;
  })) << "read-repair never converged the restarted replica";

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, JoinRebalancesKeysOntoTheNewNode) {
  // Ring partitioner so membership changes actually move keys. Three nodes
  // preloaded with their owned slice of 64 keys; node 3 joins empty.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  Mesh mesh;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig config = quorum_config(node, kNodes, kReplication, kItems);
    config.partitioner = "ring";
    auto backend = std::make_unique<BackendServer>(config);
    ASSERT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  // The joiner's own ring must equal the others' post-join ring: same seed,
  // nodes 0..3. It holds nothing until handoff streams arrive.
  BackendConfig joiner_config =
      quorum_config(kNodes, kNodes + 1, kReplication, /*items=*/0);
  joiner_config.partitioner = "ring";
  auto joiner = std::make_unique<BackendServer>(joiner_config);
  ASSERT_TRUE(joiner->start());
  const std::string joiner_endpoint =
      "127.0.0.1:" + std::to_string(joiner->port());

  // Announce the join to every existing member; each re-plans ownership and
  // the elected streamers push handoff to the new node.
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    SyncClient admin;
    ASSERT_TRUE(admin.connect("127.0.0.1", mesh.backends[node]->port()));
    Message join;
    join.type = MsgType::kJoin;
    join.node = kNodes;
    join.payload = joiner_endpoint;
    const auto reply = admin.call(join, 3.0);
    ASSERT_TRUE(reply.has_value()) << "member " << node;
    ASSERT_EQ(reply->type, MsgType::kWriteReply) << reply->payload;
    EXPECT_GT(reply->version, 0u) << "membership epoch must have advanced";
  }

  // Every key the post-join ring assigns to node 3 must land there, at the
  // version the old holders stored (preload version 1).
  ConsistentHashRing ring(kNodes + 1, kReplication, 64, kPartitionSeed);
  std::vector<KeyId> moved;
  std::vector<NodeId> group(kReplication);
  for (KeyId key = 0; key < kItems; ++key) {
    ring.replica_group(key, group);
    if (std::find(group.begin(), group.end(), NodeId{kNodes}) != group.end()) {
      moved.push_back(key);
    }
  }
  ASSERT_FALSE(moved.empty()) << "join moved nothing; enlarge the key set";
  for (const KeyId key : moved) {
    EXPECT_TRUE(eventually([&] {
      return joiner->storage_entry(key).has_value();
    })) << "key " << key << " never streamed to the joiner";
  }

  joiner->stop(0.5);
  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, LeaveStreamsDepartingKeysToSurvivors) {
  // Four ring nodes, d=2; node 0 leaves gracefully. Keys whose old group
  // contained node 0 gain a replacement member, and the surviving old
  // holder streams them over.
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  Mesh mesh;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig config = quorum_config(node, kNodes, kReplication, kItems);
    config.partitioner = "ring";
    auto backend = std::make_unique<BackendServer>(config);
    ASSERT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  // Old and new rings, for deriving which (key, target) pairs must move.
  ConsistentHashRing old_ring(kNodes, kReplication, 64, kPartitionSeed);
  ConsistentHashRing new_ring(kNodes, kReplication, 64, kPartitionSeed);
  new_ring.remove_node(0);

  // kLeave carries the leaver in `node`. Announce to the leaver itself
  // first (a graceful leave streams its own keys out), then the survivors.
  Message leave;
  leave.type = MsgType::kLeave;
  leave.node = 0;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    SyncClient admin;
    ASSERT_TRUE(admin.connect("127.0.0.1", mesh.backends[node]->port()));
    const auto ack = admin.call(leave, 3.0);
    ASSERT_TRUE(ack.has_value()) << "member " << node;
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  }

  std::vector<NodeId> old_group(kReplication);
  std::vector<NodeId> new_group(kReplication);
  std::uint64_t checked = 0;
  for (KeyId key = 0; key < kItems; ++key) {
    old_ring.replica_group(key, old_group);
    new_ring.replica_group(key, new_group);
    for (const NodeId target : new_group) {
      if (std::find(old_group.begin(), old_group.end(), target) !=
          old_group.end()) {
        continue;  // already held before the leave
      }
      ++checked;
      EXPECT_TRUE(eventually([&] {
        return mesh.backends[target]->storage_entry(key).has_value();
      })) << "key " << key << " never reached replacement node " << target;
    }
  }
  EXPECT_GT(checked, 0u) << "leave moved nothing; enlarge the key set";

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

std::uint64_t counter(const obs::MetricsSnapshot& snap,
                      const std::string& name) {
  const auto it = snap.counters.find(name);
  return it != snap.counters.end() ? it->second : 0;
}

TEST(QuorumSuite, ShardedMeshWritesThroughEveryShardAndReadsThroughEveryNode) {
  // Each backend shard holds its own link to every peer, so a write lands
  // on whichever shard accepted its connection and must reach W from there.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint64_t kWrites = 40;
  Mesh mesh;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig config = quorum_config(node, kNodes, kNodes, /*items=*/0);
    config.shards = 2;
    auto backend = std::make_unique<BackendServer>(config);
    ASSERT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  const auto value_of = [](std::uint64_t key) {
    return "sharded value " + std::to_string(key);
  };
  for (std::uint64_t key = 0; key < kWrites; ++key) {
    SyncClient writer;  // a fresh connection, so both shards coordinate
    ASSERT_TRUE(writer.connect("127.0.0.1", mesh.backends[0]->port()));
    const auto ack = writer.call(make_put(key, value_of(key)), 3.0);
    ASSERT_TRUE(ack.has_value()) << "key " << key;
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  }
  const obs::MetricsSnapshot coordinator = mesh.backends[0]->metrics_snapshot();
  EXPECT_GT(counter(coordinator, "backend.shard0.puts"), 0u);
  EXPECT_GT(counter(coordinator, "backend.shard1.puts"), 0u);

  for (std::uint32_t node = 1; node < kNodes; ++node) {
    for (std::uint64_t key = 0; key < kWrites; ++key) {
      SyncClient reader;
      ASSERT_TRUE(reader.connect("127.0.0.1", mesh.backends[node]->port()));
      const auto reply = reader.call(make_req(MsgType::kQuorumGet, key), 3.0);
      ASSERT_TRUE(reply.has_value()) << "node " << node << " key " << key;
      ASSERT_EQ(reply->type, MsgType::kValue) << reply->payload;
      EXPECT_EQ(reply->payload, value_of(key));
    }
  }

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, LeftPeerIsNeverRedialed) {
  // Once every member has acked a kLeave for node 3, no member dials it
  // again: its accept count stays put for 10x the first reconnect delay.
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kLeaver = 3;
  Mesh mesh;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig config = quorum_config(node, kNodes, 2, /*items=*/64);
    config.partitioner = "ring";
    auto backend = std::make_unique<BackendServer>(config);
    ASSERT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  Message leave;
  leave.type = MsgType::kLeave;
  leave.node = kLeaver;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    SyncClient admin;
    ASSERT_TRUE(admin.connect("127.0.0.1", mesh.backends[node]->port()));
    const auto ack = admin.call(leave, 3.0);
    ASSERT_TRUE(ack.has_value()) << "member " << node;
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  }
  const auto accepted = [&] {
    return counter(mesh.backends[kLeaver]->metrics_snapshot(), "loop.accepted");
  };
  const std::uint64_t before = accepted();
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(accepted(), before) << "a member re-dialed the node that left";

  for (auto& backend : mesh.backends) backend->stop(0.5);
}

/// A replica stand-in: it accepts every connection and decodes every frame.
/// Hung (a zero pace), it never replies. Slow, it answers each connection's
/// frames in order, one every `pace`: kRepAck, kPong, or an empty kVerValue.
/// Records when each connection arrived and when the first bytes did, and
/// the key of every kReplicate it answered.
class FakePeer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit FakePeer(std::chrono::milliseconds pace = {}) : pace_(pace) {}
  ~FakePeer() { stop(); }

  bool start() {
    listener_ = listen_tcp("127.0.0.1", 0, 16, &port_);
    if (!listener_.valid()) return false;
    thread_ = std::thread([this] { run(); });
    return true;
  }

  void stop() {
    stopping_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }

  std::uint16_t port() const noexcept { return port_; }

  std::vector<Clock::time_point> accepts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return accepts_;
  }

  std::optional<Clock::time_point> first_bytes() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return first_bytes_;
  }

  std::vector<KeyId> acked() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return acked_;
  }

 private:
  struct Conn {
    Socket socket;
    FrameReader reader;
    std::deque<Message> owed;
  };

  static Message answer(const Message& request) {
    Message reply;
    reply.id = request.id;
    reply.key = request.key;
    if (request.type == MsgType::kReplicate) {
      reply.type = MsgType::kRepAck;
      reply.version = request.version;
      reply.flags = kFlagApplied;
    } else if (request.type == MsgType::kPing) {
      reply.type = MsgType::kPong;
    } else {
      reply.type = MsgType::kVerValue;
    }
    return reply;
  }

  /// Reads what `conn` has; false once it is closed or corrupt.
  bool receive(Conn& conn) {
    std::uint8_t buffer[16384];
    const ssize_t n = ::recv(conn.socket.fd(), buffer, sizeof(buffer), 0);
    if (n <= 0) return false;
    conn.reader.append({buffer, static_cast<std::size_t>(n)});
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!first_bytes_.has_value()) first_bytes_ = Clock::now();
    }
    while (auto payload = conn.reader.next_payload()) {
      auto message = decode_payload(*payload);
      if (!message.has_value()) return false;
      if (pace_.count() > 0) conn.owed.push_back(std::move(*message));
    }
    return !conn.reader.corrupted();
  }

  void run() {
    std::vector<Conn> conns;
    Clock::time_point next_reply = Clock::now();
    while (!stopping_.load(std::memory_order_relaxed)) {
      std::vector<pollfd> fds{{listener_.fd(), POLLIN, 0}};
      for (const Conn& conn : conns) {
        fds.push_back({conn.socket.fd(), POLLIN, 0});
      }
      ::poll(fds.data(), fds.size(), 1);
      if ((fds[0].revents & POLLIN) != 0) {
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd >= 0) {
          conns.push_back(Conn{Socket(fd), FrameReader(), {}});
          std::lock_guard<std::mutex> lock(mutex_);
          accepts_.push_back(Clock::now());
        }
      }
      // Backwards, so dropping a closed connection keeps the rest aligned
      // with fds (fds[i] is conns[i - 1]).
      for (std::size_t i = fds.size() - 1; i >= 1; --i) {
        if (fds[i].revents == 0 || receive(conns[i - 1])) continue;
        conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i - 1));
      }
      if (pace_.count() == 0 || Clock::now() < next_reply) continue;
      next_reply = Clock::now() + pace_;
      for (Conn& conn : conns) {
        if (conn.owed.empty()) continue;
        const Message& request = conn.owed.front();
        const std::vector<std::uint8_t> frame = encode(answer(request));
        // Replies are small; a short send only happens on a closing socket.
        ::send(conn.socket.fd(), frame.data(), frame.size(), MSG_NOSIGNAL);
        if (request.type == MsgType::kReplicate) {
          std::lock_guard<std::mutex> lock(mutex_);
          acked_.push_back(request.key);
        }
        conn.owed.pop_front();
      }
    }
  }

  const std::chrono::milliseconds pace_;
  Socket listener_;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
  mutable std::mutex mutex_;
  std::vector<Clock::time_point> accepts_;
  std::optional<Clock::time_point> first_bytes_;
  std::vector<KeyId> acked_;
};

TEST(QuorumSuite, HungPeerIsResetAndRedialedWhileWritesReachW) {
  // Nodes 0 and 1 are real; node 2 accepts and never replies. Each real
  // node sees node 2 at its own FakePeer, so each one's re-dial is visible.
  constexpr double kOpTimeoutS = 0.5;
  constexpr double kSweepS = 0.020;  // upstream.cpp
  // The oldest frame's deadline, three sweep periods (the reset, and the
  // first reconnect delay from reactor.h), plus 250 ms for timer lateness
  // and connect latency on a loaded host or under a sanitizer. The parent
  // of this check never re-dialed a hung peer at all.
  constexpr double kResetWithinS = kOpTimeoutS + 3 * kSweepS + 0.050 + 0.250;
  FakePeer hung[2];
  std::vector<std::unique_ptr<BackendServer>> backends;
  std::vector<std::pair<std::string, std::uint16_t>> endpoints;
  for (std::uint32_t node = 0; node < 2; ++node) {
    ASSERT_TRUE(hung[node].start());
    BackendConfig config = quorum_config(node, 3, 3, /*items=*/0);
    config.op_timeout_s = kOpTimeoutS;
    backends.push_back(std::make_unique<BackendServer>(config));
    ASSERT_TRUE(backends.back()->start());
    endpoints.emplace_back("127.0.0.1", backends.back()->port());
  }
  for (std::uint32_t node = 0; node < 2; ++node) {
    auto peers = endpoints;
    peers.emplace_back("127.0.0.1", hung[node].port());
    backends[node]->set_peers(peers);
  }
  for (auto& backend : backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", backends[0]->port()));
  for (std::uint64_t key = 0; key < 50; ++key) {
    const auto ack = writer.call(make_put(key, "w=2 without node 2"), 3.0);
    ASSERT_TRUE(ack.has_value()) << "key " << key;
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  }

  for (std::uint32_t node = 0; node < 2; ++node) {
    ASSERT_TRUE(eventually([&] { return hung[node].accepts().size() >= 2; }))
        << "node " << node << " never re-dialed its hung peer";
    const auto first_bytes = hung[node].first_bytes();
    ASSERT_TRUE(first_bytes.has_value());
    const double reset_after_s =
        std::chrono::duration<double>(hung[node].accepts()[1] - *first_bytes)
            .count();
    EXPECT_LE(reset_after_s, kResetWithinS) << "node " << node;
    EXPECT_GE(counter(backends[node]->metrics_snapshot(),
                      "backend.link_resets"),
              1u)
        << "node " << node;
  }

  for (auto& backend : backends) backend->stop(0.5);
  for (FakePeer& peer : hung) peer.stop();
}

TEST(QuorumSuite, WriteShortOfWFailsOnceItsHungPeersAreReset) {
  // Node 0 is real, nodes 1 and 2 hang (d = 3, W = 2). The link reset is a
  // quorum op's only deadline: it hands both replicate frames back as lost,
  // which leaves the write short of W, so the client gets kError instead of
  // waiting forever.
  constexpr double kOpTimeoutS = 0.3;
  FakePeer hung[2];
  std::vector<std::pair<std::string, std::uint16_t>> peers{{"", 0}};
  for (FakePeer& peer : hung) {
    ASSERT_TRUE(peer.start());
    peers.emplace_back("127.0.0.1", peer.port());
  }
  BackendConfig config = quorum_config(0, 3, 3, /*items=*/0);
  config.op_timeout_s = kOpTimeoutS;
  BackendServer backend(config);
  ASSERT_TRUE(backend.start());
  backend.set_peers(peers);
  ASSERT_TRUE(backend.wait_peers_up(5.0));

  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", backend.port()));
  const auto start = std::chrono::steady_clock::now();
  const auto reply = writer.call(make_put(7, "never reaches W"), 5.0);
  const double took_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(reply.has_value()) << "the write was never answered";
  EXPECT_EQ(reply->type, MsgType::kError);
  // A link is reset once its oldest frame (the write's, or an earlier
  // detector ping's) is overdue: within the deadline, two sweep periods
  // and 250 ms of slack for a loaded host or a sanitizer.
  EXPECT_LE(took_s, kOpTimeoutS + 2 * 0.020 + 0.250);
  EXPECT_EQ(counter(backend.metrics_snapshot(), "backend.quorum_failures"), 1u);

  backend.stop(0.5);
  for (FakePeer& peer : hung) peer.stop();
}

TEST(QuorumSuite, SlowJoinerGetsItsWholeHandoffOnOneConnection) {
  // The joiner is a stand-in that answers each member's frames one every
  // 2 ms, so acking a member's handoff burst takes several op_timeout_s. A
  // peer still answering is behind, not hung: no member resets its link,
  // which would hand back the unanswered rest of the burst (and discard
  // what was still unsent), so every key the post-join ring gives the
  // joiner reaches it and is acked on the first connection.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 600;
  constexpr double kOpTimeoutS = 0.1;
  FakePeer joiner(std::chrono::milliseconds(2));
  ASSERT_TRUE(joiner.start());

  Mesh mesh;
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    BackendConfig config = quorum_config(node, kNodes, kReplication, kItems);
    config.partitioner = "ring";
    config.op_timeout_s = kOpTimeoutS;
    auto backend = std::make_unique<BackendServer>(config);
    ASSERT_TRUE(backend->start());
    mesh.endpoints.emplace_back("127.0.0.1", backend->port());
    mesh.backends.push_back(std::move(backend));
  }
  mesh.rewire();
  for (auto& backend : mesh.backends) ASSERT_TRUE(backend->wait_peers_up(5.0));

  ConsistentHashRing ring(kNodes + 1, kReplication, 64, kPartitionSeed);
  std::vector<KeyId> moved;
  std::vector<NodeId> group(kReplication);
  for (KeyId key = 0; key < kItems; ++key) {
    ring.replica_group(key, group);
    if (std::find(group.begin(), group.end(), NodeId{kNodes}) != group.end()) {
      moved.push_back(key);
    }
  }
  // Spread over the three members, each one's burst still takes at least
  // twice op_timeout_s to ack at 2 ms a frame.
  ASSERT_GE(moved.size() * 0.002 / kNodes, 2 * kOpTimeoutS);

  Message join;
  join.type = MsgType::kJoin;
  join.node = kNodes;
  join.payload = "127.0.0.1:" + std::to_string(joiner.port());
  for (std::uint32_t node = 0; node < kNodes; ++node) {
    SyncClient admin;
    ASSERT_TRUE(admin.connect("127.0.0.1", mesh.backends[node]->port()));
    const auto reply = admin.call(join, 3.0);
    ASSERT_TRUE(reply.has_value()) << "member " << node;
    ASSERT_EQ(reply->type, MsgType::kWriteReply) << reply->payload;
  }

  const auto acked_all = [&] {
    std::vector<KeyId> got = joiner.acked();
    std::sort(got.begin(), got.end());
    return std::all_of(moved.begin(), moved.end(), [&](KeyId key) {
      return std::binary_search(got.begin(), got.end(), key);
    });
  };
  EXPECT_TRUE(eventually(acked_all, 5.0))
      << "a moved key never reached the joiner";
  EXPECT_EQ(joiner.accepts().size(), kNodes)
      << "a member reset its link to a joiner that was still answering";

  for (auto& backend : mesh.backends) backend->stop(0.5);
  joiner.stop();
}

/// A bare client connection: send() puts a frame on the wire without
/// waiting for a reply, so two connections can issue requests back to
/// back; receive() blocks for the next reply frame.
class RawClient {
 public:
  bool connect(std::uint16_t port) {
    sock_ = connect_tcp("127.0.0.1", port, 2.0);
    return sock_.valid();
  }

  bool send(const Message& message) {
    const std::vector<std::uint8_t> frame = encode(message);
    return ::send(sock_.fd(), frame.data(), frame.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(frame.size());
  }

  std::optional<Message> receive(double timeout_s) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    std::uint8_t buffer[4096];
    while (true) {
      if (auto payload = reader_.next_payload()) {
        return decode_payload(*payload);
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
      pollfd pfd{sock_.fd(), POLLIN, 0};
      if (left <= 0 || ::poll(&pfd, 1, static_cast<int>(left)) <= 0) {
        return std::nullopt;
      }
      const ssize_t n = ::recv(sock_.fd(), buffer, sizeof(buffer), 0);
      if (n <= 0) return std::nullopt;
      reader_.append({buffer, static_cast<std::size_t>(n)});
    }
  }

 private:
  Socket sock_;
  FrameReader reader_;
};

constexpr int kRaceRounds = 200;

/// Round k: client A sends PUT(k) and client B sends GET(k) back to back on
/// their own connections to `port`. Returns the rounds in which A got
/// kWriteReply and B got kValue, each carrying its request's id. Both
/// clients use the same id every round: a server must echo ids, never
/// require them to be unique.
int raced_rounds_answered_correctly(std::uint16_t port) {
  RawClient writer;
  RawClient reader;
  if (!writer.connect(port) || !reader.connect(port)) return -1;
  int correct = 0;
  for (int round = 0; round < kRaceRounds; ++round) {
    const std::uint64_t key = static_cast<std::uint64_t>(round);
    Message put = make_put(key, "round " + std::to_string(round));
    put.id = static_cast<std::uint32_t>(round);
    Message get = make_req(MsgType::kGet, key);
    get.id = static_cast<std::uint32_t>(round);
    if (!writer.send(put) || !reader.send(get)) return correct;
    const auto ack = writer.receive(3.0);
    const auto value = reader.receive(3.0);
    if (!ack.has_value() || !value.has_value()) return correct;
    if (ack->type == MsgType::kWriteReply && ack->key == key &&
        ack->id == put.id && value->type == MsgType::kValue &&
        value->key == key && value->id == get.id) {
      ++correct;
    }
  }
  return correct;
}

/// The write-path cluster the races run against: 3 meshed backends with
/// n = d = 3, W = 2, and a front end without a cache, so every GET and
/// PUT is forwarded over the same front-end → backend connection.
FrontendConfig uncached_frontend_config(const Mesh& mesh) {
  FrontendConfig config;
  config.nodes = 3;
  config.replication = 3;
  config.partition_seed = kPartitionSeed;
  config.backends = mesh.endpoints;
  config.cache_policy = "none";
  return config;
}

TEST(ReplyMatching, PutAndGetRacedThroughTheFrontendGetTheirOwnReplies) {
  Mesh mesh = start_mesh(3, 3, /*items=*/kRaceRounds);
  FrontendServer frontend(uncached_frontend_config(mesh));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  EXPECT_EQ(raced_rounds_answered_correctly(frontend.port()), kRaceRounds);

  frontend.stop(0.5);
  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(ReplyMatching, PutAndGetRacedThroughTheRouterGetTheirOwnReplies) {
  Mesh mesh = start_mesh(3, 3, /*items=*/kRaceRounds);
  FrontendServer frontend(uncached_frontend_config(mesh));
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));
  RouterConfig router_config;
  router_config.frontends = {{"127.0.0.1", frontend.port()}};
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  EXPECT_EQ(raced_rounds_answered_correctly(router.port()), kRaceRounds);

  router.stop(0.5);
  frontend.stop(0.5);
  for (auto& backend : mesh.backends) backend->stop(0.5);
}

TEST(QuorumSuite, FrontendWriteInvalidatesItsCacheAndRefetches) {
  // The FE serves cached reads from the perfect oracle; a PUT through the
  // FE must stop the oracle from synthesizing the stale value until the
  // backend confirms the refetched bytes.
  constexpr std::uint64_t kItems = 32;
  Mesh mesh = start_mesh(3, 3, kItems);

  FrontendConfig fe_config;
  fe_config.nodes = 3;
  fe_config.replication = 3;
  fe_config.partition_seed = kPartitionSeed;
  fe_config.backends = mesh.endpoints;
  fe_config.cache_policy = "perfect";
  fe_config.cache_capacity = kItems;  // every key cached
  fe_config.items = kItems;
  FrontendServer frontend(fe_config);
  ASSERT_TRUE(frontend.start());
  ASSERT_TRUE(frontend.wait_backends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));

  // Cached read first: served by the oracle without touching a backend.
  const std::uint64_t key = 3;
  const auto cached = client.get(key, 2.0);
  ASSERT_TRUE(cached.has_value());
  ASSERT_EQ(cached->type, MsgType::kValue);
  EXPECT_EQ(cached->payload, make_value(key, fe_config.value_bytes));

  // Write through the FE: the quorum commits on the backends and the FE
  // marks the key dirty so the oracle stops answering for it.
  const auto ack =
      client.call(make_put(key, make_value(key, fe_config.value_bytes)), 3.0);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
  EXPECT_GE(frontend.stats().invalidations, 1u);

  // The next GET is forwarded (dirty), returns the backend's copy, and the
  // matching bytes re-clean the cache.
  const auto refetched = client.get(key, 3.0);
  ASSERT_TRUE(refetched.has_value());
  ASSERT_EQ(refetched->type, MsgType::kValue);
  EXPECT_EQ(refetched->payload, make_value(key, fe_config.value_bytes));

  const ServerStats after_refetch = frontend.stats();
  EXPECT_GE(after_refetch.forwarded, 1u);

  // Cache serves again: no new forward for the same key.
  const auto again = client.get(key, 2.0);
  ASSERT_TRUE(again.has_value());
  ASSERT_EQ(again->type, MsgType::kValue);
  EXPECT_EQ(frontend.stats().forwarded, after_refetch.forwarded)
      << "a cleaned key must be served from the cache again";

  frontend.stop(0.5);
  for (auto& backend : mesh.backends) backend->stop(0.5);
}

// stats() and the metrics registry are one store read two ways; this pins
// the name mapping on a backend and a router. GETs, a PUT and a DELETE go
// through a router and a 2-member fleet to a meshed pair of backends.
TEST(QuorumSuite, StatsAgreeWithTheRegistryOnBackendsAndRouter) {
  constexpr std::uint64_t kItems = 32;
  constexpr std::uint32_t kFleet = 2;
  constexpr std::uint64_t kFleetSeed = 4242;
  Mesh mesh = start_mesh(2, 2, kItems);

  std::vector<std::unique_ptr<FrontendServer>> members;
  std::vector<std::pair<std::string, std::uint16_t>> member_endpoints;
  for (std::uint32_t member = 0; member < kFleet; ++member) {
    FrontendConfig config;
    config.nodes = 2;
    config.replication = 2;
    config.partition_seed = kPartitionSeed;
    config.backends = mesh.endpoints;
    config.cache_policy = "perfect";
    config.cache_capacity = 8;
    config.items = kItems;
    config.fleet_size = kFleet;
    config.fleet_index = member;
    config.fleet_seed = kFleetSeed;
    members.push_back(std::make_unique<FrontendServer>(config));
    ASSERT_TRUE(members.back()->start());
    ASSERT_TRUE(members.back()->wait_backends_up(5.0));
    member_endpoints.emplace_back("127.0.0.1", members.back()->port());
  }
  RouterConfig router_config;
  router_config.frontends = member_endpoints;
  router_config.fleet_seed = kFleetSeed;
  RouterServer router(router_config);
  ASSERT_TRUE(router.start());
  ASSERT_TRUE(router.wait_frontends_up(5.0));

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", router.port()));
  for (std::uint64_t key = 0; key < kItems; ++key) {
    const auto reply = client.get(key, 3.0);
    ASSERT_TRUE(reply.has_value()) << "key " << key;
    ASSERT_EQ(reply->type, MsgType::kValue) << "key " << key;
  }
  const auto put_ack = client.call(make_put(5, "rewritten"), 3.0);
  ASSERT_TRUE(put_ack.has_value());
  ASSERT_EQ(put_ack->type, MsgType::kWriteReply) << put_ack->payload;
  const auto delete_ack = client.call(make_req(MsgType::kDelete, 20), 3.0);
  ASSERT_TRUE(delete_ack.has_value());
  ASSERT_EQ(delete_ack->type, MsgType::kWriteReply) << delete_ack->payload;
  const auto deleted = client.get(20, 3.0);
  ASSERT_TRUE(deleted.has_value());
  EXPECT_EQ(deleted->type, MsgType::kMiss);

  const ServerStats router_stats = router.stats();
  const obs::MetricsSnapshot router_snap = router.metrics_snapshot();
  const auto& rc = router_snap.counters;
  EXPECT_EQ(rc.at("router.requests"), router_stats.requests);
  EXPECT_EQ(rc.at("router.forwarded"), router_stats.forwarded);
  EXPECT_EQ(rc.at("router.redirects_followed"), router_stats.redirects);
  EXPECT_EQ(rc.at("router.retries"), router_stats.retries);
  EXPECT_EQ(rc.at("router.failures"), router_stats.failures);
  EXPECT_EQ(rc.at("router.attempts_total"), router_stats.attempts);
  EXPECT_EQ(router_stats.requests, kItems + 3);
  EXPECT_EQ(router_stats.forwarded, router_stats.requests);

  ServerStats fleet_total;
  for (std::size_t node = 0; node < mesh.backends.size(); ++node) {
    const BackendServer& backend = *mesh.backends[node];
    const ServerStats stats = backend.stats();
    const obs::MetricsSnapshot snap = backend.metrics_snapshot();
    const auto& bc = snap.counters;
    EXPECT_EQ(bc.at("backend.requests"), stats.requests) << "node " << node;
    EXPECT_EQ(bc.at("backend.hits"), stats.hits) << "node " << node;
    EXPECT_EQ(bc.at("backend.misses"), stats.misses) << "node " << node;
    EXPECT_EQ(bc.at("backend.redirects"), stats.redirects) << "node " << node;
    EXPECT_EQ(bc.at("backend.puts"), stats.puts) << "node " << node;
    EXPECT_EQ(bc.at("backend.deletes"), stats.deletes) << "node " << node;
    EXPECT_EQ(bc.at("backend.replications"), stats.replications)
        << "node " << node;
    fleet_total.requests += stats.requests;
    fleet_total.misses += stats.misses;
    fleet_total.puts += stats.puts;
    fleet_total.deletes += stats.deletes;
    fleet_total.replications += stats.replications;
  }
  EXPECT_GT(fleet_total.requests, 0u);
  EXPECT_GE(fleet_total.misses, 1u);
  EXPECT_EQ(fleet_total.puts, 1u);
  EXPECT_EQ(fleet_total.deletes, 1u);
  EXPECT_GE(fleet_total.replications, 2u);  // W = 2 of d = 2, per write

  router.stop(0.5);
  for (auto& member : members) member->stop(0.5);
  for (auto& backend : mesh.backends) backend->stop(0.5);
}

}  // namespace
}  // namespace scp::net
