// Loopback tests for the quorum-replicated write path: real TCP backends
// wired into a replica mesh on kernel-assigned ports by net::LocalTier,
// driven by the blocking SyncClient. A case builds a backend by hand only
// to restart or add one, or to give it stand-in peers. Proves the
// acceptance property over real sockets:
// with R+W>N (N=3, R=W=2) a write acked by any coordinator is readable
// through any coordinator with one replica crashed, and read-repair
// converges a restarted replica. The ReplyMatching cases race a PUT and a
// GET for one key through the front end and the router: the backend acks
// the PUT only after its quorum but answers the GET at once, so each hop
// must match replies by request id, not by order or key. The mesh cases
// pin the peer links: sharded backends, a left peer that is never
// re-dialed, a hung peer that the link deadline resets (failing a write it
// leaves short of W) and keeps out of fan-out until it answers a ping, and
// a slow joiner that it does not reset. The idle case checks that a front
// end and meshed backends with nothing pending set no timer of their own.
// The last case checks that every tier's stats() reads the same counters
// it exports.
#include <poll.h>
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/partitioner.h"
#include "fake_peer.h"
#include "loopback_tier.h"
#include "net/local_tier.h"
#include "net/socket.h"
#include "net/sync_client.h"

namespace scp::net {
namespace {

/// Backends with W = R = 2 and a 2 s peer link deadline.
BackendConfig quorum_template(std::uint32_t nodes, std::uint32_t replication,
                              std::uint64_t items) {
  BackendConfig config = backend_template(nodes, replication, items);
  config.write_quorum = 2;
  config.read_quorum = 2;
  config.op_timeout_s = 2.0;
  return config;
}

/// A ring-partitioned meshed tier, whose membership kJoin/kLeave change.
BackendConfig ring_template(std::uint32_t nodes, std::uint32_t replication,
                            std::uint64_t items) {
  BackendConfig config = quorum_template(nodes, replication, items);
  config.partitioner = "ring";
  return config;
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

TEST(QuorumSuite, WriteThroughOneCoordinatorReadsThroughEveryOther) {
  // N=3, d=3: every node replicates every key, so every node coordinates
  // for every key and every storage engine must converge.
  LocalTier mesh(quorum_template(3, 3, /*items=*/0), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
}

TEST(QuorumSuite, DeleteTombstonesAcrossTheQuorum) {
  LocalTier mesh(quorum_template(3, 3, /*items=*/0), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
}

TEST(QuorumSuite, QuorumSurvivesOneReplicaCrash) {
  LocalTier mesh(quorum_template(3, 3, /*items=*/0), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
}

TEST(QuorumSuite, ReadRepairConvergesARestartedReplica) {
  LocalTier mesh(quorum_template(3, 3, /*items=*/0), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

  // Crash replica 2, then commit a write it never sees.
  const BackendConfig node2 = mesh.backends[2]->config();
  mesh.backends[2]->stop(0.0);
  mesh.backends[2].reset();

  SyncClient writer;
  ASSERT_TRUE(writer.connect("127.0.0.1", mesh.backends[0]->port()));
  const auto ack = writer.call(make_put(21, "repaired value"), 3.0);
  ASSERT_TRUE(ack.has_value());
  ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;

  // Restart node 2 empty on a fresh port and re-wire the whole mesh.
  mesh.backends[2] = std::make_unique<BackendServer>(node2);
  ASSERT_TRUE(mesh.backends[2]->start());
  mesh.endpoints[2] = {"127.0.0.1", mesh.backends[2]->port()};
  for (auto& backend : mesh.backends) backend->set_peers(mesh.endpoints);
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
}

TEST(QuorumSuite, JoinRebalancesKeysOntoTheNewNode) {
  // Ring partitioner so membership changes actually move keys. Three nodes
  // preloaded with their owned slice of 64 keys; node 3 joins empty.
  constexpr std::uint32_t kNodes = 3;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  LocalTier mesh(ring_template(kNodes, kReplication, kItems), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

  // The joiner's own ring must equal the others' post-join ring: same seed,
  // nodes 0..3. It holds nothing until handoff streams arrive.
  BackendConfig joiner_config =
      ring_template(kNodes + 1, kReplication, /*items=*/0);
  joiner_config.node_id = kNodes;
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
}

TEST(QuorumSuite, LeaveStreamsDepartingKeysToSurvivors) {
  // Four ring nodes, d=2; node 0 leaves gracefully. Keys whose old group
  // contained node 0 gain a replacement member, and the surviving old
  // holder streams them over.
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kReplication = 2;
  constexpr std::uint64_t kItems = 64;

  LocalTier mesh(ring_template(kNodes, kReplication, kItems), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
  BackendConfig config = quorum_template(kNodes, kNodes, /*items=*/0);
  config.shards = 2;
  LocalTier mesh(config, /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
}

TEST(QuorumSuite, LeftPeerIsNeverRedialed) {
  // Once every member has acked a kLeave for node 3, no member dials it
  // again: its accept count stays put for 10x the first reconnect delay.
  constexpr std::uint32_t kNodes = 4;
  constexpr std::uint32_t kLeaver = 3;
  LocalTier mesh(ring_template(kNodes, 2, /*items=*/64), /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
}

TEST(QuorumSuite, HungPeerIsResetAndRedialedWhileWritesReachW) {
  // Nodes 0 and 1 are real; node 2 accepts and never replies. Each real
  // node sees node 2 at its own FakePeer, so each one's re-dial is visible.
  // Both real nodes coordinate writes: a peer link is reset only when a
  // frame on it goes unanswered, and nothing else is sent to an idle peer.
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
    BackendConfig config = quorum_template(3, 3, /*items=*/0);
    config.node_id = node;
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

  SyncClient writers[2];
  for (std::uint32_t node = 0; node < 2; ++node) {
    ASSERT_TRUE(writers[node].connect("127.0.0.1", backends[node]->port()));
  }
  for (std::uint64_t key = 0; key < 50; ++key) {
    const auto ack =
        writers[key % 2].call(make_put(key, "w=2 without node 2"), 3.0);
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
    // Re-dialed but silent, node 2 stays down: this node and node 1 are up.
    EXPECT_EQ(backends[node]->metrics_snapshot().gauges.at(
                  "backend.peers_alive"),
              2)
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
  BackendConfig config = quorum_template(3, 3, /*items=*/0);
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
  // A link is reset once its oldest frame, the write's, is overdue: within
  // the deadline, two sweep periods and 250 ms of slack for a loaded host or
  // a sanitizer.
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

  BackendConfig config = ring_template(kNodes, kReplication, kItems);
  config.op_timeout_s = kOpTimeoutS;
  LocalTier mesh(config, /*mesh=*/true);
  ASSERT_TRUE(mesh.start());

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
/// n = d = 3, W = 2, and `fleet` front ends without a cache, so every GET
/// and PUT is forwarded over the same front-end → backend connection.
/// A fleet of 2 gets the router in front, which sends both of a round's
/// requests to the key's owner.
int raced_rounds_through_a_tier(std::uint32_t fleet) {
  FrontendConfig uncached = frontend_template("none", 0);
  uncached.fleet_size = fleet;
  LocalTier tier(quorum_template(3, 3, /*items=*/kRaceRounds), /*mesh=*/true,
                 uncached);
  if (!tier.start()) return -1;
  return raced_rounds_answered_correctly(tier.port());
}

TEST(ReplyMatching, PutAndGetRacedThroughTheFrontendGetTheirOwnReplies) {
  EXPECT_EQ(raced_rounds_through_a_tier(1), kRaceRounds);
}

TEST(ReplyMatching, PutAndGetRacedThroughTheRouterGetTheirOwnReplies) {
  EXPECT_EQ(raced_rounds_through_a_tier(2), kRaceRounds);
}

TEST(QuorumSuite, FrontendWriteInvalidatesItsCacheAndRefetches) {
  // The FE serves every key from the perfect oracle. A PUT through the FE
  // of bytes the oracle never held drops the key's cached bytes; the next
  // GET refetches the written bytes, and the cache serves them from then on.
  constexpr std::uint64_t kItems = 32;
  // Every key cached.
  LocalTier tier(quorum_template(3, 3, kItems), /*mesh=*/true,
                 frontend_template("perfect", kItems));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];

  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));

  // Cached read first: served by the oracle without touching a backend.
  const auto cached = client.get(3, 2.0);
  ASSERT_TRUE(cached.has_value());
  ASSERT_EQ(cached->type, MsgType::kValue);
  EXPECT_EQ(cached->payload, make_value(3, 64));
  EXPECT_EQ(frontend.stats().forwarded, 0u);

  for (std::uint64_t key = 0; key < kItems; ++key) {
    const std::string written = "written to key " + std::to_string(key);
    const auto ack = client.call(make_put(key, written), 3.0);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
    // The first GET refetches the written bytes; every later one is a hit.
    for (int i = 0; i < 3; ++i) {
      const std::uint64_t hits_before = frontend.stats().hits;
      const auto reply = client.get(key, 3.0);
      ASSERT_TRUE(reply.has_value());
      ASSERT_EQ(reply->type, MsgType::kValue);
      EXPECT_EQ(reply->payload, written) << "key " << key << " GET " << i;
      EXPECT_EQ(frontend.stats().hits, hits_before + (i == 0 ? 0 : 1))
          << "key " << key << " GET " << i;
    }
  }
  const ServerStats stats = frontend.stats();
  EXPECT_EQ(stats.invalidations, kItems);
  EXPECT_EQ(stats.forwarded, 2 * kItems);  // each PUT and its one refetch
}

TEST(QuorumSuite, IdleFrontendAndMeshSleep) {
  // A loop with no timer wakes every 100 ms. A link module's 20 ms deadline
  // sweep must add nothing to that while no request is pending.
  LocalTier tier(quorum_template(3, 3, /*items=*/32), /*mesh=*/true,
                 frontend_template("none", 0));
  ASSERT_TRUE(tier.start());
  FrontendServer& frontend = *tier.frontends[0];
  SyncClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", frontend.port()));
  for (std::uint64_t key = 0; key < 8; ++key) {
    const auto ack = client.call(make_put(key, "written"), 3.0);
    ASSERT_TRUE(ack.has_value());
    ASSERT_EQ(ack->type, MsgType::kWriteReply) << ack->payload;
    const auto reply = client.get(key, 3.0);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->type, MsgType::kValue);
  }

  const auto wakeups = [&] {
    std::vector<std::uint64_t> counts{frontend.loop_totals().wakeups};
    for (const auto& backend : tier.backends) {
      counts.push_back(backend->loop_totals().wakeups);
    }
    return counts;
  };
  const std::vector<std::uint64_t> before = wakeups();
  std::this_thread::sleep_for(std::chrono::seconds(2));
  const std::vector<std::uint64_t> after = wakeups();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_LE(after[i] - before[i], 40u)
        << (i == 0 ? "front end" : "backend " + std::to_string(i - 1));
  }
}

// stats() and the metrics registry are one store read two ways; this pins
// the name mapping on a backend and a router. GETs, a PUT and a DELETE go
// through a router and a 2-member fleet to a meshed pair of backends.
TEST(QuorumSuite, StatsAgreeWithTheRegistryOnBackendsAndRouter) {
  constexpr std::uint64_t kItems = 32;
  FrontendConfig fleet = frontend_template("perfect", 8);
  fleet.fleet_size = 2;
  fleet.fleet_seed = 4242;
  LocalTier tier(quorum_template(2, 2, kItems), /*mesh=*/true, fleet);
  ASSERT_TRUE(tier.start());
  RouterServer& router = *tier.router;

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
  for (std::size_t node = 0; node < tier.backends.size(); ++node) {
    const BackendServer& backend = *tier.backends[node];
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
}

}  // namespace
}  // namespace scp::net
