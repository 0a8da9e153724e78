// scp_backend: one replica-group member serving GETs — and, since the
// write path landed, coordinating quorum-replicated PUT/DELETEs.
//
// Read path (unchanged from the read-only tier): a kGet is answered from
// the local kvstore::StorageEngine, preloaded with every key whose replica
// group (under the cluster-wide partitioner seed) contains this node. A GET
// for a key this node does not own is answered with REDIRECT to the key's
// first replica. Per-node request counters are the measurement the live
// serving bench exists for.
//
// Write path (Dynamo-style sloppy quorum, coordinator-driven): any backend
// can coordinate a kPut/kDelete. The coordinator mints a version from its
// VersionClock, applies locally when it is a group member, fans kReplicate
// to the other replicas over its peer-mesh connections, and acks the client
// with kWriteReply once W replicas (its own apply included) confirmed —
// failing fast when the reachable replicas cannot reach W. kQuorumGet fans
// kVerRead, resolves last-writer-wins over R versioned responses and
// read-repairs stale replicas with the winner. With R+W>N a write acked by
// any coordinator is readable through any coordinator with a replica down.
//
// Liveness: a peer is up exactly when the shard's Upstream link to it is
// up (upstream.h), the rule the front end and the router route by too.
// Write and quorum-read fan-out skip a peer whose link is down (the send
// fails), so a hung peer leaves routing once a request to it outlives
// op_timeout_s and returns only when it answers a ping. An idle link to a
// peer that hangs is not noticed until the next request to it. kJoin/kLeave
// mutate the consistent-hash ring live, bumping the ring epoch: each member
// re-plans ownership, elects one streamer per moved key (the first old
// holder that is this node or whose link is up) and streams handoff as
// idempotent kReplicate applies — old holders keep serving while keys
// move.
//
// Each shard drives its peers through one Upstream (upstream.h), the link
// module the front end and the router use too: it dials and re-dials,
// matches replies by request id, defers read-repair and handoff frames
// while a peer is down, and resets a peer that stays connected but owes a
// reply and answers nothing for op_timeout_s. That reset is a quorum op's
// only deadline: it hands the peer's frames back as lost, which decides
// every op waiting on them. Client replies echo the client's id: a quorum
// write is acked only once W replicas confirmed, after replies to requests
// sent later.
//
// Hot-key detection (config.detect): every served GET feeds one
// SpaceSaving sketch shared by the shards. Every detect_interval_s shard 0
// drains it into a kHotKeyReport, ages it and pushes the report to the
// connections that sent kHotKeySubscribe (front ends). The front ends merge
// every backend's reports and decide what is hot; a backend keeps no hot
// set of its own, so detection needs no replica mesh.
//
// Counters live only in each shard's metrics registry, bumped by the shard
// whose loop runs the code (report pushes and handoff included); stats()
// and metrics_snapshot() read them back.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/partitioner.h"
#include "detect/hot_key.h"
#include "kvstore/storage_engine.h"
#include "net/reactor_pool.h"
#include "net/upstream.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "replication/quorum.h"
#include "replication/version.h"

namespace scp::net {

struct BackendConfig {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned (see BackendServer::port)
  std::uint32_t node_id = 0;
  std::uint32_t nodes = 8;        ///< n
  std::uint32_t replication = 2;  ///< d
  std::string partitioner = "hash";
  std::uint64_t partition_seed = 1;
  /// Keys 0…items-1 are preloaded where owned; 0 = empty store.
  std::uint64_t items = 0;
  std::uint32_t value_bytes = 64;
  /// Prometheus endpoint: -1 = none, 0 = kernel-assigned, else fixed port.
  std::int32_t metrics_port = -1;
  /// Reactor shards sharing the listening port (SO_REUSEPORT). The request
  /// path is stateless over the shared storage, so sharding a backend
  /// changes only which thread serves a connection.
  std::uint32_t shards = 1;
  /// Test hook: force the single-acceptor round-robin accept path.
  bool force_fallback_accept = false;

  /// Replica-mesh endpoint per NodeId (index = node; this node's own entry
  /// is ignored). Empty = no mesh: writes coordinate locally with W=1,
  /// which keeps single-node benches and the read-only tier working
  /// unchanged. Kernel-assigned ports are wired post-start via set_peers().
  std::vector<std::pair<std::string, std::uint16_t>> peers;
  /// W and R. 0 = majority of d (d/2+1); both are clamped to [1, d].
  std::uint32_t write_quorum = 0;
  std::uint32_t read_quorum = 0;
  /// The peer link deadline: a peer that owes a reply and has answered
  /// nothing for this long has its connection reset and re-dialed, and stays
  /// out of fan-out until it answers a ping. The quorum ops waiting on it
  /// count its replies lost, and one left short of its quorum fails with
  /// kError.
  double op_timeout_s = 1.0;

  /// Hot-key detection (src/detect): sketch the GETs this node serves and
  /// every detect_interval_s push the sketch's top keys as a kHotKeyReport
  /// to the connections that sent kHotKeySubscribe (front ends), which
  /// classify. Exported as detect.observed / .reports_sent / .sketch_keys.
  bool detect = false;
  double detect_interval_s = 0.25;  ///< report + sketch-aging cadence
};

class BackendServer {
 public:
  explicit BackendServer(BackendConfig config);
  ~BackendServer();

  /// Binds, preloads the storage engine and starts serving. False on bind
  /// failure. When config.peers is non-empty the replica mesh is wired
  /// immediately.
  bool start();
  /// Graceful stop: drains queued replies for up to `drain_s`.
  void stop(double drain_s = 1.0);

  /// Wires (or re-wires) the replica mesh: endpoint per NodeId, self
  /// ignored. Callable before or after start() — tests and the bench spawn
  /// every backend on port 0 first, then hand the resolved ports around.
  void set_peers(std::vector<std::pair<std::string, std::uint16_t>> endpoints);

  /// Blocks until every shard's connection to every peer is up (true) or
  /// the timeout expires (false).
  bool wait_peers_up(double timeout_s) const;

  std::uint16_t port() const noexcept { return pool_.port(); }
  bool running() const noexcept { return pool_.running(); }

  /// Counter snapshot, aggregated across shards (thread-safe).
  ServerStats stats() const;

  /// Full metrics snapshot: shard registries merged, plus the loop counters
  /// and the gauges computed at scrape time. With shards > 1 each shard's
  /// series also appear as "backend.shardK.*" (thread-safe).
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Bound Prometheus endpoint port, or 0 when config.metrics_port == -1.
  std::uint16_t metrics_http_port() const noexcept;

  /// Summed reactor counters across shards — syscalls and wakeups feed the
  /// syscalls/request and frames/wakeup measurements (thread-safe).
  ReactorPool::Totals loop_totals() const { return pool_.totals(); }

  /// Thread-safe versioned lookup (tombstones included) — what loopback
  /// tests use to assert replica convergence while the server runs.
  std::optional<StorageEngine::Entry> storage_entry(KeyId key) const;

  /// Direct storage access for quiescent introspection only (no lock).
  const StorageEngine& storage() const noexcept { return storage_; }
  const BackendConfig& config() const noexcept { return config_; }

 private:
  /// An in-flight coordinated operation (write or quorum read).
  struct Op {
    ReplyTo client;
    MsgType kind = MsgType::kPut;  ///< kPut, kDelete or kQuorumGet
    std::uint64_t key = 0;
    std::uint64_t version = 0;  ///< writes: the minted version
    std::optional<replication::WriteQuorum> write;
    std::optional<replication::ReadQuorum> read;
    std::uint64_t start_ns = 0;
  };

  /// Per-reactor mutable state, touched only by that shard's loop thread.
  struct Shard {
    Reactor* loop = nullptr;
    std::unique_ptr<Upstream> upstream;  ///< link i = peer NodeId i
    /// Coordinated ops awaiting peer replies, by id, until their quorum is
    /// decided.
    std::unordered_map<std::uint64_t, Op> ops;
    std::uint64_t next_op = 1;
    std::vector<NodeId> group;  ///< replica-group scratch
    /// Connections that asked for kHotKeyReport pushes (front ends).
    std::vector<ConnId> hot_subs;

    obs::MetricsRegistry registry;
    // Handles into `registry`, taken in start().
    obs::Counter* requests = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* redirects = nullptr;
    obs::Counter* puts = nullptr;
    obs::Counter* deletes = nullptr;
    obs::Counter* replications = nullptr;
    obs::Counter* quorum_gets = nullptr;
    obs::Counter* quorum_failures = nullptr;
    obs::Counter* read_repairs = nullptr;
    obs::Counter* rebalanced_keys = nullptr;
    // config.detect only.
    obs::Counter* hot_observed = nullptr;
    obs::Counter* hot_reports_sent = nullptr;
    obs::Timer* service_us = nullptr;
    obs::Timer* write_us = nullptr;
    obs::Timer* quorum_read_us = nullptr;
  };

  void preload();
  std::uint32_t write_quorum_need() const noexcept;
  std::uint32_t read_quorum_need() const noexcept;
  bool in_group(const std::vector<NodeId>& group) const noexcept;

  void handle(Shard& shard, ConnId conn, Message&& message);
  /// `reply` answered the frame `request` sent to peer `node`.
  void handle_peer_reply(Shard& shard, std::uint32_t node, Forward&& request,
                         Message&& reply);

  void handle_get(Shard& shard, ConnId conn, const Message& message);
  /// Serves a whole kBatchGet in one pass — one partitioner lock, one
  /// storage lock, one sketch lock for every key — and answers with a
  /// single kBatchReply carrying a per-key verdict in request order.
  void handle_batch_get(Shard& shard, ConnId conn, const Message& message);
  void handle_write(Shard& shard, ConnId conn, const Message& message);
  void handle_quorum_get(Shard& shard, ConnId conn, const Message& message);
  void handle_replicate(Shard& shard, ConnId conn, const Message& message);
  void handle_ver_read(Shard& shard, ConnId conn, const Message& message);
  void handle_join(Shard& shard, ConnId conn, const Message& message);
  void handle_leave(Shard& shard, ConnId conn, const Message& message);

  /// Counts a lost peer reply (closed link, kError) against op `op_id`'s
  /// quorum, resolving or failing it when that tips the balance. 0 = none.
  void apply_peer_loss(Shard& shard, std::uint64_t op_id);

  /// Answers `op`'s client once `state` decides its quorum; false while it
  /// is pending.
  bool conclude(Shard& shard, Op& op, replication::QuorumState state);
  void resolve_write(Shard& shard, Op& op);
  void resolve_read(Shard& shard, Op& op);
  void fail_op(Shard& shard, Op& op, const char* reason);

  /// Runs `fn` on `target`'s loop: now when that is `current`'s, else
  /// posted.
  static void run_on(Shard& current, Shard& target, std::function<void()> fn);

  /// Streams handoff for a ring change this node is the elected streamer
  /// of. `old_group_of` must reflect the ring before the change.
  void stream_handoff(
      Shard& shard,
      const std::function<void(KeyId, std::span<NodeId>)>& old_group_of);

  /// Hot-key report tick (shard 0's loop): drain the sketch into a report,
  /// age it and post the report to every shard's subscribers. One-way
  /// frames — no reply bookkeeping anywhere.
  void hot_tick();

  BackendConfig config_;
  std::unique_ptr<ReplicaPartitioner> partitioner_;
  mutable std::shared_mutex partitioner_mutex_;  ///< ring join/leave
  StorageEngine storage_;
  mutable std::shared_mutex storage_mutex_;
  ReactorPool pool_;
  // unique_ptr: Shard holds a registry and an Upstream, neither movable. One
  // registry per shard so the hot path never shares a cache line across
  // reactors; scrapes merge them (merge_shard_snapshots).
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<obs::MetricsHttpServer> metrics_http_;

  /// Hot-key detection state. The sketch is guarded by its own mutex: every
  /// shard's serve path observes into it (~20 ns uncontended, in line with
  /// the shared storage locks already on that path) and shard 0's tick
  /// drains it.
  std::unique_ptr<detect::HotKeyDetector> hot_detector_;
  mutable std::mutex hot_mutex_;

  replication::VersionClock clock_;
  /// Ring changes applied by kJoin/kLeave; their acks carry it.
  std::atomic<std::uint64_t> ring_epoch_{0};
  std::atomic<bool> peers_configured_{false};
  std::atomic<bool> stopping_{false};
  /// Mesh connections each shard should establish (for wait_peers_up).
  std::atomic<std::uint32_t> peer_target_{0};
};

}  // namespace scp::net
