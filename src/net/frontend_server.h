// scp_frontend: the paper's front end as a real TCP server.
//
// Serves client GETs from a front-end cache (perfect-prefix oracle or one
// real policy cache per shard, from make_cache); misses are forwarded to a
// backend chosen from the key's replica group by a pinned, least-loaded
// first pick (the paper's stable key → serving-node balls-into-bins
// placement, with the cumulative forwarded count per backend as the load
// signal). Dead backends are handled with cluster::RetryPolicy: capped
// exponential backoff between re-forwards, a per-request deadline and
// automatic reconnection.
//
// Each shard's Upstream (upstream.h) owns its backend connections: it
// dials them, batches GET forwards into kBatchGet frames, matches replies
// by request id, enforces the deadlines and hands back the requests of a
// dropped connection. Client replies echo the id the client sent.
//
// Sharding (config.shards = N > 1): a ReactorPool runs N reactors sharing
// the listening port via SO_REUSEPORT, and every piece of per-request state
// — cache, backend connections, pending queues, router state, RNG, metrics
// registry — lives inside one Shard, touched only by that shard's loop
// thread (no locks on the request path). The front-end cache is
// hash-partitioned, not duplicated: shard k owns keys with
// mix64(key) % N == k and gets capacity ⌈c/N⌉ or ⌊c/N⌋ of the configured c,
// so total cache footprint stays c. The paper's model has one cache of
// capacity c in front of the cluster; the sharded FE approximates it with
// the same aggregate capacity, at the cost that a GET landing (by kernel
// connection placement) on a shard that doesn't own its key is a miss and
// forwards even when a sibling shard holds the value — under random conn
// placement the aggregate hit rate scales like 1/N of the keys a client
// happens to reach the owning shard for. Routers run per shard (each shard
// pins keys and tracks loads from its own forwards). shards == 1 is
// byte-identical to the unsharded server.
//
// Cache state: one rule for every cache kind — a hit is a key whose bytes
// the shard holds in Shard::values, and a fetch fills a key's bytes only
// while the shard holds its slot. A policy shard's slots are the keys its
// policy holds (the policy's eviction listener erases a dropped key's
// bytes). An oracle shard's slots are its own keys of the rank prefix
// [0, c), filled at start with the bytes every backend preloads; with
// config.detect a key flagged hot at the backends takes the slot of the
// shard's largest own prefix key until it cools. A write drops the key's
// bytes (a policy drops the slot too, the oracle keeps it), and the next
// fetch refills the slot with whatever the backend returns. Either way a
// shard never holds more than its slice.
//
// Forward path: a GET miss for a key that already has a forward in flight
// parks on that forward (single-flight coalescing, counted as
// frontend.coalesced); the one backend reply answers every parked client,
// so an x-key miss flood costs at most x upstream fetches per RTT.
//
// Counters live only in each shard's metrics registry; stats(),
// batch_totals() and metrics_snapshot() all read them back.
//
// Fleet mode (config.fleet_size = N > 1): this process is one member of a
// distributed front-end tier (DistCache-style). The aggregate cache budget
// c is partitioned across the N members by the independent fleet hash
// (src/net/fleet.h — keyed SipHash, unrelated to both the backend replica
// partitioner and the intra-process mix64 shard split): only the owning
// member may cache a key, so the fleet's total footprint stays exactly c.
// A GET for a key owned by a sibling is answered with kRedirect carrying
// the *fleet index* of the owner (the edge router maps indices to
// endpoints and re-dispatches) — with the perfect-oracle cache only when
// the key is globally cached (rank < c); globally-uncached keys are
// forwarded to a backend right here. A write bounces whenever the owner may
// cache its key (may_cache), which with detection is any key below m, so
// the owner invalidates a re-provisioned slot. The router sends every key
// to its owner, so a member answers kRedirect only to a direct client or
// while the router routes around a down owner. Policy caches redirect
// every non-owned key: only the owner knows its cache contents.
// fleet_size == 1 disables all of this byte-for-byte.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cache/cache.h"
#include "cluster/partitioner.h"
#include "cluster/routing.h"
#include "common/rng.h"
#include "detect/hot_key.h"
#include "net/reactor_pool.h"
#include "net/upstream.h"
#include "obs/exposition.h"
#include "obs/metrics.h"

namespace scp::net {

struct FrontendConfig {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned
  std::uint32_t nodes = 8;        ///< n (must equal backends.size())
  std::uint32_t replication = 2;  ///< d
  std::string partitioner = "hash";
  /// Must match every backend's partition_seed or GETs bounce as REDIRECTs.
  std::uint64_t partition_seed = 1;
  /// Backend address/port per NodeId (index = node).
  std::vector<std::pair<std::string, std::uint16_t>> backends;

  /// "perfect" (Assumption-2 oracle over the rank-canonical key space),
  /// "none", or a make_cache policy: lru | lfu | slru | tinylfu.
  std::string cache_policy = "perfect";
  std::size_t cache_capacity = 0;  ///< total entries across shards (c)
  std::uint64_t items = 0;         ///< key space size m (perfect cache bound)
  std::uint32_t value_bytes = 64;  ///< the oracle's start-up fill

  RetryPolicy retry;
  std::uint64_t seed = 1;  ///< routing tie-breaks

  /// Prometheus endpoint: -1 = none, 0 = kernel-assigned, else fixed port.
  std::int32_t metrics_port = -1;
  /// Reactor shards (see file comment). Each shard holds its own backend
  /// connections and a hash-partitioned slice of the cache.
  std::uint32_t shards = 1;
  /// Fleet mode (see file comment): this process is member `fleet_index` of
  /// a `fleet_size`-wide front-end tier whose members partition the
  /// aggregate `cache_capacity` by the fleet hash under `fleet_seed`. The
  /// seed must match across the tier and its router or redirects loop.
  std::uint32_t fleet_size = 1;
  std::uint32_t fleet_index = 0;
  std::uint64_t fleet_seed = 0;
  /// Test hook: force the single-acceptor round-robin accept path.
  bool force_fallback_accept = false;

  /// Hot-key mitigation (src/detect): subscribe to kHotKeyReport pushes
  /// from every backend (which must run with BackendConfig::detect), feed
  /// them into a per-shard HotKeyAggregator, and treat a key that is
  /// globally hot at the backends *but absent from this cache* as the
  /// miss-flood signature: force-admit it into the policy tier and warm its
  /// bytes with a self-initiated fetch, so the attack's own keys become
  /// cache hits and the backend gain excursion collapses. The perfect
  /// oracle instead gives the key the slot of one of its provisioned keys
  /// (see the file comment) and warms it the same way. Exported as
  /// detect.* metrics.
  bool detect = false;
  /// Aggregator classification knobs (see detect::HotKeyAggregator), the
  /// tier's only ones: backends report what they served, front ends decide.
  double detect_hot_fraction = 0.02;
  std::uint64_t detect_min_samples = 256;
};

/// True for a FrontendConfig::cache_policy the front end can run: perfect,
/// none, or a make_cache kind.
bool known_cache_policy(const std::string& policy);

class FrontendServer {
 public:
  explicit FrontendServer(FrontendConfig config);
  ~FrontendServer();

  /// Binds, queues backend connections and starts the loops. False on a
  /// bind failure or a config.backends/nodes mismatch.
  bool start();
  /// Graceful stop: waits for in-flight forwards (up to drain_s), then
  /// drains queued replies on every shard.
  void stop(double drain_s = 1.0);

  std::uint16_t port() const noexcept { return pool_.port(); }
  bool running() const noexcept { return pool_.running(); }

  /// Blocks until every backend connection of every shard is established
  /// (true) or the timeout expires (false). Call after start().
  bool wait_backends_up(double timeout_s) const;

  /// Counter snapshot, aggregated across shards (thread-safe).
  ServerStats stats() const;

  /// Full metrics snapshot: shard registries merged, plus the loop counters
  /// and the gauges computed at scrape time. With shards > 1 each shard's
  /// series also appear as "frontend.shardK.*" (thread-safe).
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Bound Prometheus endpoint port, or 0 when config.metrics_port == -1.
  std::uint16_t metrics_http_port() const noexcept;

  /// Summed reactor counters across shards — syscalls and wakeups feed the
  /// syscalls/request and frames/wakeup measurements (thread-safe).
  ReactorPool::Totals loop_totals() const { return pool_.totals(); }

  /// Batched-forwarding introspection, summed over shards (thread-safe):
  /// {kBatchGet frames sent, keys those frames carried}.
  std::pair<std::uint64_t, std::uint64_t> batch_totals() const noexcept {
    std::uint64_t frames = 0;
    std::uint64_t keys = 0;
    for (const auto& shard : shards_) {
      frames += shard->sends.batch_frames->value();
      keys += shard->sends.batch_keys->value();
    }
    return {frames, keys};
  }

  /// Introspection for tests: backend connection ids the shards' upstreams
  /// map, summed over shards. Only stable while the shard loops are
  /// quiescent or stopped.
  std::size_t backend_conn_entries() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->upstream->conn_entries();
    return total;
  }

 private:
  static constexpr std::uint32_t kNoBackend = UINT32_MAX;

  /// A client parked on another request's in-flight forward for the same
  /// key (single-flight coalescing).
  struct Waiter {
    ReplyTo client;
    std::uint64_t start_ns = 0;
    /// Parked after a write detached the fetch, whose verdict may predate
    /// the write: fetched again when the fetch settles, not answered by it.
    bool refetch = false;
  };

  /// The one in-flight GET forward for a key and the clients parked on it.
  struct Inflight {
    std::vector<Waiter> waiters;
    /// False once a write to the key reached this shard after the fetch was
    /// sent: its reply fills no slot.
    bool fills = true;
  };

  /// Everything one reactor touches on the request path. Owned by the shard
  /// loop's thread after start(); the only cross-thread reads are the
  /// upstream's counts and the registry (scrapes).
  struct Shard {
    std::size_t index = 0;
    Reactor* loop = nullptr;
    std::unique_ptr<FrontEndCache> cache;  // null for perfect/none/empty slice
    /// The shard's cache hits: bytes of keys whose slot it holds and of no
    /// other (has_slot; a policy's eviction listener erases a dropped key's
    /// bytes), so values never outgrows the shard's slice. A slot whose
    /// fetch is still out, or whose bytes a write dropped, has none.
    std::unordered_map<std::uint64_t, std::string> values;
    Rng rng{1};

    std::unique_ptr<Upstream> upstream;  ///< one link per backend node
    /// Single-flight table: key -> the one in-flight GET forward for that
    /// key (the lead request is pending on a backend connection as usual;
    /// retries and failover move the lead, never the waiters).
    std::unordered_map<std::uint64_t, Inflight> inflight;
    std::vector<double> loads;  ///< keys sent per backend (routing)
    /// Pins each forwarded key to the live replica it was first sent to; a
    /// key that settles kMiss is unpinned, so pins stay bounded by the keys
    /// the backends hold.
    PinnedLeastLoadedSelector selector;
    std::vector<NodeId> group;       // replica-group scratch
    std::vector<NodeId> candidates;  // live-members scratch

    /// Hot-key mitigation state (config.detect; loop-thread only). Each
    /// shard subscribes on its own backend connections, so its aggregator
    /// sees every backend's reports without cross-shard traffic; it only
    /// acts on keys whose cache slice it holds.
    std::unique_ptr<detect::HotKeyAggregator> hot_agg;
    /// Perfect policy only (0 otherwise): the oracle's slots are this
    /// shard's own keys below oracle_end (min(c, m) at start) plus
    /// hot_extra. Each key entering hot_extra moves oracle_end down past one
    /// own key and each cooled one moves it back up, so the shard serves at
    /// most its slice of [0, c).
    std::uint64_t oracle_end = 0;
    std::unordered_set<std::uint64_t> hot_extra;

    obs::MetricsRegistry registry;
    // Handles into `registry`, taken in start().
    obs::Counter* requests = nullptr;
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* redirects = nullptr;
    /// Fleet mode only: kRedirect replies sent for keys a sibling owns.
    obs::Counter* fleet_redirects = nullptr;
    obs::Counter* forwarded = nullptr;
    /// Misses answered by parking on an already in-flight forward for the
    /// same key: requests == hits + forwarded + coalesced + failures
    /// (+ fleet_redirects in fleet mode).
    obs::Counter* coalesced = nullptr;
    obs::Counter* failures = nullptr;
    /// Bumped by the upstream; batch_keys / batch_frames = mean batch fill.
    Upstream::Counters sends;
    obs::Counter* puts = nullptr;
    obs::Counter* deletes = nullptr;
    /// Writes that reached the owner shard of a key it may cache; each
    /// drops the key's bytes.
    obs::Counter* invalidations = nullptr;
    // config.detect only.
    obs::Counter* hot_reports = nullptr;
    obs::Counter* hot_flagged_total = nullptr;
    obs::Counter* hot_reprovisioned = nullptr;
    obs::Counter* hot_prefetches = nullptr;
    obs::Gauge* hot_keys = nullptr;
    obs::Timer* cache_lookup_ns = nullptr;
    obs::Timer* request_us = nullptr;
    obs::Timer* forward_rtt_us = nullptr;
    obs::Timer* attempts_hist = nullptr;
    obs::Gauge* values_entries = nullptr;  ///< values.size()
    obs::Gauge* pin_count = nullptr;  ///< frontend.pins: the selector's pins
    std::vector<obs::Timer*> node_rtt_us;  // per-backend forward RTT
  };

  /// Cache-partition owner of `key` (hash, not the cluster partitioner —
  /// the FE cache shards are unrelated to backend replica groups).
  std::size_t shard_of(std::uint64_t key) const noexcept;
  bool owns(const Shard& shard, std::uint64_t key) const noexcept {
    return shards_.size() == 1 || shard_of(key) == shard.index;
  }

  /// Fleet-partition ownership: true when this process's member index owns
  /// `key`'s cache slot (always true outside fleet mode).
  bool fleet_owns(std::uint64_t key) const noexcept;
  /// `key`'s cache slot is `shard`'s: owned by this member and this shard.
  bool holds(const Shard& shard, std::uint64_t key) const noexcept {
    return owns(shard, key) && fleet_owns(key);
  }
  /// The one slot test: `shard`'s policy holds `key` or its oracle has it.
  bool has_slot(const Shard& shard, std::uint64_t key) const {
    if (shard.cache != nullptr) return shard.cache->contains(key);
    return holds(shard, key) &&
           (key < shard.oracle_end || shard.hot_extra.count(key) != 0);
  }
  /// True when the member owning `key` may cache it, now or later: any key
  /// under a policy cache; under the perfect oracle a key below min(c, m),
  /// or with detection any key below m (it may be re-provisioned). A write
  /// to such a key must reach its owner, which drops the key's bytes.
  bool may_cache(std::uint64_t key) const noexcept;
  /// True when a GET for a non-owned key must bounce to its owner instead
  /// of being forwarded here: the owner may cache the key and, under the
  /// perfect oracle, it is in the global rank prefix (key < c).
  bool fleet_redirect_needed(std::uint64_t key) const noexcept;

  void handle(Shard& shard, ConnId conn, Message&& message);
  void handle_client(Shard& shard, ConnId conn, Message&& message);
  void handle_write(Shard& shard, ConnId conn, Message&& message);
  /// Absorbs a pushed kHotKeyReport into the shard's aggregator and runs
  /// the mitigation pass over the resulting hot set.
  void handle_hot_report(Shard& shard, Message&& message);

  bool cache_lookup(Shard& shard, std::uint64_t key, std::string& value);
  /// Stores `value` as `key`'s bytes when the shard holds its slot.
  void admit(Shard& shard, std::uint64_t key, const std::string& value);
  /// Drops `key`'s bytes; a policy drops the slot too, the oracle keeps it.
  void drop_cached(Shard& shard, std::uint64_t key);
  /// Write path: detaches `key`'s in-flight fetch on every shard and, when
  /// the key may be cached, drops its bytes on the shard that owns it
  /// (posted to the other shards' loops).
  void invalidate_cached(Shard& shard, std::uint64_t key);
  void complete_request(Shard& shard, const Forward& request,
                        std::uint32_t node);

  /// One GET of a kGet / kBatchGet client frame: cache lookup, fleet
  /// bounce, or a miss that fetches. `start_ns` is the frame arrival time.
  void serve_get(Shard& shard, ReplyTo client, std::uint64_t key,
                 std::uint64_t start_ns);
  /// A GET miss: parks on the in-flight forward for `key` (single-flight),
  /// else forwards as its lead.
  void fetch(Shard& shard, ReplyTo client, std::uint64_t key,
             std::uint64_t start_ns);
  /// Settles one forwarded request with its backend verdict; fans the
  /// result out to any coalesced waiters on GETs.
  void settle_forward(Shard& shard, std::uint32_t node,
                      const Forward& request, Message&& reply);
  /// Completion fan-out: erases `key`'s in-flight entry and answers every
  /// waiter parked on it with the lead's verdict (kValue, kMiss or kError),
  /// but fetches a waiter marked refetch again.
  void finish_waiters(Shard& shard, std::uint64_t key, MsgType type,
                      const std::string& payload);

  void forward(Shard& shard, ReplyTo client, std::uint64_t key,
               std::uint32_t attempts, std::uint64_t start_ns,
               MsgType op = MsgType::kGet, const std::string& payload = {});
  void forward_to(Shard& shard, std::uint32_t node, ReplyTo client,
                  std::uint64_t key, std::uint32_t attempts,
                  std::uint64_t start_ns, MsgType op = MsgType::kGet,
                  const std::string& payload = {});
  std::uint32_t route(Shard& shard, std::uint64_t key);
  void retry_or_fail(Shard& shard, const Forward& request);
  void fail_request(Shard& shard, ReplyTo client, std::uint64_t key,
                    MsgType op);
  /// Forwards queued or awaiting a backend, plus re-forwards waiting out a
  /// backoff, over every shard.
  std::uint64_t pending_requests() const;

  FrontendConfig config_;
  std::unique_ptr<ReplicaPartitioner> partitioner_;
  ReactorPool pool_;
  // unique_ptr: Shard holds a registry and an Upstream, neither movable.
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Re-forwards scheduled after a backoff and not yet run.
  std::atomic<std::uint64_t> backoff_pending_{0};
  std::atomic<bool> stopping_{false};

  std::unique_ptr<obs::MetricsHttpServer> metrics_http_;
};

}  // namespace scp::net
