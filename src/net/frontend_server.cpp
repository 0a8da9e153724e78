#include "net/frontend_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "cache/partition.h"
#include "common/hash.h"
#include "common/log.h"
#include "net/fleet.h"

namespace scp::net {

FrontendServer::FrontendServer(FrontendConfig config)
    : config_(std::move(config)),
      partitioner_(make_partitioner(config_.partitioner, config_.nodes,
                                    config_.replication,
                                    config_.partition_seed)),
      pool_(ReactorPool::Options{
          .shards = config_.shards == 0 ? 1 : config_.shards,
          .force_fallback_accept = config_.force_fallback_accept}) {}

FrontendServer::~FrontendServer() { stop(0.0); }

std::size_t FrontendServer::shard_of(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(mix64(key) % shards_.size());
}

bool FrontendServer::fleet_owns(std::uint64_t key) const noexcept {
  return config_.fleet_size <= 1 ||
         fleet_owner(key, config_.fleet_seed, config_.fleet_size) ==
             config_.fleet_index;
}

bool FrontendServer::fleet_redirect_needed(std::uint64_t key) const noexcept {
  if (config_.cache_policy == "none" || config_.cache_capacity == 0) {
    return false;  // nothing is cached anywhere; serve the forward here
  }
  if (config_.cache_policy == "perfect") {
    // Assumption-2 oracle: the fleet's aggregate cached set is the global
    // rank prefix {key < c}, partitioned by owner. Only those keys have a
    // cache slot worth bouncing to.
    return key < config_.cache_capacity && key < config_.items;
  }
  return true;  // policy caches: only the owner knows its contents
}

bool FrontendServer::start() {
  if (config_.backends.size() != config_.nodes) {
    SCP_LOG_ERROR << "scp_frontend: " << config_.backends.size()
                  << " backend endpoints for " << config_.nodes << " nodes";
    return false;
  }
  if (config_.fleet_size == 0) config_.fleet_size = 1;
  if (config_.fleet_index >= config_.fleet_size) {
    SCP_LOG_ERROR << "scp_frontend: fleet index " << config_.fleet_index
                  << " out of range for fleet size " << config_.fleet_size;
    return false;
  }

  const std::size_t n_shards = pool_.shards();
  const bool policy_cache = config_.cache_policy != "perfect" &&
                            config_.cache_policy != "none" &&
                            config_.cache_capacity > 0;
  shards_.clear();
  for (std::size_t k = 0; k < n_shards; ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shard->loop = &pool_.shard(k);
    // Shard 0 keeps the unsharded server's RNG stream so shards == 1
    // reproduces it decision-for-decision.
    shard->rng = Rng(k == 0 ? config_.seed
                            : derive_seed(config_.seed, 100 + k));
    // Capacity is split, never duplicated: first the aggregate c across the
    // fleet members (this process gets its fleet_index slice), then that
    // slice across the reactor shards — so the whole tier's cache footprint
    // across every member and shard sums to exactly the paper's c.
    const std::size_t member_capacity = slice_capacity(
        config_.cache_capacity, config_.fleet_size, config_.fleet_index);
    shard->cache_capacity = slice_capacity(member_capacity, n_shards, k);
    if (policy_cache && shard->cache_capacity > 0) {
      shard->cache = make_cache(config_.cache_policy, shard->cache_capacity);
    }
    if (config_.detect) {
      shard->hot_agg = std::make_unique<detect::HotKeyAggregator>(
          detect::HotKeyAggregator::Options{
              .hot_fraction = config_.detect_hot_fraction,
              .drop_ratio = 0.5,
              .min_samples = config_.detect_min_samples});
    }
    shard->upstream = std::make_unique<Upstream>(
        *shard->loop, config_.backends, config_.retry.timeout_s, stopping_);
    shard->loads.assign(config_.nodes, 0.0);
    shard->group.resize(config_.replication);
    shard->candidates.resize(config_.replication);

    Shard* s = shard.get();
    Reactor::Callbacks callbacks;
    callbacks.on_message = [this, s](ConnId conn, Message&& message) {
      handle(*s, conn, std::move(message));
    };
    callbacks.on_close = [s](ConnId conn) { s->upstream->on_close(conn); };
    callbacks.on_connect = [s](ConnId conn, bool ok) {
      s->upstream->on_connect(conn, ok);
    };
    s->loop->set_callbacks(std::move(callbacks));

    obs::MetricsRegistry& r = s->registry;
    s->requests = &r.counter("frontend.requests");
    s->hits = &r.counter("frontend.hits");
    s->misses = &r.counter("frontend.misses");
    s->redirects = &r.counter("frontend.redirects");
    s->fleet_redirects = &r.counter("frontend.fleet_redirects");
    s->forwarded = &r.counter("frontend.forwarded");
    s->coalesced = &r.counter("frontend.coalesced");
    s->sends.retries = &r.counter("frontend.retries");
    s->failures = &r.counter("frontend.failures");
    s->sends.attempts = &r.counter("frontend.attempts_total");
    s->sends.batch_frames = &r.counter("frontend.batch_frames");
    s->sends.batch_keys = &r.counter("frontend.batch_keys");
    s->sends.resets = &r.counter("frontend.link_resets");
    s->puts = &r.counter("frontend.puts");
    s->deletes = &r.counter("frontend.deletes");
    s->invalidations = &r.counter("frontend.invalidations");
    if (config_.detect) {
      s->hot_reports = &r.counter("detect.reports_received");
      s->hot_flagged_total = &r.counter("detect.flagged_keys");
      s->hot_prefetches = &r.counter("detect.prefetches");
      s->hot_reprovisioned = &r.counter("detect.reprovisioned");
      s->hot_keys = &r.gauge("detect.hot_keys");
    }
    s->cache_lookup_ns = &r.timer("frontend.cache_lookup_ns");
    s->request_us = &r.timer("frontend.request_us");
    s->forward_rtt_us = &r.timer("frontend.forward_rtt_us");
    s->attempts_hist = &r.timer("frontend.attempts");
    s->values_entries = &r.gauge("frontend.values_entries");
    s->values_entries_peak = &r.gauge("frontend.values_entries_peak");
    s->dirty_keys = &r.gauge("frontend.dirty_keys");
    s->pin_count = &r.gauge("frontend.pins");
    s->node_rtt_us.resize(config_.nodes);
    for (std::uint32_t node = 0; node < config_.nodes; ++node) {
      s->node_rtt_us[node] =
          &r.timer("frontend.forward_rtt_us.node" + std::to_string(node));
    }
    s->loop->set_metrics(&r);
    shards_.push_back(std::move(shard));
  }

  if (!pool_.listen(config_.address, config_.port)) return false;
  if (config_.metrics_port >= 0) {
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        [this] { return metrics_snapshot(); });
    if (!metrics_http_->start(
            static_cast<std::uint16_t>(config_.metrics_port))) {
      SCP_LOG_ERROR << "scp_frontend: failed to bind metrics port "
                    << config_.metrics_port;
      return false;
    }
  }

  // Every shard keeps its own connection to every backend; forwards never
  // cross shard boundaries.
  for (auto& shard : shards_) {
    Shard* s = shard.get();
    Upstream::Hooks hooks;
    if (config_.detect) {
      hooks.on_up = [s](std::uint32_t node) {
        // Ask for kHotKeyReport pushes. One-way (id 0): the backend never
        // answers it, so nothing is pending.
        Message subscribe;
        subscribe.type = MsgType::kHotKeySubscribe;
        s->upstream->send_unmatched(node, subscribe);
      };
    }
    hooks.on_sent = [s](std::uint32_t node) { s->loads[node] += 1.0; };
    hooks.on_reply = [this, s](std::uint32_t node, Forward&& request,
                               Message&& reply) {
      settle_forward(*s, node, request, std::move(reply));
    };
    hooks.on_dropped = [this, s](std::uint32_t, Forward&& request,
                                 bool sent) {
      if (sent) {
        retry_or_fail(*s, request);
      } else {
        // Never hit the wire: re-route at the same attempt count instead of
        // burning a retry.
        forward(*s, request.client, request.key, request.attempts,
                request.start_ns, request.op, request.payload);
      }
    };
    s->upstream->start(s->sends, std::move(hooks));
  }

  if (!pool_.start()) return false;
  SCP_LOG_INFO << "scp_frontend serving on " << config_.address << ":"
               << pool_.port() << " (n=" << config_.nodes
               << " d=" << config_.replication << " cache="
               << config_.cache_policy << "/" << config_.cache_capacity
               << " shards=" << n_shards
               << (config_.fleet_size > 1
                       ? " fleet=" + std::to_string(config_.fleet_index) +
                             "/" + std::to_string(config_.fleet_size)
                       : "")
               << ")";
  return true;
}

void FrontendServer::stop(double drain_s) {
  stopping_.store(true);
  // Let in-flight forwards complete before tearing the loops down.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(drain_s));
  while (pending_requests() > 0 &&
         std::chrono::steady_clock::now() < deadline && pool_.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pool_.stop(drain_s);
  if (metrics_http_ != nullptr) {
    metrics_http_->stop();
  }
}

bool FrontendServer::wait_backends_up(double timeout_s) const {
  const std::uint64_t want =
      static_cast<std::uint64_t>(config_.nodes) * shards_.size();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (true) {
    std::uint64_t up = 0;
    for (const auto& shard : shards_) up += shard->upstream->up_count();
    if (up >= want) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerStats FrontendServer::stats() const {
  ServerStats stats;
  for (const auto& shard : shards_) {
    stats.requests += shard->requests->value();
    stats.hits += shard->hits->value();
    stats.misses += shard->misses->value();
    stats.redirects += shard->redirects->value();
    stats.forwarded += shard->forwarded->value();
    stats.coalesced += shard->coalesced->value();
    stats.retries += shard->sends.retries->value();
    stats.failures += shard->failures->value();
    stats.attempts += shard->sends.attempts->value();
    stats.puts += shard->puts->value();
    stats.deletes += shard->deletes->value();
    stats.invalidations += shard->invalidations->value();
  }
  return stats;
}

obs::MetricsSnapshot FrontendServer::metrics_snapshot() const {
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    obs::MetricsSnapshot snap = shard->registry.snapshot();
    snap.gauges["frontend.backends_up"] =
        static_cast<std::int64_t>(shard->upstream->up_count());
    shard->loop->counters().export_to(snap);
    per_shard.push_back(std::move(snap));
  }
  obs::MetricsSnapshot snap = merge_shard_snapshots("frontend", per_shard);
  // Shared across shards, so only the aggregate carries it.
  snap.gauges["frontend.pending_requests"] =
      static_cast<std::int64_t>(pending_requests());
  if (config_.fleet_size > 1) {
    snap.gauges["frontend.fleet_index"] =
        static_cast<std::int64_t>(config_.fleet_index);
    snap.gauges["frontend.fleet_size"] =
        static_cast<std::int64_t>(config_.fleet_size);
  }
  return snap;
}

std::uint16_t FrontendServer::metrics_http_port() const noexcept {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

std::uint64_t FrontendServer::pending_requests() const {
  std::uint64_t total = backoff_pending_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) total += shard->upstream->in_flight();
  return total;
}

void FrontendServer::handle(Shard& shard, ConnId conn, Message&& message) {
  const std::uint32_t node = shard.upstream->link_of(conn);
  if (node == Upstream::kNoLink) {
    handle_client(shard, conn, std::move(message));
  } else if (message.type == MsgType::kHotKeyReport) {
    // One-way push (we subscribed); answers no request.
    handle_hot_report(shard, std::move(message));
  } else {
    shard.upstream->on_reply(node, std::move(message));
  }
}

void FrontendServer::handle_client(Shard& shard, ConnId conn,
                                   Message&& message) {
  switch (message.type) {
    case MsgType::kGet:
      serve_get(shard, {conn, message.id}, message.key, obs::now_ns());
      return;
    case MsgType::kBatchGet: {
      // Router-batched dispatch: serve every key in the frame. Key i is
      // answered with a frame of its own carrying id b+i, as soon as it
      // settles (hits overtake forwards); the reactor's gathered flush
      // amortizes the frames into one writev anyway.
      for (std::size_t i = 0; i < message.batch_keys.size(); ++i) {
        serve_get(shard, {conn, message.id + static_cast<std::uint32_t>(i)},
                  message.batch_keys[i], obs::now_ns());
      }
      return;
    }
    case MsgType::kPut:
    case MsgType::kDelete:
      handle_write(shard, conn, std::move(message));
      return;
    case MsgType::kQuorumGet: {
      // Consistency path: relayed to a backend coordinator verbatim, never
      // answered from (or admitted into) the FE cache — the client asked
      // for an R-replica quorum answer, not a cached one.
      shard.requests->inc();
      shard.misses->inc();
      forward(shard, {conn, message.id}, message.key, /*attempts=*/0,
              obs::now_ns(), MsgType::kQuorumGet);
      return;
    }
    case MsgType::kMetricsRequest: {
      Message reply;
      reply.type = MsgType::kMetricsReply;
      reply.metrics = metrics_snapshot();
      send_reply(*shard.loop, {conn, message.id}, reply);
      return;
    }
    case MsgType::kPing: {
      Message reply;
      reply.type = MsgType::kPong;
      send_reply(*shard.loop, {conn, message.id}, reply);
      return;
    }
    default: {
      Message reply;
      reply.type = MsgType::kError;
      reply.key = message.key;
      reply.payload = "unexpected message type";
      send_reply(*shard.loop, {conn, message.id}, reply);
      return;
    }
  }
}

void FrontendServer::serve_get(Shard& shard, ReplyTo client,
                               std::uint64_t key, std::uint64_t start_ns) {
  shard.requests->inc();
  if (config_.fleet_size > 1 && !fleet_owns(key)) {
    if (fleet_redirect_needed(key)) {
      // A sibling owns this key's cache slot: bounce the caller to it
      // (the REDIRECT node field carries the *fleet index*; the edge
      // router maps it back to an endpoint). Never cached here.
      shard.fleet_redirects->inc();
      Message reply;
      reply.type = MsgType::kRedirect;
      reply.key = key;
      reply.node = fleet_owner(key, config_.fleet_seed, config_.fleet_size);
      send_reply(*shard.loop, client, reply);
      obs::record_elapsed(shard.request_us, start_ns, /*divisor=*/1'000);
      return;
    }
    // Globally uncached under the perfect oracle: any member can serve
    // the forward (the router sends it here while the owner is down).
    // Skip the cache entirely.
    shard.misses->inc();
    forward_get(shard, client, key, start_ns);
    return;
  }
  std::string value;
  const bool hit = cache_lookup(shard, key, value);
  obs::record_elapsed(shard.cache_lookup_ns, start_ns);
  if (hit) {
    shard.hits->inc();
    Message reply;
    reply.type = MsgType::kValue;
    reply.key = key;
    reply.payload = std::move(value);
    send_reply(*shard.loop, client, reply);
    obs::record_elapsed(shard.request_us, start_ns, /*divisor=*/1'000);
    return;
  }
  shard.misses->inc();
  forward_get(shard, client, key, start_ns);
}

void FrontendServer::forward_get(Shard& shard, ReplyTo client,
                                 std::uint64_t key, std::uint64_t start_ns) {
  auto [it, inserted] = shard.inflight.try_emplace(key);
  if (!inserted) {
    // Single-flight: a forward for this key is already on the wire (or
    // retrying); park here and let its one reply answer everyone.
    it->second.push_back({client, start_ns});
    return;
  }
  // Lead request: owns the inflight entry until finish_waiters /
  // fail_waiters settles it.
  forward(shard, client, key, /*attempts=*/0, start_ns);
}

void FrontendServer::handle_write(Shard& shard, ConnId conn,
                                  Message&& message) {
  const std::uint64_t start_ns = obs::now_ns();
  const ReplyTo client{conn, message.id};
  shard.requests->inc();
  (message.type == MsgType::kDelete ? shard.deletes : shard.puts)->inc();

  if (config_.fleet_size > 1 && !fleet_owns(message.key) &&
      fleet_redirect_needed(message.key)) {
    // The sibling owning this key's cache slot must see the write to
    // invalidate it; bounce the writer there (node = fleet index, as on the
    // read path) and let the edge router re-dispatch.
    shard.fleet_redirects->inc();
    Message reply;
    reply.type = MsgType::kRedirect;
    reply.key = message.key;
    reply.node =
        fleet_owner(message.key, config_.fleet_seed, config_.fleet_size);
    send_reply(*shard.loop, client, reply);
    obs::record_elapsed(shard.request_us, start_ns, /*divisor=*/1'000);
    return;
  }

  // Invalidate before the backend sees the write: a stale hit after the
  // coordinator acked would un-do the write for readers landing here.
  invalidate_cached(shard, message.key);
  forward(shard, client, message.key, /*attempts=*/0, start_ns, message.type,
          message.payload);
}

/// One forwarded request got its backend verdict, which goes back to the
/// client as is (the upstream checked its key); kGet verdicts fan out to
/// coalesced waiters.
void FrontendServer::settle_forward(Shard& shard, std::uint32_t node,
                                    const Forward& request, Message&& reply) {
  switch (reply.type) {
    case MsgType::kValue: {
      if (request.op == MsgType::kGet) {
        admit(shard, request.key, reply.payload);
        // A dirty perfect-oracle key becomes cacheable again once the
        // authoritative value matches what the oracle synthesizes.
        if (!shard.dirty.empty() && shard.dirty.count(request.key) != 0 &&
            reply.payload == make_value(request.key, config_.value_bytes)) {
          shard.dirty.erase(request.key);
          shard.dirty_keys->set(static_cast<std::int64_t>(shard.dirty.size()));
        }
      }
      complete_request(shard, request, node);
      send_reply(*shard.loop, request.client, reply);
      if (request.op == MsgType::kGet) {
        finish_waiters(shard, request.key, MsgType::kValue, reply.payload);
      }
      return;
    }
    case MsgType::kMiss: {
      // The fetch produced no value: release the cache slot the lookup
      // admitted, or it sits value-less forever, evicting real entries and
      // turning future hits into forwards.
      if (request.op == MsgType::kGet) {
        drop_cached(shard, request.key);
        // A relayed MISS settles a dirty oracle key too: the backends are
        // authoritative, so the dirty marker has done its job. Keeping it
        // would leak an entry per deleted key and forward that key's GETs
        // forever. The oracle resumes synthesizing afterwards — Assumption
        // 2 models cache capacity, not deletions, and the regression test
        // pins that trade.
        if (!shard.dirty.empty() && shard.dirty.erase(request.key) != 0) {
          shard.dirty_keys->set(static_cast<std::int64_t>(shard.dirty.size()));
        }
      }
      // An absent key keeps no pin: a flood of distinct absent keys would
      // otherwise grow the table without bound.
      if (shard.pins.erase(request.key) != 0) {
        shard.pin_count->set(static_cast<std::int64_t>(shard.pins.size()));
      }
      complete_request(shard, request, node);
      send_reply(*shard.loop, request.client, reply);
      if (request.op == MsgType::kGet) {
        finish_waiters(shard, request.key, MsgType::kMiss, std::string());
      }
      return;
    }
    case MsgType::kWriteReply:
      // Coordinator acked the quorum write; relay version and all.
      complete_request(shard, request, node);
      send_reply(*shard.loop, request.client, reply);
      return;
    case MsgType::kRedirect:
      // Seeds agree across the tier, so this indicates misconfiguration;
      // follow the hint once per attempt budget anyway. The coalescing
      // entry (and its parked waiters) stays put — only the lead moves.
      shard.redirects->inc();
      if (reply.node < config_.nodes &&
          request.attempts + 1 < config_.retry.max_attempts()) {
        forward_to(shard, reply.node, request.client, request.key,
                   request.attempts + 1, request.start_ns, request.op,
                   request.payload);
      } else {
        fail_request(shard, request.client, request.key, request.op);
      }
      return;
    default:
      fail_request(shard, request.client, request.key, request.op);
      return;
  }
}

void FrontendServer::finish_waiters(Shard& shard, std::uint64_t key,
                                    MsgType type,
                                    const std::string& payload) {
  auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) return;
  const std::vector<Waiter> waiters = std::move(it->second);
  shard.inflight.erase(it);
  if (waiters.empty()) return;
  const std::uint64_t now = obs::now_ns();
  for (const Waiter& waiter : waiters) {
    if (waiter.client.conn == kInvalidConn) {
      // A hot-key warm fetch that coalesced onto this forward: the bytes
      // just got admitted by the lead's settle; nothing to send.
      shard.hot_prefetching.erase(key);
      continue;
    }
    // Satellite of the lead's one forward: counted as coalesced, never as
    // forwarded, and deliberately kept out of forward_rtt_us / node RTT /
    // attempts histograms — no wire RTT of its own was measured, and
    // double-recording the lead's would skew per-node latency and the
    // attempts distribution. Only the end-to-end request timer ticks.
    shard.coalesced->inc();
    Message reply;
    reply.type = type;
    reply.key = key;
    if (type == MsgType::kValue) reply.payload = payload;
    send_reply(*shard.loop, waiter.client, reply);
    shard.request_us->record((now - waiter.start_ns) / 1'000);
  }
}

void FrontendServer::fail_waiters(Shard& shard, std::uint64_t key) {
  auto it = shard.inflight.find(key);
  if (it == shard.inflight.end()) return;
  const std::vector<Waiter> waiters = std::move(it->second);
  shard.inflight.erase(it);
  for (const Waiter& waiter : waiters) {
    if (waiter.client.conn == kInvalidConn) {
      shard.hot_prefetching.erase(key);
      continue;
    }
    // The lead exhausted its attempt budget for everyone parked behind it:
    // each waiter is its own failed request in the ledger.
    shard.failures->inc();
    Message reply;
    reply.type = MsgType::kError;
    reply.key = key;
    reply.payload = "no live replica";
    send_reply(*shard.loop, waiter.client, reply);
  }
}

void FrontendServer::handle_hot_report(Shard& shard, Message&& message) {
  if (shard.hot_agg == nullptr) return;  // push without --detect: ignore
  shard.hot_reports->inc();
  shard.hot_agg->update(message.hot);

  // Mitigation pass over the *whole* current hot set, not just the newly
  // flagged keys: an attack key evicted again between reports (the adaptive
  // adversary's whole game) must be re-admitted on the next report, and
  // against a shifted key set the aggregator's hysteresis retires the old
  // phase while this loop warms the new one.
  for (const std::uint64_t key : shard.hot_agg->hot()) {
    if (!owns(shard, key)) continue;
    if (config_.fleet_size > 1 && !fleet_owns(key)) continue;
    if (shard.hot_flagged.insert(key).second) {
      shard.hot_flagged_total->inc();
    }
    if (shard.cache == nullptr) {
      // Perfect provision has no policy cache to train; mitigation instead
      // re-provisions the cached set, swapping oracle-prefix tail slots for
      // the flagged keys (see cache_lookup). "none" stays classify-only.
      if (config_.cache_policy == "perfect" && key < config_.items &&
          shard.hot_extra.count(key) == 0 &&
          shard.hot_extra.size() < config_.cache_capacity) {
        const std::uint64_t prefix =
            config_.cache_capacity - shard.hot_extra.size();
        if (key >= prefix) {
          shard.hot_extra.insert(key);
          shard.hot_reprovisioned->inc();
        }
      }
      continue;
    }
    if (shard.cache->contains(key) && shard.values.count(key) != 0) {
      continue;  // already serving hits; nothing to fix
    }
    // Globally hot at the backends and absent here — the miss-flood
    // signature. Force-admit the slot and warm its bytes with a
    // self-initiated fetch (no client connection; the reply's send to it
    // is a harmless no-op).
    shard.cache->access(key);
    if (!shard.hot_prefetching.insert(key).second) continue;  // in flight
    shard.hot_prefetches->inc();
    // Via the single-flight table: if a client's fetch for this key is
    // already in flight, the warm fetch parks on it instead of doubling it.
    forward_get(shard, ReplyTo{}, key, /*start_ns=*/0);
  }
  // Retire flags whose keys cooled off (the aggregator's exit hysteresis).
  for (auto it = shard.hot_flagged.begin(); it != shard.hot_flagged.end();) {
    it = shard.hot_agg->hot().count(*it) == 0 ? shard.hot_flagged.erase(it)
                                              : std::next(it);
  }
  // Cooled re-provisioned slots hand their capacity back to the prefix.
  for (auto it = shard.hot_extra.begin(); it != shard.hot_extra.end();) {
    it = shard.hot_agg->hot().count(*it) == 0 ? shard.hot_extra.erase(it)
                                              : std::next(it);
  }
  shard.hot_keys->set(static_cast<std::int64_t>(shard.hot_flagged.size()));
}

/// A pending request was answered by backend `node` (kValue or kMiss):
/// count it as forwarded exactly once and record its latency decomposition.
void FrontendServer::complete_request(Shard& shard, const Forward& request,
                                      std::uint32_t node) {
  if (request.client.conn == kInvalidConn) {
    // Self-initiated hot-key warm fetch: no client behind it, so it stays
    // out of the request accounting (requests == hits + forwarded +
    // failures must keep holding for real traffic).
    shard.hot_prefetching.erase(request.key);
    return;
  }
  shard.forwarded->inc();
  const std::uint64_t now = obs::now_ns();
  const std::uint64_t rtt_us = (now - request.sent_ns) / 1'000;
  shard.forward_rtt_us->record(rtt_us);
  shard.node_rtt_us[node]->record(rtt_us);
  shard.request_us->record((now - request.start_ns) / 1'000);
  shard.attempts_hist->record(request.attempts + 1);
}

bool FrontendServer::cache_lookup(Shard& shard, std::uint64_t key,
                                  std::string& value) {
  // A key cached by a sibling shard is a miss here by design: shards never
  // share cache state (see header). owns() is always true at shards == 1.
  if (!owns(shard, key)) return false;
  if (config_.cache_policy == "perfect") {
    // Secure provision: the oracle prefix [0, c) is the *declared*
    // distribution's top-c. When detection flags hot keys outside it (the
    // shifted-attack signature), hot_extra re-provisions those slots — each
    // extra key displaces one prefix tail slot so the cached set stays ≤ c.
    const std::uint64_t extra = std::min<std::uint64_t>(
        shard.hot_extra.size(), config_.cache_capacity);
    const std::uint64_t prefix = config_.cache_capacity - extra;
    const bool provisioned =
        key < prefix || (extra != 0 && shard.hot_extra.count(key) != 0);
    if (provisioned && key < config_.items && shard.dirty.count(key) == 0) {
      value = make_value(key, config_.value_bytes);
      return true;
    }
    return false;
  }
  if (shard.cache == nullptr) return false;
  // Probe with the non-mutating contains() before touching the cache:
  // access() admits on miss AND refreshes recency on hit, so calling it for
  // a key whose bytes haven't arrived yet would let the very requests that
  // are waiting on the fetch keep the value-less slot maximally fresh —
  // under a miss-flood each attack key's slot gets refreshed by every
  // attack request and real entries are evicted instead.
  if (!shard.cache->contains(key)) {
    shard.cache->access(key);  // miss: let the policy train and admit
    return false;
  }
  auto it = shard.values.find(key);
  if (it == shard.values.end()) return false;  // admitted but not yet fetched
  shard.cache->access(key);  // hit: refresh the policy's recency/frequency
  value = it->second;
  return true;
}

void FrontendServer::admit(Shard& shard, std::uint64_t key,
                           const std::string& value) {
  if (shard.cache == nullptr || !owns(shard, key)) return;
  if (!shard.cache->contains(key)) return;  // the policy declined admission
  shard.values[key] = value;
  // Reconcile the value side-map with cache membership once it outgrows the
  // cache (policy evictions leave dead entries behind). Only entries the
  // cache no longer holds are dropped — resident values must survive or
  // their cache hits would find no bytes. Bound: capacity plus 1/8 slack
  // (min 64) for churn between reconciles; the old 4c+64 bound let dead
  // values carry ~4× the configured memory budget before the first sweep.
  const std::size_t capacity = shard.cache->capacity();
  const std::size_t bound =
      capacity + std::max<std::size_t>(64, capacity / 8);
  if (shard.values.size() > bound) {
    for (auto it = shard.values.begin(); it != shard.values.end();) {
      it = shard.cache->contains(it->first) ? std::next(it)
                                            : shard.values.erase(it);
    }
  }
  const auto entries = static_cast<std::int64_t>(shard.values.size());
  shard.values_entries->set(entries);
  if (entries > shard.values_peak) {
    shard.values_peak = entries;
    shard.values_entries_peak->set(entries);
  }
}

void FrontendServer::drop_cached(Shard& shard, std::uint64_t key) {
  if (shard.cache == nullptr) return;
  shard.cache->invalidate(key);
  shard.values.erase(key);
  shard.values_entries->set(static_cast<std::int64_t>(shard.values.size()));
}

void FrontendServer::invalidate_cached(Shard& shard, std::uint64_t key) {
  if (config_.cache_policy == "none" || config_.cache_capacity == 0) return;
  const bool is_perfect = config_.cache_policy == "perfect";
  if (is_perfect && (key >= config_.cache_capacity || key >= config_.items)) {
    return;  // never cacheable, nothing to dirty
  }
  Shard& owner = *shards_[shards_.size() == 1 ? 0 : shard_of(key)];
  const auto apply = [this, key, is_perfect](Shard& target) {
    if (is_perfect) {
      if (!target.dirty.insert(key).second) return;  // already dirty
      target.dirty_keys->set(static_cast<std::int64_t>(target.dirty.size()));
    } else {
      drop_cached(target, key);
    }
    target.invalidations->inc();
  };
  if (&owner == &shard) {
    apply(shard);
  } else {
    // The cache slice lives on another reactor; its loop thread applies it.
    Shard* target = &owner;
    owner.loop->post([apply, target] { apply(*target); });
  }
}

std::uint32_t FrontendServer::route(Shard& shard, std::uint64_t key) {
  partitioner_->replica_group(key, shard.group);
  shard.candidates.clear();
  for (NodeId node : shard.group) {
    if (shard.upstream->up(node)) shard.candidates.push_back(node);
  }
  if (shard.candidates.empty()) return kNoBackend;
  // Pinned: a key keeps the live replica it was first sent to, chosen as
  // the least-loaded candidate at that moment (the paper's model).
  auto it = shard.pins.find(key);
  if (it != shard.pins.end() && shard.upstream->up(it->second)) {
    return it->second;
  }
  const std::size_t pick =
      least_loaded_pick(shard.candidates, shard.loads, shard.rng);
  shard.pins[key] = shard.candidates[pick];
  shard.pin_count->set(static_cast<std::int64_t>(shard.pins.size()));
  return shard.candidates[pick];
}

void FrontendServer::forward(Shard& shard, ReplyTo client, std::uint64_t key,
                             std::uint32_t attempts, std::uint64_t start_ns,
                             MsgType op, const std::string& payload) {
  const std::uint32_t node = route(shard, key);
  if (node == kNoBackend) {
    // No live replica right now; treat like a failed attempt and back off.
    // While stopping, fail immediately: the loop's timers never fire again,
    // so a scheduled retry would pin the pending count above zero and make
    // stop() burn its whole drain budget.
    if (attempts + 1 < config_.retry.max_attempts() && !stopping_.load()) {
      backoff_pending_.fetch_add(1, std::memory_order_relaxed);
      Shard* s = &shard;
      shard.loop->run_after(
          config_.retry.backoff_s(attempts),
          [this, s, client, key, attempts, start_ns, op, payload] {
            backoff_pending_.fetch_sub(1, std::memory_order_relaxed);
            forward(*s, client, key, attempts + 1, start_ns, op, payload);
          });
    } else {
      fail_request(shard, client, key, op);
    }
    return;
  }
  forward_to(shard, node, client, key, attempts, start_ns, op, payload);
}

void FrontendServer::forward_to(Shard& shard, std::uint32_t node,
                                ReplyTo client, std::uint64_t key,
                                std::uint32_t attempts,
                                std::uint64_t start_ns, MsgType op,
                                const std::string& payload) {
  // `forwarded` is only counted when a backend answers the request (in
  // complete_request), so requests == hits + forwarded + failures holds;
  // the upstream counts `attempts` per key sent and `retries` per re-send.
  Forward request{.client = client, .key = key, .op = op,
                  .attempts = attempts, .start_ns = start_ns};
  if (op == MsgType::kPut) request.payload = payload;
  if (!shard.upstream->send(node, std::move(request))) {
    forward(shard, client, key, attempts, start_ns, op, payload);
  }
}

void FrontendServer::retry_or_fail(Shard& shard, const Forward& request) {
  if (request.attempts + 1 < config_.retry.max_attempts() &&
      !stopping_.load()) {
    const double backoff = config_.retry.backoff_s(request.attempts);
    const ReplyTo client = request.client;
    const std::uint64_t key = request.key;
    const MsgType op = request.op;
    const std::string payload = request.payload;
    const std::uint32_t next_attempt = request.attempts + 1;
    const std::uint64_t start_ns = request.start_ns;
    backoff_pending_.fetch_add(1, std::memory_order_relaxed);
    Shard* s = &shard;
    shard.loop->run_after(
        backoff, [this, s, client, key, next_attempt, start_ns, op, payload] {
          backoff_pending_.fetch_sub(1, std::memory_order_relaxed);
          forward(*s, client, key, next_attempt, start_ns, op, payload);
        });
  } else {
    fail_request(shard, request.client, request.key, request.op);
  }
}

void FrontendServer::fail_request(Shard& shard, ReplyTo client,
                                  std::uint64_t key, MsgType op) {
  // A failed fetch leaves no bytes behind either — release any value-less
  // cache slot the lookup admitted.
  drop_cached(shard, key);
  // A failed GET lead takes its parked waiters down with it (before the
  // prefetch early-return below: a kInvalidConn lead can carry real
  // waiters). Failed writes never touch the GET single-flight table.
  if (op == MsgType::kGet) fail_waiters(shard, key);
  if (client.conn == kInvalidConn) {
    // Failed hot-key warm fetch: the next report retriggers it; no client
    // to answer and no failure to count (see complete_request).
    shard.hot_prefetching.erase(key);
    return;
  }
  shard.failures->inc();
  Message reply;
  reply.type = MsgType::kError;
  reply.key = key;
  reply.payload = "no live replica";
  send_reply(*shard.loop, client, reply);
}

}  // namespace scp::net
