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

bool FrontendServer::may_cache(std::uint64_t key) const noexcept {
  if (config_.cache_policy == "none" || config_.cache_capacity == 0) {
    return false;  // nothing is cached anywhere
  }
  if (config_.cache_policy == "perfect") {
    return key < config_.items &&
           (config_.detect || key < config_.cache_capacity);
  }
  return true;  // policy caches: only the owner knows its contents
}

bool FrontendServer::fleet_redirect_needed(std::uint64_t key) const noexcept {
  // Assumption-2 oracle: the fleet's aggregate cached set is the global
  // rank prefix {key < c}, partitioned by owner. Only those keys have a
  // cache slot worth bouncing a GET to; a re-provisioned key's GET is
  // forwarded here.
  return may_cache(key) &&
         (config_.cache_policy != "perfect" || key < config_.cache_capacity);
}

bool known_cache_policy(const std::string& policy) {
  return policy == "perfect" || policy == "none" || is_cache_kind(policy);
}

bool FrontendServer::start() {
  if (!known_cache_policy(config_.cache_policy)) {
    SCP_LOG_ERROR << "scp_frontend: unknown cache " << config_.cache_policy;
    return false;
  }
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
    const std::size_t slice = slice_capacity(member_capacity, n_shards, k);
    if (config_.cache_policy == "perfect") {
      shard->oracle_end =
          std::min<std::uint64_t>(config_.cache_capacity, config_.items);
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
    if (policy_cache && slice > 0) {
      s->cache = make_cache(config_.cache_policy, slice);
      s->cache->on_evict = [s](KeyId key) {  // the bytes leave with the slot
        s->values.erase(key);
        s->values_entries->set(static_cast<std::int64_t>(s->values.size()));
      };
    }
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
    s->pin_count = &r.gauge("frontend.pins");
    s->node_rtt_us.resize(config_.nodes);
    for (std::uint32_t node = 0; node < config_.nodes; ++node) {
      s->node_rtt_us[node] =
          &r.timer("frontend.forward_rtt_us.node" + std::to_string(node));
    }
    s->loop->set_metrics(&r);
    shards_.push_back(std::move(shard));
  }
  // The oracle's slots start full, with the bytes every backend preloads.
  // After the loop above: has_slot() reads shards_.size().
  for (auto& shard : shards_) {
    for (std::uint64_t key = 0; key < shard->oracle_end; ++key) {
      admit(*shard, key, make_value(key, config_.value_bytes));
    }
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
  } else {
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
  }
  shard.misses->inc();
  fetch(shard, client, key, start_ns);
}

void FrontendServer::fetch(Shard& shard, ReplyTo client, std::uint64_t key,
                           std::uint64_t start_ns) {
  auto [it, inserted] = shard.inflight.try_emplace(key);
  if (!inserted) {
    // Single-flight: a forward for this key is already on the wire (or
    // retrying); park here and let its one reply answer everyone.
    it->second.waiters.push_back({client, start_ns, !it->second.fills});
    return;
  }
  // Lead request: owns the inflight entry until finish_waiters settles it.
  forward(shard, client, key, /*attempts=*/0, start_ns);
}

void FrontendServer::handle_write(Shard& shard, ConnId conn,
                                  Message&& message) {
  const std::uint64_t start_ns = obs::now_ns();
  const ReplyTo client{conn, message.id};
  shard.requests->inc();
  (message.type == MsgType::kDelete ? shard.deletes : shard.puts)->inc();

  if (config_.fleet_size > 1 && !fleet_owns(message.key) &&
      may_cache(message.key)) {
    // The sibling owning this key's cache slot must see the write to
    // invalidate it, even for a key it serves only once re-provisioned;
    // bounce the writer there (node = fleet index, as on the read path) and
    // let the edge router re-dispatch.
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
      const auto it = shard.inflight.find(request.key);
      if (request.op == MsgType::kGet &&
          (it == shard.inflight.end() || it->second.fills)) {
        admit(shard, request.key, reply.payload);
      }
      complete_request(shard, request, node);
      send_reply(*shard.loop, request.client, reply);
      if (request.op == MsgType::kGet) {
        finish_waiters(shard, request.key, MsgType::kValue, reply.payload);
      }
      return;
    }
    case MsgType::kMiss: {
      // The fetch produced no value: release the policy slot the lookup
      // admitted, or it sits value-less forever, evicting real entries and
      // turning future hits into forwards. An oracle slot stays empty.
      if (request.op == MsgType::kGet) {
        drop_cached(shard, request.key);
      }
      // An absent key keeps no pin: a flood of distinct absent keys would
      // otherwise grow the table without bound.
      shard.selector.unpin(request.key);
      shard.pin_count->set(
          static_cast<std::int64_t>(shard.selector.pin_count()));
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
  const std::vector<Waiter> waiters = std::move(it->second.waiters);
  shard.inflight.erase(it);
  if (waiters.empty()) return;
  const std::uint64_t now = obs::now_ns();
  for (const Waiter& waiter : waiters) {
    if (waiter.refetch) {
      // Its GET came after a write the lead's verdict may predate: it leads
      // (or parks on) a fetch of its own, and is counted when that settles.
      fetch(shard, waiter.client, key, waiter.start_ns);
      continue;
    }
    if (type == MsgType::kError) {
      // The lead exhausted its attempt budget for everyone parked behind
      // it: each waiter is its own failed request in the ledger.
      shard.failures->inc();
    } else {
      // Satellite of the lead's one forward: counted as coalesced, never as
      // forwarded, and deliberately kept out of forward_rtt_us / node RTT /
      // attempts histograms — no wire RTT of its own was measured, and
      // double-recording the lead's would skew per-node latency and the
      // attempts distribution. Only the end-to-end request timer ticks.
      shard.coalesced->inc();
      shard.request_us->record((now - waiter.start_ns) / 1'000);
    }
    Message reply;
    reply.type = type;
    reply.key = key;
    if (type != MsgType::kMiss) reply.payload = payload;
    send_reply(*shard.loop, waiter.client, reply);
  }
}

void FrontendServer::handle_hot_report(Shard& shard, Message&& message) {
  if (shard.hot_agg == nullptr) return;  // push without --detect: ignore
  shard.hot_reports->inc();
  for (const std::uint64_t key : shard.hot_agg->update(message.hot)) {
    if (holds(shard, key)) shard.hot_flagged_total->inc();
  }
  const auto& hot = shard.hot_agg->hot();

  // A cooled re-provisioned key gives its slot back, bytes and all: the
  // oracle prefix grows past the shard's next own key, which its next GET
  // fills (the aggregator's exit hysteresis decides when a key has cooled).
  const std::uint64_t oracle_limit =
      std::min<std::uint64_t>(config_.cache_capacity, config_.items);
  const std::size_t cooled =
      std::erase_if(shard.hot_extra, [&](std::uint64_t key) {
        if (hot.count(key) != 0) return false;
        drop_cached(shard, key);
        return true;
      });
  for (std::size_t i = 0; i < cooled; ++i) {
    std::uint64_t& end = shard.oracle_end;
    while (end < oracle_limit && !holds(shard, end)) ++end;
    end = std::min(end + 1, oracle_limit);
  }

  // Mitigation pass over the *whole* current hot set, not just the newly
  // flagged keys: an attack key evicted again between reports (the adaptive
  // adversary's whole game) must be re-admitted on the next report, and
  // against a shifted key set the aggregator's hysteresis retires the old
  // phase while this loop warms the new one.
  std::int64_t hot_here = 0;
  for (const std::uint64_t key : hot) {
    if (!holds(shard, key)) continue;
    ++hot_here;
    if (shard.values.count(key) != 0) {
      continue;  // bytes held: already serving hits
    }
    // Globally hot at the backends and absent here — the miss-flood
    // signature. Give the key a slot: a policy force-admits it; the oracle
    // re-provisions, handing it the slot of the shard's largest own
    // provisioned key, whose bytes leave with it. An oracle shard with no
    // own key left, or a key >= m it may not cache, gets no slot, and
    // "none" has none to give: it stays classify-only.
    if (shard.cache != nullptr) {
      shard.cache->access(key);
    } else if (!has_slot(shard, key)) {
      std::uint64_t end = shard.oracle_end;
      while (end > 0 && !holds(shard, end - 1)) --end;
      if (end == 0 || key >= config_.items) continue;
      shard.oracle_end = --end;
      drop_cached(shard, end);
      shard.hot_extra.insert(key);
      shard.hot_reprovisioned->inc();
    }
    // Warm its bytes with a self-initiated fetch (no client connection; the
    // reply's send to it is a harmless no-op), unless a fetch for the key is
    // already in flight, whose reply fills the slot anyway.
    if (!shard.inflight.try_emplace(key).second) continue;
    shard.hot_prefetches->inc();
    forward(shard, ReplyTo{}, key, /*attempts=*/0, /*start_ns=*/0);
  }
  shard.hot_keys->set(hot_here);
}

/// A pending request was answered by backend `node` (kValue or kMiss):
/// count it as forwarded exactly once and record its latency decomposition.
void FrontendServer::complete_request(Shard& shard, const Forward& request,
                                      std::uint32_t node) {
  if (request.client.conn == kInvalidConn) {
    // Self-initiated hot-key warm fetch: no client behind it, so it stays
    // out of the request accounting (requests == hits + forwarded +
    // failures must keep holding for real traffic).
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
  // Bytes held means the shard holds the key's slot: a hit. Copy them out
  // before access(), which may evict and so erase from `values`.
  if (const auto it = shard.values.find(key); it != shard.values.end()) {
    value = it->second;
    if (shard.cache != nullptr) shard.cache->access(key);  // refresh recency
    return true;
  }
  // Probe with the non-mutating contains() before touching the cache:
  // access() admits on miss AND refreshes recency on hit, so calling it for
  // a key whose bytes haven't arrived yet would let the very requests that
  // are waiting on the fetch keep the value-less slot maximally fresh —
  // under a miss-flood each attack key's slot gets refreshed by every
  // attack request and real entries are evicted instead.
  if (shard.cache != nullptr && !shard.cache->contains(key)) {
    shard.cache->access(key);  // miss: let the policy train and admit
  }
  return false;
}

void FrontendServer::admit(Shard& shard, std::uint64_t key,
                           const std::string& value) {
  // A policy may have declined the key, or evicted it while the fetch was
  // out; the oracle holds only its provisioned keys.
  if (!has_slot(shard, key)) return;
  shard.values[key] = value;
  shard.values_entries->set(static_cast<std::int64_t>(shard.values.size()));
}

void FrontendServer::drop_cached(Shard& shard, std::uint64_t key) {
  if (shard.cache != nullptr) shard.cache->invalidate(key);
  shard.values.erase(key);
  shard.values_entries->set(static_cast<std::int64_t>(shard.values.size()));
}

void FrontendServer::invalidate_cached(Shard& shard, std::uint64_t key) {
  const bool drop = may_cache(key);
  const std::size_t owner = shard_of(key);
  const auto apply = [this, key, drop, owner](Shard& target) {
    // A fetch already out, on any shard and for any key, may answer with
    // pre-write bytes: detach it, so a GET that parks on it fetches again.
    if (const auto it = target.inflight.find(key);
        it != target.inflight.end()) {
      it->second.fills = false;
    }
    if (drop && target.index == owner) {
      drop_cached(target, key);
      target.invalidations->inc();
    }
  };
  for (const auto& other : shards_) {
    Shard* target = other.get();
    if (target == &shard) {
      apply(shard);
    } else {
      // Another reactor's state: its loop thread applies it.
      target->loop->post([apply, target] { apply(*target); });
    }
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
  const std::size_t pick =
      shard.selector.select(key, shard.candidates, shard.loads, shard.rng);
  shard.pin_count->set(static_cast<std::int64_t>(shard.selector.pin_count()));
  return shard.candidates[pick];
}

void FrontendServer::forward(Shard& shard, ReplyTo client, std::uint64_t key,
                             std::uint32_t attempts, std::uint64_t start_ns,
                             MsgType op, const std::string& payload) {
  const std::uint32_t node = route(shard, key);
  if (node == kNoBackend) {
    // No live replica right now; treat like a failed attempt and back off.
    retry_or_fail(shard, {.client = client, .key = key, .op = op,
                          .attempts = attempts, .payload = payload,
                          .start_ns = start_ns});
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
  // While stopping, fail immediately: the loop's timers never fire again,
  // so a scheduled retry would pin the pending count above zero and make
  // stop() burn its whole drain budget.
  if (request.attempts + 1 >= config_.retry.max_attempts() ||
      stopping_.load()) {
    fail_request(shard, request.client, request.key, request.op);
    return;
  }
  backoff_pending_.fetch_add(1, std::memory_order_relaxed);
  Shard* s = &shard;
  const double backoff = config_.retry.backoff_s(request.attempts);
  shard.loop->run_after(backoff, [this, s, request] {
    backoff_pending_.fetch_sub(1, std::memory_order_relaxed);
    forward(*s, request.client, request.key, request.attempts + 1,
            request.start_ns, request.op, request.payload);
  });
}

void FrontendServer::fail_request(Shard& shard, ReplyTo client,
                                  std::uint64_t key, MsgType op) {
  // A failed fetch leaves no bytes behind either — release any value-less
  // cache slot the lookup admitted.
  drop_cached(shard, key);
  // A failed GET lead takes its parked waiters down with it (before the
  // prefetch early-return below: a kInvalidConn lead can carry real
  // waiters). Failed writes never touch the GET single-flight table.
  if (op == MsgType::kGet) {
    finish_waiters(shard, key, MsgType::kError, "no live replica");
  }
  if (client.conn == kInvalidConn) {
    // Failed hot-key warm fetch: the next report retriggers it; no client
    // to answer and no failure to count (see complete_request).
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
