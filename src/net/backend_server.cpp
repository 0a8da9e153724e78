#include "net/backend_server.h"

#include <algorithm>
#include <functional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/parallel.h"
#include "replication/rebalance.h"

namespace scp::net {
namespace {

std::chrono::steady_clock::time_point deadline_after(double seconds) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace

BackendServer::BackendServer(BackendConfig config)
    : config_(std::move(config)),
      partitioner_(make_partitioner(config_.partitioner, config_.nodes,
                                    config_.replication,
                                    config_.partition_seed)),
      pool_(ReactorPool::Options{
          .shards = config_.shards == 0 ? 1 : config_.shards,
          .force_fallback_accept = config_.force_fallback_accept}),
      clock_(config_.node_id),
      detector_(replication::FailureDetectorConfig{
          .interval_s = config_.fd_interval_s,
          .suspect_after_s = config_.fd_suspect_s,
          .timeout_s = config_.fd_timeout_s}) {}

BackendServer::~BackendServer() { stop(0.0); }

void BackendServer::preload() {
  // The ownership scan (a replica_group hash per key) and the owned values
  // are built in chunks across the cores; each chunk lists its keys in
  // ascending order, so the inserts below see the same keys in the same
  // order at any thread count. A key space of one chunk runs inline.
  constexpr std::uint64_t kChunkKeys = 8192;
  const std::uint64_t chunks = (config_.items + kChunkKeys - 1) / kChunkKeys;
  std::vector<std::vector<std::pair<KeyId, std::string>>> owned(chunks);
  const auto scan = [&](std::size_t chunk, std::size_t) {
    std::vector<NodeId> group(config_.replication);
    const std::uint64_t end =
        std::min(config_.items, (chunk + 1) * kChunkKeys);
    for (std::uint64_t key = chunk * kChunkKeys; key < end; ++key) {
      partitioner_->replica_group(key, group);
      if (in_group(group)) {
        owned[chunk].emplace_back(key, make_value(key, config_.value_bytes));
      }
    }
  };
  parallel_for(chunks, std::thread::hardware_concurrency(), scan);
  std::size_t total = 0;
  for (const auto& entries : owned) total += entries.size();
  storage_.reserve(total);
  for (auto& entries : owned) {
    for (auto& [key, value] : entries) {
      // Version 1 loses last-writer-wins to any minted version (the clock's
      // first is (1 << kNodeBits) | node), so every real write supersedes
      // the preload on every replica.
      storage_.apply_put(key, std::move(value), /*version=*/1);
    }
  }
}

std::uint32_t BackendServer::write_quorum_need() const noexcept {
  const std::uint32_t d = config_.replication;
  if (!peers_configured_.load(std::memory_order_relaxed)) return 1;
  const std::uint32_t w =
      config_.write_quorum != 0 ? config_.write_quorum : d / 2 + 1;
  return std::clamp<std::uint32_t>(w, 1, d);
}

std::uint32_t BackendServer::read_quorum_need() const noexcept {
  const std::uint32_t d = config_.replication;
  if (!peers_configured_.load(std::memory_order_relaxed)) return 1;
  const std::uint32_t r =
      config_.read_quorum != 0 ? config_.read_quorum : d / 2 + 1;
  return std::clamp<std::uint32_t>(r, 1, d);
}

bool BackendServer::in_group(const std::vector<NodeId>& group) const noexcept {
  return std::find(group.begin(), group.end(), config_.node_id) != group.end();
}

bool BackendServer::start() {
  preload();
  if (config_.detect) {
    if (config_.detect_k == 0) config_.detect_k = 16;
    const std::size_t slots = config_.detect_capacity != 0
                                  ? config_.detect_capacity
                                  : std::size_t{8} * config_.detect_k;
    hot_detector_ =
        std::make_unique<detect::HotKeyDetector>(slots, config_.detect_k);
    hot_agg_ = detect::HotKeyAggregator(detect::HotKeyAggregator::Options{
        .hot_fraction = config_.detect_hot_fraction,
        .drop_ratio = 0.5,
        .min_samples = config_.detect_min_samples});
  }
  shards_.clear();
  for (std::size_t k = 0; k < pool_.shards(); ++k) {
    auto shard = std::make_unique<Shard>();
    shard->index = k;
    shard->loop = &pool_.shard(k);
    shard->group.resize(config_.replication);
    // Peers get their links in set_peers() and kJoin, once they are known.
    shard->upstream = std::make_unique<Upstream>(
        *shard->loop, std::vector<Endpoint>{}, config_.op_timeout_s,
        stopping_);

    Shard* s = shard.get();
    Reactor::Callbacks callbacks;
    callbacks.on_message = [this, s](ConnId conn, Message&& message) {
      handle(*s, conn, std::move(message));
    };
    callbacks.on_close = [s](ConnId conn) {
      if (!s->hot_subs.empty()) std::erase(s->hot_subs, conn);
      s->upstream->on_close(conn);
    };
    callbacks.on_connect = [s](ConnId conn, bool ok) {
      s->upstream->on_connect(conn, ok);
    };
    s->loop->set_callbacks(std::move(callbacks));
    Upstream::Hooks hooks;
    hooks.on_reply = [this, s](std::uint32_t node, Forward&& request,
                               Message&& reply) {
      handle_peer_reply(*s, node, std::move(request), std::move(reply));
    };
    hooks.on_dropped = [this, s](std::uint32_t, Forward&& request, bool) {
      apply_peer_loss(*s, request.quorum_op);
    };
    s->upstream->start({.resets = &s->registry.counter("backend.link_resets")},
                       std::move(hooks));

    obs::MetricsRegistry& r = s->registry;
    s->requests = &r.counter("backend.requests");
    s->hits = &r.counter("backend.hits");
    s->misses = &r.counter("backend.misses");
    s->redirects = &r.counter("backend.redirects");
    s->puts = &r.counter("backend.puts");
    s->deletes = &r.counter("backend.deletes");
    s->replications = &r.counter("backend.replications");
    s->quorum_gets = &r.counter("backend.quorum_gets");
    s->quorum_failures = &r.counter("backend.quorum_failures");
    s->read_repairs = &r.counter("backend.read_repairs");
    s->rebalanced_keys = &r.counter("backend.rebalanced_keys");
    if (config_.detect) {
      s->hot_observed = &r.counter("detect.observed");
      s->hot_reports_sent = &r.counter("detect.reports_sent");
      s->hot_reports_received = &r.counter("detect.reports_received");
      s->hot_flagged = &r.counter("detect.flagged_keys");
    }
    s->service_us = &r.timer("backend.service_us");
    s->write_us = &r.timer("backend.write_quorum_us");
    s->quorum_read_us = &r.timer("backend.read_quorum_us");
    s->loop->set_metrics(&r);
    if (config_.detect && k == 0) {
      s->loop->run_after(config_.detect_interval_s, [this] { hot_tick(); });
    }
    shards_.push_back(std::move(shard));
  }
  if (!pool_.listen(config_.address, config_.port)) return false;
  if (config_.metrics_port >= 0) {
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        [this] { return metrics_snapshot(); });
    if (!metrics_http_->start(
            static_cast<std::uint16_t>(config_.metrics_port))) {
      SCP_LOG_ERROR << "scp_backend: failed to bind metrics port "
                    << config_.metrics_port;
      return false;
    }
  }
  if (!pool_.start()) return false;
  if (!config_.peers.empty()) {
    set_peers(std::vector<std::pair<std::string, std::uint16_t>>(
        config_.peers));
  }
  SCP_LOG_INFO << "scp_backend node " << config_.node_id << " serving "
               << storage_.live_count() << " keys on " << config_.address
               << ":" << pool_.port() << " (" << pool_.shards() << " shard"
               << (pool_.shards() == 1 ? "" : "s")
               << (peers_configured_.load() ? ", replicated" : "") << ")";
  return true;
}

void BackendServer::stop(double drain_s) {
  stopping_.store(true);
  pool_.stop(drain_s);
  if (metrics_http_ != nullptr) {
    metrics_http_->stop();
  }
}

void BackendServer::set_peers(
    std::vector<std::pair<std::string, std::uint16_t>> endpoints) {
  if (shards_.empty()) {
    // Before start(): stash in the config; start() re-enters here.
    config_.peers = std::move(endpoints);
    return;
  }
  // Peers are the named nodes other than this one; an empty slot names none.
  if (config_.node_id < endpoints.size()) endpoints[config_.node_id] = {};
  std::uint32_t targets = 0;
  membership_.add_node(config_.node_id);
  for (std::uint32_t node = 0; node < endpoints.size(); ++node) {
    if (endpoints[node].first.empty()) continue;
    ++targets;
    membership_.add_node(node);
  }
  peers_configured_.store(targets > 0, std::memory_order_release);
  peer_target_ = targets;

  for (auto& shard : shards_) {
    Shard* s = shard.get();
    s->loop->post([s, endpoints] {
      for (std::uint32_t node = 0; node < endpoints.size(); ++node) {
        if (endpoints[node].first.empty()) continue;
        s->upstream->set_endpoint(node, endpoints[node].first,
                                  endpoints[node].second);
      }
    });
  }

  Shard* s0 = shards_[0].get();
  s0->loop->post([this, endpoints] {
    for (std::uint32_t node = 0; node < endpoints.size(); ++node) {
      if (endpoints[node].first.empty()) continue;
      if (!detector_.tracks(node)) detector_.add_node(node, now_s());
    }
    if (!detector_running_.exchange(true)) {
      detector_tick();
    }
  });
}

bool BackendServer::wait_peers_up(double timeout_s) const {
  const std::uint64_t want =
      static_cast<std::uint64_t>(peer_target_) * shards_.size();
  const auto deadline = deadline_after(timeout_s);
  while (true) {
    std::uint64_t up = 0;
    for (const auto& shard : shards_) up += shard->upstream->up_count();
    if (up >= want) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerStats BackendServer::stats() const {
  ServerStats stats;
  for (const auto& shard : shards_) {
    stats.requests += shard->requests->value();
    stats.hits += shard->hits->value();
    stats.misses += shard->misses->value();
    stats.redirects += shard->redirects->value();
    stats.puts += shard->puts->value();
    stats.deletes += shard->deletes->value();
    stats.replications += shard->replications->value();
  }
  return stats;
}

obs::MetricsSnapshot BackendServer::metrics_snapshot() const {
  std::vector<obs::MetricsSnapshot> per_shard;
  per_shard.reserve(shards_.size());
  for (const auto& shard : shards_) {
    obs::MetricsSnapshot snap = shard->registry.snapshot();
    shard->loop->counters().export_to(snap);
    per_shard.push_back(std::move(snap));
  }
  if (!per_shard.empty()) {
    // Shared storage: only shard 0 reports it, so the merged gauge is the
    // key count, not shards × keys.
    std::shared_lock lock(storage_mutex_);
    per_shard[0].gauges["backend.keys"] =
        static_cast<std::int64_t>(storage_.live_count());
  }
  obs::MetricsSnapshot snap = merge_shard_snapshots("backend", per_shard);
  snap.gauges["backend.peers_alive"] =
      static_cast<std::int64_t>(membership_.alive_count());
  snap.gauges["backend.membership_epoch"] =
      static_cast<std::int64_t>(membership_.epoch());
  if (config_.detect) {
    {
      std::lock_guard lock(hot_agg_mutex_);
      snap.gauges["detect.hot_keys"] =
          static_cast<std::int64_t>(hot_agg_.hot().size());
    }
    if (hot_detector_ != nullptr) {
      std::lock_guard lock(hot_mutex_);
      snap.gauges["detect.sketch_keys"] =
          static_cast<std::int64_t>(hot_detector_->monitored_keys());
    }
  }
  return snap;
}

std::uint16_t BackendServer::metrics_http_port() const noexcept {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

std::optional<StorageEngine::Entry> BackendServer::storage_entry(
    KeyId key) const {
  std::shared_lock lock(storage_mutex_);
  return storage_.get_entry(key);
}

void BackendServer::handle(Shard& shard, ConnId conn, Message&& message) {
  const std::uint32_t node = shard.upstream->link_of(conn);
  if (node != Upstream::kNoLink) {
    shard.upstream->on_reply(node, std::move(message));
    return;
  }
  switch (message.type) {
    case MsgType::kGet:
      handle_get(shard, conn, message);
      return;
    case MsgType::kBatchGet:
      handle_batch_get(shard, conn, message);
      return;
    case MsgType::kPut:
    case MsgType::kDelete:
      handle_write(shard, conn, message);
      return;
    case MsgType::kQuorumGet:
      handle_quorum_get(shard, conn, message);
      return;
    case MsgType::kReplicate:
      handle_replicate(shard, conn, message);
      return;
    case MsgType::kVerRead:
      handle_ver_read(shard, conn, message);
      return;
    case MsgType::kJoin:
      handle_join(shard, conn, message);
      return;
    case MsgType::kLeave:
      handle_leave(shard, conn, message);
      return;
    case MsgType::kHotKeyReport:
      // Gossip from a peer, on the connection the peer dialed to us.
      // One-way: no reply.
      handle_hot_report(shard, message);
      return;
    case MsgType::kHotKeySubscribe:
      // One-way (see wire.h): no reply.
      if (config_.detect &&
          std::find(shard.hot_subs.begin(), shard.hot_subs.end(), conn) ==
              shard.hot_subs.end()) {
        shard.hot_subs.push_back(conn);
      }
      return;
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

void BackendServer::handle_get(Shard& shard, ConnId conn,
                               const Message& message) {
  const std::uint64_t start_ns = obs::now_ns();
  shard.requests->inc();
  {
    std::shared_lock lock(partitioner_mutex_);
    shard.group.resize(partitioner_->replication());
    partitioner_->replica_group(message.key, shard.group);
  }
  if (!in_group(shard.group)) {
    shard.redirects->inc();
    Message reply;
    reply.type = MsgType::kRedirect;
    reply.key = message.key;
    reply.node = shard.group[0];
    send_reply(*shard.loop, {conn, message.id}, reply);
    obs::record_elapsed(shard.service_us, start_ns, /*divisor=*/1'000);
    return;
  }
  if (hot_detector_ != nullptr) {
    // Every served GET feeds the heavy-hitter sketch — this stream *is* the
    // front-end miss stream, which is where a miss-flood attack lives.
    shard.hot_observed->inc();
    std::lock_guard lock(hot_mutex_);
    hot_detector_->observe(message.key);
  }
  Message reply;
  reply.key = message.key;
  std::optional<std::string> value;
  {
    std::shared_lock lock(storage_mutex_);
    value = storage_.get(message.key);
  }
  if (value.has_value()) {
    shard.hits->inc();
    reply.type = MsgType::kValue;
    reply.payload = std::move(*value);
  } else {
    shard.misses->inc();
    reply.type = MsgType::kMiss;
  }
  send_reply(*shard.loop, {conn, message.id}, reply);
  obs::record_elapsed(shard.service_us, start_ns, /*divisor=*/1'000);
}

void BackendServer::handle_batch_get(Shard& shard, ConnId conn,
                                     const Message& message) {
  const std::uint64_t start_ns = obs::now_ns();
  shard.requests->inc(message.batch_keys.size());

  Message reply;
  reply.type = MsgType::kBatchReply;
  reply.batch.resize(message.batch_keys.size());

  // Ownership pass: one partitioner lock for the whole batch.
  {
    std::shared_lock lock(partitioner_mutex_);
    shard.group.resize(partitioner_->replication());
    for (std::size_t i = 0; i < message.batch_keys.size(); ++i) {
      BatchItem& item = reply.batch[i];
      item.key = message.batch_keys[i];
      partitioner_->replica_group(item.key, shard.group);
      if (in_group(shard.group)) {
        item.type = MsgType::kMiss;  // provisional; storage pass may upgrade
      } else {
        item.type = MsgType::kRedirect;
        item.node = shard.group[0];
      }
    }
  }
  std::size_t served = 0;
  for (const BatchItem& item : reply.batch) {
    if (item.type != MsgType::kRedirect) ++served;
  }
  shard.redirects->inc(reply.batch.size() - served);

  if (hot_detector_ != nullptr && served > 0) {
    // The served stream feeds the heavy-hitter sketch exactly as on the
    // single-GET path, under one lock acquisition for the batch.
    shard.hot_observed->inc(served);
    std::lock_guard lock(hot_mutex_);
    for (const BatchItem& item : reply.batch) {
      if (item.type != MsgType::kRedirect) hot_detector_->observe(item.key);
    }
  }

  // Storage pass: one shared lock for every lookup.
  std::uint64_t hit = 0;
  std::uint64_t missed = 0;
  {
    std::shared_lock lock(storage_mutex_);
    for (BatchItem& item : reply.batch) {
      if (item.type == MsgType::kRedirect) continue;
      if (auto value = storage_.get(item.key); value.has_value()) {
        item.type = MsgType::kValue;
        item.payload = std::move(*value);
        ++hit;
      } else {
        ++missed;
      }
    }
  }
  shard.hits->inc(hit);
  shard.misses->inc(missed);

  send_reply(*shard.loop, {conn, message.id}, reply);
  obs::record_elapsed(shard.service_us, start_ns, /*divisor=*/1'000);
}

void BackendServer::handle_write(Shard& shard, ConnId conn,
                                 const Message& message) {
  const bool is_delete = message.type == MsgType::kDelete;
  (is_delete ? shard.deletes : shard.puts)->inc();
  const std::uint64_t start_ns = obs::now_ns();

  {
    std::shared_lock lock(partitioner_mutex_);
    shard.group.resize(partitioner_->replication());
    partitioner_->replica_group(message.key, shard.group);
  }
  const bool self_in = in_group(shard.group);
  const bool meshed = peers_configured_.load(std::memory_order_acquire);
  if (!self_in && !meshed) {
    // Without a replica mesh this node cannot reach the owners; bounce the
    // caller exactly like a misrouted GET.
    shard.redirects->inc();
    Message reply;
    reply.type = MsgType::kRedirect;
    reply.key = message.key;
    reply.node = shard.group[0];
    send_reply(*shard.loop, {conn, message.id}, reply);
    return;
  }

  const std::uint64_t version = clock_.next();
  std::uint32_t acked = 0;
  std::uint32_t outstanding = 0;
  if (self_in) {
    std::unique_lock lock(storage_mutex_);
    if (is_delete) {
      storage_.apply_erase(message.key, version);
    } else {
      storage_.apply_put(message.key, message.payload, version);
    }
    acked = 1;
    outstanding = 1;
  }

  const std::uint64_t op_id = shard.next_op++;
  if (meshed) {
    const Forward replicate{
        .key = message.key,
        .op = MsgType::kReplicate,
        .flags = is_delete ? kFlagTombstone : std::uint8_t{0},
        .version = version,
        .payload = message.payload,
        .quorum_op = op_id};
    for (const NodeId node : shard.group) {
      if (node == config_.node_id) continue;
      if (!membership_.alive(node)) continue;
      if (shard.upstream->send(node, replicate)) ++outstanding;
    }
  }

  Op op;
  op.client = {conn, message.id};
  op.kind = message.type;
  op.key = message.key;
  op.version = version;
  op.start_ns = start_ns;
  op.write.emplace(write_quorum_need(), outstanding);
  for (std::uint32_t i = 0; i < acked; ++i) op.write->on_ack();
  if (!conclude(shard, op, op.write->state())) {
    shard.ops.emplace(op_id, std::move(op));
  }
}

void BackendServer::handle_quorum_get(Shard& shard, ConnId conn,
                                      const Message& message) {
  shard.quorum_gets->inc();
  const std::uint64_t start_ns = obs::now_ns();

  {
    std::shared_lock lock(partitioner_mutex_);
    shard.group.resize(partitioner_->replication());
    partitioner_->replica_group(message.key, shard.group);
  }
  const bool self_in = in_group(shard.group);
  const bool meshed = peers_configured_.load(std::memory_order_acquire);
  if (!self_in && !meshed) {
    Message reply;
    reply.type = MsgType::kRedirect;
    reply.key = message.key;
    reply.node = shard.group[0];
    shard.redirects->inc();
    send_reply(*shard.loop, {conn, message.id}, reply);
    return;
  }

  std::uint32_t outstanding = self_in ? 1 : 0;
  const std::uint64_t op_id = shard.next_op++;
  if (meshed) {
    const Forward probe{
        .key = message.key, .op = MsgType::kVerRead, .quorum_op = op_id};
    for (const NodeId node : shard.group) {
      if (node == config_.node_id) continue;
      if (!membership_.alive(node)) continue;
      if (shard.upstream->send(node, probe)) ++outstanding;
    }
  }

  Op op;
  op.client = {conn, message.id};
  op.kind = MsgType::kQuorumGet;
  op.key = message.key;
  op.start_ns = start_ns;
  op.read.emplace(read_quorum_need(), outstanding);
  if (self_in) {
    replication::ReadResponse response;
    response.node = config_.node_id;
    std::optional<StorageEngine::Entry> entry = storage_entry(message.key);
    if (entry.has_value()) {
      response.found = true;
      response.tombstone = entry->tombstone;
      response.version = entry->version;
      if (!entry->tombstone) response.value = std::move(entry->value);
    }
    op.read->on_response(std::move(response));
  }
  if (!conclude(shard, op, op.read->state())) {
    shard.ops.emplace(op_id, std::move(op));
  }
}

void BackendServer::handle_replicate(Shard& shard, ConnId conn,
                                     const Message& message) {
  shard.replications->inc();
  clock_.observe(message.version);
  bool applied = false;
  {
    std::unique_lock lock(storage_mutex_);
    if ((message.flags & kFlagTombstone) != 0) {
      applied = storage_.apply_erase(message.key, message.version);
    } else {
      applied = storage_.apply_put(message.key, message.payload,
                                   message.version);
    }
  }
  Message reply;
  reply.type = MsgType::kRepAck;
  reply.key = message.key;
  reply.version = message.version;
  reply.flags = applied ? kFlagApplied : 0;
  send_reply(*shard.loop, {conn, message.id}, reply);
}

void BackendServer::handle_ver_read(Shard& shard, ConnId conn,
                                    const Message& message) {
  Message reply;
  reply.type = MsgType::kVerValue;
  reply.key = message.key;
  std::optional<StorageEngine::Entry> entry = storage_entry(message.key);
  if (entry.has_value()) {
    reply.version = entry->version;
    reply.flags = kFlagFound;
    if (entry->tombstone) {
      reply.flags |= kFlagTombstone;
    } else {
      reply.payload = std::move(entry->value);
    }
  }
  send_reply(*shard.loop, {conn, message.id}, reply);
}

void BackendServer::handle_peer_reply(Shard& shard, std::uint32_t node,
                                      Forward&& request, Message&& reply) {
  // The upstream matched the reply's id and key; its kind must answer the
  // frame sent, or the link is reset.
  const auto mismatch = [&] {
    apply_peer_loss(shard, request.quorum_op);
    shard.upstream->reset(node, "reply kind mismatch");
  };
  if (request.op == MsgType::kPing) {
    if (reply.type != MsgType::kPong) return mismatch();
    if (shard.index == 0 && detector_running_.load() &&
        detector_.record_pong(node, now_s()) ==
            replication::PingFailureDetector::Transition::kRecovered) {
      membership_.set_state(node, replication::NodeState::kUp);
    }
    return;
  }
  // A peer's kError loses its reply; a lost repair or handoff is healed by
  // a later read-repair.
  if (reply.type == MsgType::kError) {
    return apply_peer_loss(shard, request.quorum_op);
  }
  const MsgType expected = request.op == MsgType::kVerRead
                               ? MsgType::kVerValue
                               : MsgType::kRepAck;
  if (reply.type != expected) return mismatch();
  clock_.observe(reply.version);
  auto it = shard.ops.find(request.quorum_op);
  if (it == shard.ops.end()) return;  // a repair, or already resolved
  Op& op = it->second;
  replication::QuorumState state;
  if (request.op == MsgType::kVerRead) {
    replication::ReadResponse response;
    response.node = node;
    response.found = (reply.flags & kFlagFound) != 0;
    response.tombstone = (reply.flags & kFlagTombstone) != 0;
    response.version = reply.version;
    response.value = std::move(reply.payload);
    state = op.read->on_response(std::move(response));
  } else {
    state = op.write->on_ack();
  }
  if (conclude(shard, op, state)) shard.ops.erase(it);
}

void BackendServer::apply_peer_loss(Shard& shard, std::uint64_t op_id) {
  if (op_id == 0) return;
  auto it = shard.ops.find(op_id);
  if (it == shard.ops.end()) return;
  Op& op = it->second;
  const replication::QuorumState state =
      op.write.has_value() ? op.write->on_lost() : op.read->on_lost();
  if (conclude(shard, op, state)) shard.ops.erase(it);
}

bool BackendServer::conclude(Shard& shard, Op& op,
                             replication::QuorumState state) {
  switch (state) {
    case replication::QuorumState::kDone:
      if (op.write.has_value()) {
        resolve_write(shard, op);
      } else {
        resolve_read(shard, op);
      }
      return true;
    case replication::QuorumState::kFailed:
      fail_op(shard, op,
              op.write.has_value() ? "write quorum unavailable"
                                   : "read quorum unavailable");
      return true;
    case replication::QuorumState::kPending:
      return false;
  }
  return false;
}

void BackendServer::resolve_write(Shard& shard, Op& op) {
  Message reply;
  reply.type = MsgType::kWriteReply;
  reply.key = op.key;
  reply.version = op.version;
  send_reply(*shard.loop, op.client, reply);
  obs::record_elapsed(shard.write_us, op.start_ns, /*divisor=*/1'000);
}

void BackendServer::resolve_read(Shard& shard, Op& op) {
  const replication::ReadResponse* winner = op.read->newest();
  Message reply;
  reply.key = op.key;
  if (winner != nullptr && !winner->tombstone) {
    reply.type = MsgType::kValue;
    reply.payload = winner->value;
  } else {
    reply.type = MsgType::kMiss;
  }
  send_reply(*shard.loop, op.client, reply);
  obs::record_elapsed(shard.quorum_read_us, op.start_ns, /*divisor=*/1'000);

  if (winner == nullptr) return;
  // Read-repair: push the winner to every responder that answered with an
  // older version (idempotent LWW apply — duplicates are no-ops).
  const Forward repair{
      .key = op.key,
      .op = MsgType::kReplicate,
      .flags = winner->tombstone ? kFlagTombstone : std::uint8_t{0},
      .version = winner->version,
      .payload = winner->value};
  for (const NodeId node : op.read->stale_nodes()) {
    shard.read_repairs->inc();
    if (node == config_.node_id) {
      std::unique_lock lock(storage_mutex_);
      if (winner->tombstone) {
        storage_.apply_erase(op.key, winner->version);
      } else {
        storage_.apply_put(op.key, winner->value, winner->version);
      }
    } else {
      shard.upstream->send(node, repair, /*deferrable=*/true);
    }
  }
}

void BackendServer::fail_op(Shard& shard, Op& op, const char* reason) {
  shard.quorum_failures->inc();
  Message reply;
  reply.type = MsgType::kError;
  reply.key = op.key;
  reply.payload = reason;
  send_reply(*shard.loop, op.client, reply);
}

void BackendServer::detector_tick() {
  if (stopping_.load() || shards_.empty()) return;
  Shard& shard = *shards_[0];
  std::vector<NodeId> to_ping;
  for (const auto& event : detector_.tick(now_s(), &to_ping)) {
    switch (event.transition) {
      case replication::PingFailureDetector::Transition::kSuspect:
        membership_.set_state(event.node, replication::NodeState::kSuspect);
        break;
      case replication::PingFailureDetector::Transition::kDown:
        membership_.set_state(event.node, replication::NodeState::kDown);
        break;
      default:
        break;
    }
  }
  for (const NodeId node : to_ping) {
    shard.upstream->send(node, Forward{.op = MsgType::kPing});
  }
  shard.loop->run_after(config_.fd_interval_s, [this] { detector_tick(); });
}

void BackendServer::hot_tick() {
  if (stopping_.load() || shards_.empty() || hot_detector_ == nullptr) return;
  Shard& shard = *shards_[0];
  detect::HotKeyReport report;
  {
    std::lock_guard lock(hot_mutex_);
    report = hot_detector_->report(config_.node_id);
    // Age the sketch every tick so the report window is roughly exponential
    // — an adversary that shifts its key set stops dominating the sketch
    // within a few intervals instead of coasting on stale counts.
    hot_detector_->age();
  }
  if (report.total > 0) {
    absorb_hot_report(shard, report);
    Message message;
    message.type = MsgType::kHotKeyReport;
    message.hot = std::move(report);
    // Gossip to alive mesh peers. One-way (id 0): no reply is owed, so
    // nothing is registered.
    for (std::uint32_t node = 0; node < shard.upstream->size(); ++node) {
      if (!shard.upstream->up(node) || !membership_.alive(node)) continue;
      if (shard.upstream->send_unmatched(node, message)) {
        shard.hot_reports_sent->inc();
      }
    }
    // Push to subscribed front ends; subscriptions live per shard.
    for (auto& other : shards_) {
      Shard* s = other.get();
      run_on(shard, *s, [s, message] {
        for (const ConnId conn : s->hot_subs) {
          if (s->loop->send(conn, message)) s->hot_reports_sent->inc();
        }
      });
    }
  }
  shard.loop->run_after(config_.detect_interval_s, [this] { hot_tick(); });
}

void BackendServer::handle_hot_report(Shard& shard, const Message& message) {
  if (!config_.detect) return;  // peer detects, we don't: drop silently
  shard.hot_reports_received->inc();
  absorb_hot_report(shard, message.hot);
}

void BackendServer::absorb_hot_report(Shard& shard,
                                      const detect::HotKeyReport& report) {
  std::lock_guard lock(hot_agg_mutex_);
  shard.hot_flagged->inc(hot_agg_.update(report).size());
}

void BackendServer::stream_handoff(
    Shard& shard,
    const std::function<void(KeyId, std::span<NodeId>)>& old_group_of) {
  std::vector<KeyId> keys;
  {
    std::shared_lock lock(storage_mutex_);
    keys.reserve(storage_.entry_count());
    storage_.for_each_entry(
        [&keys](KeyId key, const StorageEngine::Entry&) {
          keys.push_back(key);
        });
  }
  std::vector<replication::HandoffItem> plan;
  {
    std::shared_lock lock(partitioner_mutex_);
    plan = replication::plan_handoff(
        old_group_of, *partitioner_, config_.node_id,
        [this](NodeId node) {
          return node == config_.node_id || membership_.alive(node);
        },
        keys);
  }
  for (const replication::HandoffItem& item : plan) {
    std::optional<StorageEngine::Entry> entry = storage_entry(item.key);
    if (!entry.has_value()) continue;
    Forward replicate{
        .key = item.key,
        .op = MsgType::kReplicate,
        .flags = entry->tombstone ? kFlagTombstone : std::uint8_t{0},
        .version = entry->version};
    if (!entry->tombstone) replicate.payload = std::move(entry->value);
    shard.upstream->send(item.target, std::move(replicate),
                         /*deferrable=*/true);
  }
  shard.rebalanced_keys->inc(plan.size());
}

void BackendServer::handle_join(Shard& shard, ConnId conn,
                                const Message& message) {
  const auto endpoints = parse_endpoints(message.payload);
  if (!endpoints.has_value() || endpoints->size() != 1 ||
      endpoints->front().first.empty()) {
    Message reply;
    reply.type = MsgType::kError;
    reply.payload = "join: bad endpoint (want host:port)";
    send_reply(*shard.loop, {conn, message.id}, reply);
    return;
  }
  const NodeId node = message.node;
  std::shared_ptr<ConsistentHashRing> old_ring;
  {
    std::unique_lock lock(partitioner_mutex_);
    auto* ring = dynamic_cast<ConsistentHashRing*>(partitioner_.get());
    if (ring == nullptr) {
      lock.unlock();
      Message reply;
      reply.type = MsgType::kError;
      reply.payload = "join: requires the ring partitioner";
      send_reply(*shard.loop, {conn, message.id}, reply);
      return;
    }
    if (!ring->contains_node(node)) {
      old_ring = std::make_shared<ConsistentHashRing>(*ring);
      ring->add_node(node);
    }
  }

  membership_.add_node(node);
  const auto [host, port] = endpoints->front();
  for (auto& other : shards_) {
    Shard* s = other.get();
    run_on(shard, *s, [s, node, host, port] {
      s->upstream->set_endpoint(node, host, port);
    });
  }
  run_on(shard, *shards_[0], [this, node] {
    if (!detector_.tracks(node)) detector_.add_node(node, now_s());
  });
  peers_configured_.store(true, std::memory_order_release);

  if (old_ring != nullptr) {
    stream_handoff(shard, [old_ring](KeyId key, std::span<NodeId> out) {
      old_ring->replica_group(key, out);
    });
  }
  Message reply;
  reply.type = MsgType::kWriteReply;
  reply.version = membership_.epoch();
  send_reply(*shard.loop, {conn, message.id}, reply);
}

void BackendServer::handle_leave(Shard& shard, ConnId conn,
                                 const Message& message) {
  const NodeId node = message.node;
  std::shared_ptr<ConsistentHashRing> old_ring;
  {
    std::unique_lock lock(partitioner_mutex_);
    auto* ring = dynamic_cast<ConsistentHashRing*>(partitioner_.get());
    if (ring == nullptr) {
      lock.unlock();
      Message reply;
      reply.type = MsgType::kError;
      reply.payload = "leave: requires the ring partitioner";
      send_reply(*shard.loop, {conn, message.id}, reply);
      return;
    }
    if (ring->contains_node(node)) {
      if (ring->node_count() <= ring->replication()) {
        lock.unlock();
        Message reply;
        reply.type = MsgType::kError;
        reply.payload = "leave: too few nodes left for the replication factor";
        send_reply(*shard.loop, {conn, message.id}, reply);
        return;
      }
      old_ring = std::make_shared<ConsistentHashRing>(*ring);
      ring->remove_node(node);
    }
  }

  membership_.remove_node(node);
  for (auto& other : shards_) {
    Shard* s = other.get();
    run_on(shard, *s, [s, node] { s->upstream->retire(node); });
  }
  run_on(shard, *shards_[0], [this, node] { detector_.remove_node(node); });

  if (old_ring != nullptr) {
    stream_handoff(shard, [old_ring](KeyId key, std::span<NodeId> out) {
      old_ring->replica_group(key, out);
    });
  }
  Message reply;
  reply.type = MsgType::kWriteReply;
  reply.version = membership_.epoch();
  send_reply(*shard.loop, {conn, message.id}, reply);
}

void BackendServer::run_on(Shard& current, Shard& target,
                           std::function<void()> fn) {
  if (&target == &current) {
    fn();
  } else {
    target.loop->post(std::move(fn));
  }
}

}  // namespace scp::net
