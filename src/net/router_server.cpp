#include "net/router_server.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/log.h"
#include "net/frame_loop.h"

namespace scp::net {
namespace {

constexpr double kSweepIntervalS = 0.020;

}  // namespace

RouterServer::RouterServer(RouterConfig config)
    : config_(std::move(config)),
      loop_(std::make_unique<FrameLoop>()),
      router_(static_cast<std::uint32_t>(config_.frontends.size()),
              config_.fleet_seed),
      rng_(config_.seed) {}

RouterServer::~RouterServer() { stop(0.0); }

bool RouterServer::start() {
  if (config_.frontends.empty()) {
    SCP_LOG_ERROR << "scp_router: no fleet members configured";
    return false;
  }
  if (config_.max_hops == 0) config_.max_hops = 1;

  members_.resize(config_.frontends.size());
  for (std::size_t i = 0; i < config_.frontends.size(); ++i) {
    members_[i].address = config_.frontends[i].first;
    members_[i].port = config_.frontends[i].second;
    // Members start pessimistically down; on_conn_connect flips them up.
    router_.set_up(static_cast<std::uint32_t>(i), false);
  }

  Reactor::Callbacks callbacks;
  callbacks.on_message = [this](ConnId conn, Message&& message) {
    handle(conn, std::move(message));
  };
  callbacks.on_close = [this](ConnId conn) { on_conn_close(conn); };
  callbacks.on_connect = [this](ConnId conn, bool ok) {
    on_conn_connect(conn, ok);
  };
  loop_->set_callbacks(std::move(callbacks));
  // Flush queued GET dispatches right before the reactor's gathered write.
  loop_->set_before_flush([this] { flush_member_queues(); });

  requests_ = &registry_.counter("router.requests");
  forwarded_ = &registry_.counter("router.forwarded");
  redirects_ = &registry_.counter("router.redirects_followed");
  retries_ = &registry_.counter("router.retries");
  failures_ = &registry_.counter("router.failures");
  attempts_ = &registry_.counter("router.attempts_total");
  batch_frames_ = &registry_.counter("router.batch_frames");
  batch_keys_ = &registry_.counter("router.batch_keys");
  scrapes_ = &registry_.counter("router.scrapes");
  member_dispatches_.resize(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    member_dispatches_[i] =
        &registry_.counter("router.dispatches.fe" + std::to_string(i));
  }
  request_us_ = &registry_.timer("router.request_us");
  // Registered for scrapers that read it; nothing records into it yet.
  registry_.timer("router.fe_rtt_us");
  loop_->set_metrics(&registry_);

  if (!loop_->listen(config_.address, config_.port)) return false;
  if (config_.metrics_port >= 0) {
    metrics_http_ = std::make_unique<obs::MetricsHttpServer>(
        [this] { return metrics_snapshot(); });
    if (!metrics_http_->start(
            static_cast<std::uint16_t>(config_.metrics_port))) {
      SCP_LOG_ERROR << "scp_router: failed to bind metrics port "
                    << config_.metrics_port;
      return false;
    }
  }

  for (std::uint32_t member = 0; member < members_.size(); ++member) {
    MemberState& fe = members_[member];
    fe.conn = loop_->connect(fe.address, fe.port);
    member_by_conn_[fe.conn] = member;
  }
  loop_->run_after(kSweepIntervalS, [this] { sweep_timeouts(); });
  loop_->run_after(config_.scrape_interval_s, [this] { scrape_members(); });

  if (!loop_->start()) return false;
  SCP_LOG_INFO << "scp_router serving on " << config_.address << ":"
               << loop_->port() << " (fleet=" << members_.size()
               << " scrape=" << config_.scrape_interval_s << "s)";
  return true;
}

void RouterServer::stop(double drain_s) {
  stopping_.store(true);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(drain_s));
  while (pending_total_.load() > 0 &&
         std::chrono::steady_clock::now() < deadline && loop_->running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  loop_->stop();
  if (metrics_http_ != nullptr) {
    metrics_http_->stop();
  }
}

std::uint16_t RouterServer::port() const noexcept { return loop_->port(); }

bool RouterServer::running() const noexcept { return loop_->running(); }

bool RouterServer::wait_frontends_up(double timeout_s) const {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (frontends_up_.load(std::memory_order_relaxed) < members_.size()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return true;
}

ServerStats RouterServer::stats() const {
  ServerStats stats;
  if (requests_ == nullptr) return stats;  // before start()
  stats.requests = requests_->value();
  stats.forwarded = forwarded_->value();
  stats.redirects = redirects_->value();
  stats.retries = retries_->value();
  stats.failures = failures_->value();
  stats.attempts = attempts_->value();
  return stats;
}

obs::MetricsSnapshot RouterServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  snap.gauges["router.scrape_ms"] =
      static_cast<std::int64_t>(config_.scrape_interval_s * 1000.0);
  snap.gauges["router.frontends_up"] = static_cast<std::int64_t>(
      frontends_up_.load(std::memory_order_relaxed));
  snap.gauges["router.fleet_size"] =
      static_cast<std::int64_t>(members_.size());
  snap.gauges["router.pending_requests"] = static_cast<std::int64_t>(
      pending_total_.load(std::memory_order_relaxed));
  loop_->counters().export_to(snap);
  return snap;
}

std::uint16_t RouterServer::metrics_http_port() const noexcept {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

void RouterServer::handle(ConnId conn, Message&& message) {
  auto it = member_by_conn_.find(conn);
  if (it != member_by_conn_.end()) {
    handle_member(it->second, std::move(message));
  } else {
    handle_client(conn, std::move(message));
  }
}

void RouterServer::handle_client(ConnId conn, Message&& message) {
  switch (message.type) {
    case MsgType::kGet:
      requests_->inc();
      dispatch({conn, message.id}, message.key, /*hops=*/0, obs::now_ns());
      return;
    case MsgType::kPut:
    case MsgType::kDelete:
    case MsgType::kQuorumGet: {
      // Writes and quorum reads route like GETs; the fleet member either
      // serves them (invalidating its cache slice on the way) or answers
      // kRedirect toward the owner, which handle_member replays with the
      // same op and payload.
      requests_->inc();
      dispatch({conn, message.id}, message.key, /*hops=*/0, obs::now_ns(),
               message.type, message.payload);
      return;
    }
    case MsgType::kMetricsRequest: {
      Message reply;
      reply.type = MsgType::kMetricsReply;
      reply.metrics = metrics_snapshot();
      send_reply(*loop_, {conn, message.id}, reply);
      return;
    }
    case MsgType::kPing: {
      Message reply;
      reply.type = MsgType::kPong;
      send_reply(*loop_, {conn, message.id}, reply);
      return;
    }
    default: {
      Message reply;
      reply.type = MsgType::kError;
      reply.key = message.key;
      reply.payload = "unexpected message type";
      send_reply(*loop_, {conn, message.id}, reply);
      return;
    }
  }
}

void RouterServer::handle_member(std::uint32_t member, Message&& message) {
  MemberState& fe = members_[member];
  if (message.type == MsgType::kMetricsReply) {
    // Scrape result: refresh this member's load base — its own request
    // counter plus whatever it still has in flight toward the backends.
    std::uint64_t load = 0;
    auto counter = message.metrics.counters.find("frontend.requests");
    if (counter != message.metrics.counters.end()) load = counter->second;
    auto gauge = message.metrics.gauges.find("frontend.pending_requests");
    if (gauge != message.metrics.gauges.end() && gauge->second > 0) {
      load += static_cast<std::uint64_t>(gauge->second);
    }
    router_.set_scraped_load(member, load);
    return;
  }
  const PendingRequest* sent = fe.pending.find(message.id);
  if (sent == nullptr || sent->key != message.key) {
    SCP_LOG_WARN << "scp_router: unmatched reply from fe " << member
                 << "; resetting connection";
    loop_->close_connection(fe.conn);
    return;
  }
  const PendingRequest request = *fe.pending.take(message.id);
  pending_total_.fetch_sub(1, std::memory_order_relaxed);
  router_.on_complete(member);

  if (message.type == MsgType::kRedirect) {
    // A cached key landed on the non-owner: follow the hop to the owner
    // (message.node is a *fleet index*). Transparent to the client.
    redirects_->inc();
    const std::uint32_t owner = static_cast<std::uint32_t>(message.node);
    if (owner < members_.size() && request.hops < config_.max_hops &&
        dispatch_to(owner, request.client, request.key, request.hops,
                    request.start_ns, request.op, request.payload)) {
      return;
    }
    // Owner down or hop budget spent: let the surviving candidate serve
    // the forward path instead of failing outright.
    if (request.hops < config_.max_hops) {
      dispatch(request.client, request.key, request.hops, request.start_ns,
               request.op, request.payload);
    } else {
      fail_request(request.client, request.key);
    }
    return;
  }

  // kValue / kMiss / kError relay verbatim; the client sees exactly what
  // the fleet member answered. An error still counts as a failure (not a
  // forward) so requests == forwarded + failures holds at the router too.
  (message.type == MsgType::kError ? failures_ : forwarded_)->inc();
  obs::record_elapsed(request_us_, request.start_ns, /*divisor=*/1'000);
  send_reply(*loop_, request.client, message);
}

void RouterServer::on_conn_close(ConnId conn) {
  auto it = member_by_conn_.find(conn);
  if (it == member_by_conn_.end()) {
    return;  // client hung up; replies fail at send()
  }
  const std::uint32_t member = it->second;
  member_by_conn_.erase(it);
  MemberState& fe = members_[member];
  if (fe.up) {
    fe.up = false;
    frontends_up_.fetch_sub(1, std::memory_order_relaxed);
  }
  fe.conn = kInvalidConn;
  router_.set_up(member, false);

  for (const PendingRequest& request : fe.pending.drain()) {
    pending_total_.fetch_sub(1, std::memory_order_relaxed);
    router_.on_complete(member);
    // Re-dispatch to whichever candidate is still live (the dead member is
    // marked down, so pick() routes around it).
    if (request.hops < config_.max_hops) {
      dispatch(request.client, request.key, request.hops, request.start_ns,
               request.op, request.payload);
    } else {
      fail_request(request.client, request.key);
    }
  }
  // Queued dispatches never hit the wire: unwind the queue-time accounting
  // and route them again without burning a hop.
  std::vector<PendingRequest> queued;
  queued.swap(fe.queued);
  for (const PendingRequest& q : queued) {
    pending_total_.fetch_sub(1, std::memory_order_relaxed);
    router_.on_complete(member);
    dispatch(q.client, q.key, q.hops, q.start_ns);
  }
  schedule_reconnect(member);
}

void RouterServer::on_conn_connect(ConnId conn, bool ok) {
  auto it = member_by_conn_.find(conn);
  if (it == member_by_conn_.end()) return;
  const std::uint32_t member = it->second;
  MemberState& fe = members_[member];
  if (ok) {
    fe.up = true;
    fe.connect_attempts = 0;
    frontends_up_.fetch_add(1, std::memory_order_relaxed);
    router_.set_up(member, true);
    return;
  }
  member_by_conn_.erase(it);
  fe.conn = kInvalidConn;
  schedule_reconnect(member);
}

void RouterServer::schedule_reconnect(std::uint32_t member) {
  if (stopping_.load()) return;
  MemberState& fe = members_[member];
  const double delay = reconnect_delay_s(fe.connect_attempts++);
  loop_->run_after(delay, [this, member] {
    if (stopping_.load()) return;
    MemberState& target = members_[member];
    if (target.conn != kInvalidConn) return;  // already reconnecting
    target.conn = loop_->connect(target.address, target.port);
    member_by_conn_[target.conn] = member;
  });
}

bool RouterServer::dispatch_to(std::uint32_t member, ReplyTo client,
                               std::uint64_t key, std::uint32_t hops,
                               std::uint64_t start_ns, MsgType op,
                               const std::string& payload) {
  MemberState& fe = members_[member];
  if (!fe.up) return false;
  if (op == MsgType::kGet) {
    // Batched dispatch: GETs for this member accumulate and flush as one
    // kBatchGet at the reactor's before-flush hook (sooner if the queue
    // fills). The load delta is counted now so power-of-two-choices sees
    // same-wakeup dispatches; the wire send, pending entry (which mints
    // the request id) and attempt counters happen at flush.
    fe.queued.push_back(
        {.client = client, .key = key, .hops = hops, .start_ns = start_ns});
    pending_total_.fetch_add(1, std::memory_order_relaxed);
    router_.on_dispatch(member);
    if (fe.queued.size() >= kBatchFlushKeys) {
      flush_member_queue(member);
    }
    return true;
  }
  Message request;
  request.type = op;
  request.id = fe.pending.next_id();
  request.key = key;
  if (op == MsgType::kPut) request.payload = payload;
  if (!loop_->send(fe.conn, request)) return false;
  attempts_->inc();
  if (hops > 0) retries_->inc();
  router_.on_dispatch(member);
  member_dispatches_[member]->inc();

  PendingRequest pending;
  pending.client = client;
  pending.key = key;
  pending.op = op;
  if (op == MsgType::kPut) pending.payload = payload;
  pending.hops = hops + 1;
  pending.start_ns = start_ns;
  pending.deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.timeout_s));
  fe.pending.add(std::move(pending));
  pending_total_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RouterServer::flush_member_queues() {
  for (std::uint32_t member = 0;
       member < static_cast<std::uint32_t>(members_.size()); ++member) {
    if (!members_[member].queued.empty()) flush_member_queue(member);
  }
}

void RouterServer::flush_member_queue(std::uint32_t member) {
  MemberState& fe = members_[member];
  if (fe.queued.empty()) return;
  std::vector<PendingRequest> queued;
  queued.swap(fe.queued);

  const auto redispatch_all = [&] {
    // The wire send never happened: unwind the queue-time accounting and
    // route each dispatch again (the dead member is marked down, so pick()
    // goes around it; dispatch re-counts pending_total_ on its way in).
    for (const PendingRequest& q : queued) {
      pending_total_.fetch_sub(1, std::memory_order_relaxed);
      router_.on_complete(member);
      dispatch(q.client, q.key, q.hops, q.start_ns);
    }
  };
  if (!fe.up) {
    redispatch_all();
    return;
  }

  bool sent = false;
  if (queued.size() == 1) {
    // A batch of one gains nothing over the plain frame; keep the wire
    // identical to the unbatched path.
    Message request;
    request.type = MsgType::kGet;
    request.id = fe.pending.next_id();
    request.key = queued.front().key;
    sent = loop_->send(fe.conn, request);
  } else {
    Message request;
    request.type = MsgType::kBatchGet;
    request.id = fe.pending.next_id();
    request.batch_keys.reserve(queued.size());
    for (const PendingRequest& q : queued) {
      request.batch_keys.push_back(q.key);
    }
    sent = loop_->send(fe.conn, request);
    if (sent) {
      batch_frames_->inc();
      batch_keys_->inc(queued.size());
    }
  }
  if (!sent) {
    redispatch_all();
    return;
  }

  // One wire send for the whole queue; the ledger stays per key (the fleet
  // member answers each with its own frame and counts them individually).
  // Adding the entries in queue order gives key i the frame's id + i.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(config_.timeout_s));
  for (PendingRequest& pending : queued) {
    attempts_->inc();
    if (pending.hops > 0) retries_->inc();
    member_dispatches_[member]->inc();
    ++pending.hops;
    pending.deadline = deadline;
    // pending_total_ and router_.on_dispatch were counted at queue time.
    fe.pending.add(std::move(pending));
  }
}

void RouterServer::dispatch(ReplyTo client, std::uint64_t key,
                            std::uint32_t hops, std::uint64_t start_ns,
                            MsgType op, const std::string& payload) {
  if (hops >= config_.max_hops) {
    fail_request(client, key);
    return;
  }
  const std::uint32_t member = router_.pick(key, rng_);
  if (member != kNoFleetMember &&
      dispatch_to(member, client, key, hops, start_ns, op, payload)) {
    return;
  }
  // pick() chose a member whose send failed, or nothing is live: try the
  // remaining candidate once before giving up.
  const FleetCandidates candidates = router_.candidates_of(key);
  const std::uint32_t other =
      member == candidates.owner ? candidates.alternate : candidates.owner;
  if (other != member && router_.up(other) &&
      dispatch_to(other, client, key, hops, start_ns, op, payload)) {
    return;
  }
  fail_request(client, key);
}

void RouterServer::fail_request(ReplyTo client, std::uint64_t key) {
  failures_->inc();
  Message reply;
  reply.type = MsgType::kError;
  reply.key = key;
  reply.payload = "no live front end";
  send_reply(*loop_, client, reply);
}

void RouterServer::scrape_members() {
  if (stopping_.load()) return;
  scrapes_->inc();
  Message probe;
  probe.type = MsgType::kMetricsRequest;
  for (const MemberState& fe : members_) {
    if (fe.up) loop_->send(fe.conn, probe);
  }
  loop_->run_after(config_.scrape_interval_s, [this] { scrape_members(); });
}

void RouterServer::sweep_timeouts() {
  if (stopping_.load()) return;
  const auto now = std::chrono::steady_clock::now();
  for (MemberState& fe : members_) {
    const PendingRequest* oldest = fe.pending.oldest();
    if (fe.conn != kInvalidConn && oldest != nullptr &&
        oldest->deadline <= now) {
      // The oldest request outlived its deadline: reset the connection;
      // on_conn_close re-dispatches everything it carried.
      loop_->close_connection(fe.conn);
    }
  }
  loop_->run_after(kSweepIntervalS, [this] { sweep_timeouts(); });
}

}  // namespace scp::net
