#include "net/router_server.h"

#include <chrono>
#include <thread>

#include "common/log.h"
#include "net/frame_loop.h"

namespace scp::net {

RouterServer::RouterServer(RouterConfig config)
    : config_(std::move(config)),
      loop_(std::make_unique<FrameLoop>()),
      upstream_(*loop_, config_.frontends, config_.timeout_s, stopping_) {}

RouterServer::~RouterServer() { stop(0.0); }

bool RouterServer::start() {
  if (config_.frontends.empty()) {
    SCP_LOG_ERROR << "scp_router: no fleet members configured";
    return false;
  }

  Reactor::Callbacks callbacks;
  callbacks.on_message = [this](ConnId conn, Message&& message) {
    handle(conn, std::move(message));
  };
  callbacks.on_close = [this](ConnId conn) { upstream_.on_close(conn); };
  callbacks.on_connect = [this](ConnId conn, bool ok) {
    upstream_.on_connect(conn, ok);
  };
  loop_->set_callbacks(std::move(callbacks));

  requests_ = &registry_.counter("router.requests");
  forwarded_ = &registry_.counter("router.forwarded");
  redirects_ = &registry_.counter("router.redirects_followed");
  sends_.retries = &registry_.counter("router.retries");
  failures_ = &registry_.counter("router.failures");
  sends_.attempts = &registry_.counter("router.attempts_total");
  sends_.batch_frames = &registry_.counter("router.batch_frames");
  sends_.batch_keys = &registry_.counter("router.batch_keys");
  sends_.resets = &registry_.counter("router.link_resets");
  member_dispatches_.resize(upstream_.size());
  for (std::uint32_t member = 0; member < upstream_.size(); ++member) {
    member_dispatches_[member] =
        &registry_.counter("router.dispatches.fe" + std::to_string(member));
  }
  request_us_ = &registry_.timer("router.request_us");
  fe_rtt_us_ = &registry_.timer("router.fe_rtt_us");
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

  Upstream::Hooks hooks;
  hooks.on_sent = [this](std::uint32_t member) {
    member_dispatches_[member]->inc();
  };
  hooks.on_reply = [this](std::uint32_t, Forward&& request,
                          Message&& reply) {
    handle_member(std::move(request), std::move(reply));
  };
  hooks.on_dropped = [this](std::uint32_t, Forward&& request, bool sent) {
    // Route it again: a closed link is already marked down, so an owner's
    // key goes to its alternate. One that reached the wire spent a hop, and
    // dispatch() fails it once the hop budget is gone.
    dispatch(request.client, request.key, request.attempts + (sent ? 1 : 0),
             request.start_ns, request.op, request.payload);
  };
  upstream_.start(sends_, std::move(hooks));

  if (!loop_->start()) return false;
  SCP_LOG_INFO << "scp_router serving on " << config_.address << ":"
               << loop_->port() << " (fleet=" << upstream_.size() << ")";
  return true;
}

void RouterServer::stop(double drain_s) {
  stopping_.store(true);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(drain_s));
  while (upstream_.in_flight() > 0 &&
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
  while (upstream_.up_count() < upstream_.size()) {
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
  stats.retries = sends_.retries->value();
  stats.failures = failures_->value();
  stats.attempts = sends_.attempts->value();
  return stats;
}

obs::MetricsSnapshot RouterServer::metrics_snapshot() const {
  obs::MetricsSnapshot snap = registry_.snapshot();
  snap.gauges["router.frontends_up"] =
      static_cast<std::int64_t>(upstream_.up_count());
  snap.gauges["router.fleet_size"] =
      static_cast<std::int64_t>(upstream_.size());
  snap.gauges["router.pending_requests"] =
      static_cast<std::int64_t>(upstream_.in_flight());
  loop_->counters().export_to(snap);
  return snap;
}

std::uint16_t RouterServer::metrics_http_port() const noexcept {
  return metrics_http_ != nullptr ? metrics_http_->port() : 0;
}

void RouterServer::handle(ConnId conn, Message&& message) {
  const std::uint32_t member = upstream_.link_of(conn);
  if (member == Upstream::kNoLink) {
    handle_client(conn, std::move(message));
  } else {
    upstream_.on_reply(member, std::move(message));
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

void RouterServer::handle_member(Forward&& request, Message&& reply) {
  obs::record_elapsed(fe_rtt_us_, request.sent_ns, /*divisor=*/1'000);
  const std::uint32_t hops = request.attempts + 1;

  if (reply.type == MsgType::kRedirect) {
    // The member does not own this cached key and names the owner's fleet
    // index. Follow the hop to it, transparently to the client. An owner
    // whose link is down cannot serve the key and no other member may, so
    // the request fails now rather than bouncing off the members still up.
    const std::uint32_t owner = reply.node;
    if (owner < upstream_.size() && upstream_.up(owner) &&
        hops < kMaxHops &&
        dispatch_to(owner, request.client, request.key, hops,
                    request.start_ns, request.op, request.payload)) {
      redirects_->inc();
      return;
    }
    fail_request(request.client, request.key);
    return;
  }

  // kValue / kMiss / kError relay verbatim; the client sees exactly what
  // the fleet member answered. An error still counts as a failure (not a
  // forward) so requests == forwarded + failures holds at the router too.
  (reply.type == MsgType::kError ? failures_ : forwarded_)->inc();
  obs::record_elapsed(request_us_, request.start_ns, /*divisor=*/1'000);
  send_reply(*loop_, request.client, reply);
}

bool RouterServer::dispatch_to(std::uint32_t member, ReplyTo client,
                               std::uint64_t key, std::uint32_t hops,
                               std::uint64_t start_ns, MsgType op,
                               const std::string& payload) {
  Forward request{.client = client, .key = key, .op = op,
                  .attempts = hops, .start_ns = start_ns};
  if (op == MsgType::kPut) request.payload = payload;
  return upstream_.send(member, std::move(request));
}

void RouterServer::dispatch(ReplyTo client, std::uint64_t key,
                            std::uint32_t hops, std::uint64_t start_ns,
                            MsgType op, const std::string& payload) {
  const std::uint32_t member = fleet_route(
      fleet_candidates(key, config_.fleet_seed, upstream_.size()),
      [this](std::uint32_t m) { return upstream_.up(m); });
  if (hops >= kMaxHops || member == kNoFleetMember ||
      !dispatch_to(member, client, key, hops, start_ns, op, payload)) {
    fail_request(client, key);
  }
}

void RouterServer::fail_request(ReplyTo client, std::uint64_t key) {
  failures_->inc();
  Message reply;
  reply.type = MsgType::kError;
  reply.key = key;
  reply.payload = "no live front end";
  send_reply(*loop_, client, reply);
}

}  // namespace scp::net
