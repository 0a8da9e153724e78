// scp_router: the edge of a distributed front-end fleet.
//
// Clients speak the ordinary wire protocol to the router; the router owns
// one connection per fleet member and sends every request to its key's
// cache owner (src/net/fleet.h), or to the key's alternate while the
// owner's link is down. Routing reads only the key, the fleet seed and
// link state. Replies are relayed back verbatim. A member that does not
// own a cached key answers kRedirect with the owner's fleet index (the
// alternate during the owner's outage, or any member when the router's
// fleet seed disagrees with the members'): the router follows the hop to
// an owner whose link is up, within the hop budget, and fails the request
// at once when the owner's link is down. The client never sees a
// REDIRECT.
//
// The router's Upstream (upstream.h) owns the member connections: it
// dials them, batches GET dispatches into kBatchGet frames (a member
// answers key i of batch b with its own frame carrying id b+i), matches
// replies by request id, enforces the deadline and hands back the requests
// of a dropped connection, which the router re-dispatches to the alternate
// (or fails after the hop budget). Relayed replies carry the client's own
// id. Counters live only in the router's metrics registry; stats() and
// metrics_snapshot() read them back.
//
// The router is deliberately stateless beyond the fleet seed and endpoint
// list — any number of router replicas can front the same fleet, so the
// edge itself is not a new single point of failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/fleet.h"
#include "net/reactor.h"
#include "net/upstream.h"
#include "obs/exposition.h"
#include "obs/metrics.h"

namespace scp::net {

struct RouterConfig {
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned
  /// Fleet member endpoints, indexed by fleet index — the order must match
  /// each member's --fleet-index or redirects bounce forever.
  std::vector<std::pair<std::string, std::uint16_t>> frontends;
  /// Must match every member's fleet seed (the key -> owner mapping).
  std::uint64_t fleet_seed = 0;
  /// Not read: routing depends only on the key, the fleet seed and link
  /// state. Kept because bench/e2e/layers.cpp still sets it.
  std::uint64_t seed = 1;
  /// Dispatch budget per request: the initial send plus redirect follows
  /// and dead-member re-dispatches.
  std::uint32_t max_hops = 3;
  /// Per-request deadline: a member that owes a reply past it and has
  /// answered nothing for as long has its connection reset.
  double timeout_s = 0.500;
  /// Prometheus endpoint: -1 = none, 0 = kernel-assigned, else fixed port.
  std::int32_t metrics_port = -1;
};

class RouterServer {
 public:
  explicit RouterServer(RouterConfig config);
  ~RouterServer();

  /// Binds, queues fleet-member connections and starts the loop. False on a
  /// bind failure or an empty fleet.
  bool start();
  /// Graceful stop: waits for in-flight dispatches (up to drain_s), then
  /// drains queued replies.
  void stop(double drain_s = 1.0);

  std::uint16_t port() const noexcept;
  bool running() const noexcept;

  /// Blocks until every fleet-member connection is up (true) or the timeout
  /// expires (false). Call after start().
  bool wait_frontends_up(double timeout_s) const;

  /// Counter snapshot (thread-safe). Field mapping for the router role:
  /// requests = client GETs, forwarded = kValue/kMiss replies relayed,
  /// redirects = redirect hops followed, retries = dispatches beyond a
  /// request's first, attempts = total member sends, failures = kError
  /// replies to clients (relayed or router-generated). Once every reply has
  /// landed, requests == forwarded + failures.
  ServerStats stats() const;

  /// Registry snapshot plus the loop counters and the gauges computed at
  /// scrape time (thread-safe).
  obs::MetricsSnapshot metrics_snapshot() const;

  /// Bound Prometheus endpoint port, or 0 when config.metrics_port == -1.
  std::uint16_t metrics_http_port() const noexcept;

 private:
  void handle(ConnId conn, Message&& message);
  void handle_client(ConnId conn, Message&& message);
  /// A member answered `request`: relay the verdict or follow a redirect.
  void handle_member(Forward&& request, Message&& reply);

  /// Hands `key` to `member`'s link (`hops` dispatches already made).
  /// False when the link is down or the send fails (nothing recorded).
  bool dispatch_to(std::uint32_t member, ReplyTo client, std::uint64_t key,
                   std::uint32_t hops, std::uint64_t start_ns,
                   MsgType op = MsgType::kGet, const std::string& payload = {});
  /// Sends to the key's owner, or its alternate while the owner's link is
  /// down; fails the request when neither link is up or the hop budget is
  /// spent.
  void dispatch(ReplyTo client, std::uint64_t key, std::uint32_t hops,
                std::uint64_t start_ns, MsgType op = MsgType::kGet,
                const std::string& payload = {});
  void fail_request(ReplyTo client, std::uint64_t key);

  RouterConfig config_;
  std::atomic<bool> stopping_{false};
  std::unique_ptr<Reactor> loop_;
  Upstream upstream_;  ///< one link per fleet member

  obs::MetricsRegistry registry_;
  // Handles into `registry_`, taken in start().
  obs::Counter* requests_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* redirects_ = nullptr;
  obs::Counter* failures_ = nullptr;
  Upstream::Counters sends_;  ///< bumped by the upstream
  std::vector<obs::Counter*> member_dispatches_;  ///< per fleet index
  obs::Timer* request_us_ = nullptr;
  obs::Timer* fe_rtt_us_ = nullptr;  ///< dispatch to matched member reply

  std::unique_ptr<obs::MetricsHttpServer> metrics_http_;
};

}  // namespace scp::net
