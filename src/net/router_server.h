// scp_router: the edge of a distributed front-end fleet.
//
// Clients speak the ordinary wire protocol to the router; the router owns
// one connection per fleet member and dispatches every GET to one of the
// key's two candidate front ends (src/net/fleet.h) by power-of-two-choices
// on a live load signal: each member's own request counter scraped through
// the existing src/obs metrics path (kMetricsRequest over the same
// connection, on a periodic timer) plus the router's locally tracked
// in-flight delta since that scrape. Replies are relayed back verbatim;
// when a non-owning member answers kRedirect with the owner's fleet index
// (a cached key landed on the wrong member), the router follows the hop
// transparently — the client never sees a REDIRECT.
//
// Request/reply matching is by request id on every fleet-member connection
// (inflight.h): a member answers hits and redirects at once but forwards
// only when its backend responds, so replies overtake one another, and a
// GET and a PUT in flight for one key are told apart by id alone. Scrape
// replies (kMetricsReply) are dispatched by type; an unknown id or a key
// mismatch resets the connection. Relayed replies carry the client's own
// id. A member connection dying re-dispatches its in-flight requests to the
// surviving candidate (or fails them after the hop budget).
//
// GET dispatches for one member queue during a reactor wakeup and leave as
// one kBatchGet at the before-flush hook (sooner at kBatchFlushKeys keys);
// with batch id b the member answers key i with its own reply frame
// carrying id b+i. A queue of one leaves as a plain kGet; writes and quorum
// reads dispatch unbatched. Counters live only in the router's metrics
// registry; stats() and metrics_snapshot() read them back.
//
// The router is deliberately stateless beyond the fleet seed and endpoint
// list — any number of router replicas can front the same fleet, so the
// edge itself is not a new single point of failure.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "net/fleet.h"
#include "net/inflight.h"
#include "net/reactor.h"
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
  std::uint64_t seed = 1;  ///< power-of-two tie-breaks
  /// Cadence of the per-member obs scrape feeding the load signal.
  double scrape_interval_s = 0.050;
  /// Dispatch budget per request: the initial send plus redirect follows
  /// and dead-member re-dispatches.
  std::uint32_t max_hops = 3;
  /// Per-request deadline before the member connection is reset.
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
  /// A dispatched request: sent and pending by id, or a GET queued for the
  /// wakeup's batch flush. The member's load delta
  /// (router_.on_dispatch) is counted at queue time so power-of-two-choices
  /// sees same-wakeup dispatches; the flush sends the batch, counts the
  /// hop and attempt, and makes each entry pending, so a batch's keys get
  /// consecutive ids.
  struct PendingRequest {
    ReplyTo client;
    std::uint64_t key = 0;
    /// Dispatched op: kGet, kQuorumGet, kPut or kDelete (writes redirect to
    /// the fleet owner exactly like cached reads, so both need replaying).
    MsgType op = MsgType::kGet;
    std::string payload{};  ///< kPut only: the value (kept for re-dispatch)
    std::chrono::steady_clock::time_point deadline{};
    /// Dispatches so far (a sent one included; a queued one not yet).
    std::uint32_t hops = 0;
    std::uint64_t start_ns = 0;  ///< client kGet arrival
  };

  struct MemberState {
    std::string address;
    std::uint16_t port = 0;
    ConnId conn = kInvalidConn;
    bool up = false;
    std::uint32_t connect_attempts = 0;
    InflightTable<PendingRequest> pending;  ///< sent, by request id
    std::vector<PendingRequest> queued;     ///< GETs awaiting batch flush
  };

  void handle(ConnId conn, Message&& message);
  void handle_client(ConnId conn, Message&& message);
  void handle_member(std::uint32_t member, Message&& message);
  void on_conn_close(ConnId conn);
  void on_conn_connect(ConnId conn, bool ok);

  /// Sends `key` to `member`, recording the pending entry. False when the
  /// connection is down or the send fails (nothing recorded).
  bool dispatch_to(std::uint32_t member, ReplyTo client, std::uint64_t key,
                   std::uint32_t hops, std::uint64_t start_ns,
                   MsgType op = MsgType::kGet, const std::string& payload = {});
  /// Routes by power-of-two-choices and dispatches; fails the request when
  /// no candidate is live or the hop budget is spent.
  void dispatch(ReplyTo client, std::uint64_t key, std::uint32_t hops,
                std::uint64_t start_ns, MsgType op = MsgType::kGet,
                const std::string& payload = {});
  void fail_request(ReplyTo client, std::uint64_t key);
  /// Reactor before-flush hook: sends every member's queued GET dispatches
  /// (one kBatchGet each, plain kGet for a queue of one) so the batch frames
  /// ride the wakeup's gathered write.
  void flush_member_queues();
  void flush_member_queue(std::uint32_t member);
  void schedule_reconnect(std::uint32_t member);
  void scrape_members();
  void sweep_timeouts();

  RouterConfig config_;
  std::unique_ptr<Reactor> loop_;
  FleetRouter router_;
  Rng rng_;

  std::vector<MemberState> members_;
  std::unordered_map<ConnId, std::uint32_t> member_by_conn_;

  std::atomic<std::uint32_t> frontends_up_{0};
  std::atomic<std::uint64_t> pending_total_{0};
  std::atomic<bool> stopping_{false};

  obs::MetricsRegistry registry_;
  // Handles into `registry_`, taken in start().
  obs::Counter* requests_ = nullptr;
  obs::Counter* forwarded_ = nullptr;
  obs::Counter* redirects_ = nullptr;
  obs::Counter* retries_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* attempts_ = nullptr;
  /// kBatchGet frames dispatched and the keys they carried.
  obs::Counter* batch_frames_ = nullptr;
  obs::Counter* batch_keys_ = nullptr;
  obs::Counter* scrapes_ = nullptr;  ///< load-signal scrape rounds
  std::vector<obs::Counter*> member_dispatches_;  ///< per fleet index
  obs::Timer* request_us_ = nullptr;

  std::unique_ptr<obs::MetricsHttpServer> metrics_http_;
};

}  // namespace scp::net
