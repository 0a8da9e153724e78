// Upstream: one reactor's links to other servers, and the only code that
// knows how a request sent on a link is matched, timed out and handed back
// when its link drops.
//
// Three owners hold one each: a front-end shard for its backends, the
// router for its fleet members, and a backend shard for its replica peers.
// The owner decides where a request goes and what to do with the answer;
// the module does the rest:
//
//   * Links. Link i dials its endpoint; a failed dial or a closed link is
//     re-dialed after reconnect_delay_s(). Endpoints are given at
//     construction or set at runtime (set_endpoint), and retire() closes a
//     link for good. A link without an endpoint stays idle, and a module
//     with no endpoint at all arms nothing on its loop. up() tracks each
//     link, and up_count() is readable from any thread.
//   * Sending. A GET is queued per link and leaves at the reactor's
//     before-flush hook, so it rides the wakeup's gathered write (sooner
//     once kBatchFlushKeys are queued). A queue of one leaves as a plain
//     kGet; a larger one as one kBatchGet with id b, whose key i is request
//     b+i. Any other op is sent at once under a fresh id. Every key sent
//     stamps sent_ns and the deadline and counts one attempt (a retry when
//     it had been sent before); a kBatchGet counts one batch frame.
//   * Deferring. A send marked deferrable waits in a per-link queue of at
//     most kMaxDeferred while its link is down and leaves, in order, when
//     the link comes up. Any other send to a down link fails at once.
//   * Matching. A reply is matched by id and key (inflight.h), in whatever
//     order the peer answers. A kBatchReply is checked as a whole before any
//     item is settled. Any mismatch resets the link.
//   * Deadlines. A sweep resets a link whose oldest request is past its
//     deadline and that has answered nothing for the timeout either, so a
//     peer that stays connected but stops answering is re-dialed, while one
//     still working through a long burst is left to finish it. Every reset
//     is logged with its reason and counted.
//   * Hand-back. When a link closes, or a queued flush cannot be sent,
//     every request it held goes back to the owner, which learns whether it
//     had reached the wire.
//
// Loop-thread only, apart from up_count() and in_flight().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/inflight.h"
#include "net/reactor.h"
#include "obs/metrics.h"

namespace scp::net {

/// GETs queued for one link before they leave as a kBatchGet early, ahead
/// of the wakeup's before-flush hook.
inline constexpr std::uint32_t kBatchFlushKeys = 64;
static_assert(kBatchFlushKeys <= kMaxBatchEntries);

/// Deferrable sends one link holds while it is down. A backend peer that
/// stays down longer than this buffer's worth is healed later by
/// read-repair instead.
inline constexpr std::size_t kMaxDeferred = 65536;

/// A request on a link: queued for its link's batch or for the link to
/// come up, or sent and awaiting its reply.
struct Forward {
  ReplyTo client{};
  std::uint64_t key = 0;
  /// The frame type sent: kGet, kQuorumGet, kPut or kDelete from a front
  /// end or the router; kReplicate, kVerRead or kPing from a backend.
  MsgType op = MsgType::kGet;
  std::uint8_t flags = 0;      ///< kReplicate: kFlag* bits
  std::uint32_t attempts = 0;  ///< sends before this one
  std::uint64_t version = 0;   ///< kReplicate: the version applied
  /// kPut and kReplicate: the value (kept for re-sends).
  std::string payload{};
  /// A backend's coordinated op this frame counts toward; 0 = none.
  std::uint64_t quorum_op = 0;
  std::uint64_t start_ns = 0;  ///< client request arrival
  std::uint64_t sent_ns = 0;   ///< this send, stamped by the module
  std::chrono::steady_clock::time_point deadline{};
};

class Upstream {
 public:
  /// Counter handles the owner registers; the module bumps the ones set.
  struct Counters {
    obs::Counter* attempts = nullptr;      ///< keys sent
    obs::Counter* retries = nullptr;       ///< keys sent with attempts > 0
    obs::Counter* batch_frames = nullptr;  ///< kBatchGet frames sent
    obs::Counter* batch_keys = nullptr;    ///< keys those frames carried
    obs::Counter* resets = nullptr;        ///< links the module reset
  };

  /// The owner's policy, called on the loop thread. Only on_reply and
  /// on_dropped are required.
  struct Hooks {
    /// `link` connected.
    std::function<void(std::uint32_t link)> on_up;
    /// One key reached `link`'s wire (once per key of a kBatchGet).
    std::function<void(std::uint32_t link)> on_sent;
    /// `reply` answered `request`; a kBatchReply item arrives as a reply
    /// frame of its own.
    std::function<void(std::uint32_t link, Forward&& request,
                       Message&& reply)>
        on_reply;
    /// `request` will get no reply on `link`: the link closed, or the flush
    /// of its queue could not be sent. `sent` says whether it was sent.
    std::function<void(std::uint32_t link, Forward&& request, bool sent)>
        on_dropped;
  };

  static constexpr std::uint32_t kNoLink = UINT32_MAX;

  /// Link i dials `endpoints[i]`; an empty host leaves it idle.
  /// `timeout_s` is each sent request's deadline. Once `stopping` is set no
  /// link is re-dialed and the sweep stops.
  Upstream(Reactor& loop,
           const std::vector<std::pair<std::string, std::uint16_t>>& endpoints,
           double timeout_s, const std::atomic<bool>& stopping);
  Upstream(const Upstream&) = delete;
  Upstream& operator=(const Upstream&) = delete;

  /// Dials every link that has an endpoint. Call once, before the loop
  /// starts. The first endpoint, here or in set_endpoint(), arms the
  /// deadline sweep and takes the loop's before-flush hook.
  void start(Counters counters, Hooks hooks);

  /// Points `link` at address:port, adding links up to it, and dials it
  /// unless it has a connection (a connected link moves on its next dial).
  void set_endpoint(std::uint32_t link, std::string address,
                    std::uint16_t port);

  /// Closes `link` for good: it is never re-dialed, and its deferred sends
  /// are handed back unsent, until set_endpoint() names it again.
  void retire(std::uint32_t link);

  /// Logs `why`, counts the reset and closes `link`, which hands back what
  /// it carried and re-dials. The module resets a link on a reply mismatch
  /// and at the deadline; an owner, when its own reply check fails.
  void reset(std::uint32_t link, const char* why);

  /// Reactor callbacks; connections that are not links are ignored.
  void on_connect(ConnId conn, bool ok);
  void on_close(ConnId conn);

  /// The link `conn` belongs to, or kNoLink.
  std::uint32_t link_of(ConnId conn) const {
    auto it = by_conn_.find(conn);
    return it == by_conn_.end() ? kNoLink : it->second;
  }

  /// Matches a reply that arrived on `link` and hands it to on_reply.
  void on_reply(std::uint32_t link, Message&& reply);

  /// Takes `request` for `link`: a GET is queued, anything else is sent now.
  /// While the link is down a `deferrable` request waits for it, if the
  /// link has an endpoint and its queue has room. False when the request
  /// was neither sent nor kept.
  bool send(std::uint32_t link, Forward request, bool deferrable = false);

  /// Sends a frame that no reply is matched to (a subscription, a report).
  /// False when the link is down.
  bool send_unmatched(std::uint32_t link, const Message& message);

  std::uint32_t size() const noexcept {
    return static_cast<std::uint32_t>(links_.size());
  }
  bool up(std::uint32_t link) const { return links_[link].up; }
  std::uint32_t up_count() const noexcept {
    return up_count_.load(std::memory_order_relaxed);
  }
  /// Requests queued or sent and not yet answered or handed back.
  std::uint64_t in_flight() const noexcept {
    return in_flight_.load(std::memory_order_relaxed);
  }
  /// Connection ids currently mapped to a link (at most one per link).
  std::size_t conn_entries() const noexcept { return by_conn_.size(); }

 private:
  struct Link {
    std::string address;
    std::uint16_t port = 0;
    ConnId conn = kInvalidConn;
    bool up = false;
    std::uint32_t connect_failures = 0;
    InflightTable<Forward> pending;  ///< sent, by request id
    std::vector<Forward> queued;     ///< GETs awaiting the flush
    std::vector<Forward> deferred;   ///< sends awaiting the link
    std::uint64_t replies = 0;       ///< reply frames received
    /// `replies` as the sweep last saw it, and when the sweep last saw it
    /// grow: the link's latest sign of life, to a sweep period.
    std::uint64_t replies_swept = 0;
    std::chrono::steady_clock::time_point answered{};
  };

  /// Sweeps and flushes from the first endpoint on; idempotent.
  void arm();
  void dial(std::uint32_t link);
  void redial_later(std::uint32_t link);
  /// Sends `link`'s queued GETs as one frame.
  void flush(std::uint32_t link);
  /// Sends a non-GET `request` now; it is consumed only on success.
  bool transmit(std::uint32_t link, Forward& request);
  /// Counts one key sent, stamps it and makes it pending.
  void add_pending(std::uint32_t link, Forward&& request, std::uint64_t sent_ns,
                   std::chrono::steady_clock::time_point deadline);
  void hand_back(std::uint32_t link, Forward&& request, bool sent);
  /// Hands back `link`'s deferred sends, unsent.
  void drop_deferred(std::uint32_t link);
  void sweep();

  Reactor& loop_;
  const std::atomic<bool>& stopping_;
  const std::chrono::steady_clock::duration timeout_;
  bool armed_ = false;
  Counters counters_;
  Hooks hooks_;
  std::vector<Link> links_;
  std::unordered_map<ConnId, std::uint32_t> by_conn_;
  std::atomic<std::uint32_t> up_count_{0};
  std::atomic<std::uint64_t> in_flight_{0};
};

}  // namespace scp::net
