#include "net/upstream.h"

#include "common/log.h"

namespace scp::net {
namespace {

/// Deadline sweep cadence. Coarse on purpose: a deadline is enforced within
/// one sweep period, plenty for the default 500 ms budgets.
constexpr double kSweepIntervalS = 0.020;

}  // namespace

Upstream::Upstream(
    Reactor& loop,
    const std::vector<std::pair<std::string, std::uint16_t>>& endpoints,
    double timeout_s, const std::atomic<bool>& stopping)
    : loop_(loop), stopping_(stopping),
      timeout_(std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s))),
      links_(endpoints.size()) {
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    links_[i].address = endpoints[i].first;
    links_[i].port = endpoints[i].second;
  }
}

void Upstream::start(Counters counters, Hooks hooks) {
  counters_ = counters;
  hooks_ = std::move(hooks);
  for (std::uint32_t link = 0; link < size(); ++link) {
    if (!links_[link].address.empty()) dial(link);
  }
}

void Upstream::arm() {
  if (armed_) return;
  armed_ = true;
  loop_.set_before_flush([this] {
    for (std::uint32_t link = 0; link < size(); ++link) {
      if (!links_[link].queued.empty()) flush(link);
    }
  });
}

void Upstream::sweep_soon() {
  if (sweeping_) return;
  sweeping_ = true;
  loop_.run_after(kSweepIntervalS, [this] { sweep(); });
}

void Upstream::set_endpoint(std::uint32_t link, std::string address,
                            std::uint16_t port) {
  if (link >= size()) links_.resize(link + 1);
  Link& l = links_[link];
  l.address = std::move(address);
  l.port = port;
  if (l.conn == kInvalidConn) dial(link);
}

void Upstream::retire(std::uint32_t link) {
  if (link >= size()) return;
  Link& l = links_[link];
  l.address.clear();
  if (l.conn != kInvalidConn) loop_.close_connection(l.conn);
  drop_deferred(link);
}

void Upstream::dial(std::uint32_t link) {
  arm();
  Link& l = links_[link];
  l.conn = loop_.connect(l.address, l.port);
  by_conn_[l.conn] = link;
}

void Upstream::redial_later(std::uint32_t link) {
  if (stopping_.load() || links_[link].address.empty()) return;
  const double delay = reconnect_delay_s(links_[link].connect_failures++);
  loop_.run_after(delay, [this, link] {
    if (stopping_.load()) return;
    const Link& l = links_[link];
    if (l.conn != kInvalidConn || l.address.empty()) return;
    dial(link);
  });
}

void Upstream::on_connect(ConnId conn, bool ok) {
  const std::uint32_t link = link_of(conn);
  if (link == kNoLink) return;
  Link& l = links_[link];
  if (ok) {
    if (l.probing) {
      probe(link);
    } else {
      come_up(link);
    }
    return;
  }
  by_conn_.erase(conn);
  l.conn = kInvalidConn;
  redial_later(link);
}

void Upstream::come_up(std::uint32_t link) {
  Link& l = links_[link];
  l.up = true;
  l.probing = false;
  l.connect_failures = 0;
  up_count_.fetch_add(1, std::memory_order_relaxed);
  if (hooks_.on_up) hooks_.on_up(link);
  // Deferred sends leave in order; any that cannot go back unsent.
  std::vector<Forward> deferred;
  deferred.swap(links_[link].deferred);
  for (Forward& request : deferred) {
    if (!transmit(link, request)) {
      hand_back(link, std::move(request), /*sent=*/false);
    }
  }
}

void Upstream::probe(std::uint32_t link) {
  Link& l = links_[link];
  Message ping;
  ping.type = MsgType::kPing;
  ping.id = l.pending.next_id();
  // Pending even if the send fails, so the sweep resets the link.
  loop_.send(l.conn, ping);
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  l.pending.add(Forward{.op = MsgType::kPing, .deadline = deadline});
  sweep_soon();
}

void Upstream::on_close(ConnId conn) {
  const std::uint32_t link = link_of(conn);
  if (link == kNoLink) return;  // a client hung up
  by_conn_.erase(conn);
  Link& l = links_[link];
  if (l.up) {
    l.up = false;
    up_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  l.conn = kInvalidConn;
  for (Forward& request : l.pending.drain()) {
    if (request.op == MsgType::kPing) continue;  // a probe is never handed back
    hand_back(link, std::move(request), /*sent=*/true);
  }
  std::vector<Forward> queued;
  queued.swap(l.queued);
  for (Forward& request : queued) {
    hand_back(link, std::move(request), /*sent=*/false);
  }
  redial_later(link);
}

void Upstream::hand_back(std::uint32_t link, Forward&& request, bool sent) {
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  hooks_.on_dropped(link, std::move(request), sent);
}

void Upstream::drop_deferred(std::uint32_t link) {
  std::vector<Forward> deferred;
  deferred.swap(links_[link].deferred);
  for (Forward& request : deferred) {
    hand_back(link, std::move(request), /*sent=*/false);
  }
}

void Upstream::reset(std::uint32_t link, const char* why) {
  const Link& l = links_[link];
  SCP_LOG_WARN << "upstream " << l.address << ":" << l.port << ": " << why
               << "; resetting connection";
  if (counters_.resets != nullptr) counters_.resets->inc();
  loop_.close_connection(l.conn);
}

void Upstream::on_reply(std::uint32_t link, Message&& reply) {
  Link& l = links_[link];
  ++l.replies;
  if (!l.up) {
    // A link that is not up has sent nothing but its probe.
    if (!l.pending.take(reply.id).has_value() ||
        reply.type != MsgType::kPong) {
      reset(link, "probe reply mismatch");
      return;
    }
    come_up(link);
    return;
  }
  if (reply.type == MsgType::kBatchReply) {
    // Item i answers the GET sent with id reply.id + i. Check every item
    // before settling any: a half-applied mismatched batch would answer
    // clients with the wrong keys' verdicts.
    bool matches = !reply.batch.empty();
    for (std::size_t i = 0; matches && i < reply.batch.size(); ++i) {
      const Forward* sent =
          l.pending.find(reply.id + static_cast<std::uint32_t>(i));
      matches = sent != nullptr && sent->key == reply.batch[i].key &&
                sent->op == MsgType::kGet;
    }
    if (!matches) {
      reset(link, "batch reply mismatch");
      return;
    }
    for (std::size_t i = 0; i < reply.batch.size(); ++i) {
      BatchItem& item = reply.batch[i];
      Message answer;
      answer.type = item.type;
      answer.id = reply.id + static_cast<std::uint32_t>(i);
      answer.key = item.key;
      answer.node = item.node;
      answer.payload = std::move(item.payload);
      auto request = links_[link].pending.take(answer.id);
      if (!request.has_value()) continue;  // handed back by a hook's close
      in_flight_.fetch_sub(1, std::memory_order_relaxed);
      hooks_.on_reply(link, std::move(*request), std::move(answer));
    }
    return;
  }
  const Forward* sent = l.pending.find(reply.id);
  if (sent == nullptr || sent->key != reply.key) {
    reset(link, "reply mismatch");
    return;
  }
  Forward request = std::move(*l.pending.take(reply.id));
  in_flight_.fetch_sub(1, std::memory_order_relaxed);
  hooks_.on_reply(link, std::move(request), std::move(reply));
}

bool Upstream::send(std::uint32_t link, Forward request, bool deferrable) {
  if (link >= size()) return false;
  Link& l = links_[link];
  if (!l.up) {
    if (!deferrable || l.address.empty() ||
        l.deferred.size() >= kMaxDeferred) {
      return false;
    }
    l.deferred.push_back(std::move(request));
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (request.op == MsgType::kGet) {
    // The id, stamps and counters are assigned at flush, so a batch's keys
    // get consecutive ids; in_flight counts it now so a draining owner
    // waits for queued GETs too.
    l.queued.push_back(std::move(request));
    in_flight_.fetch_add(1, std::memory_order_relaxed);
    if (l.queued.size() >= kBatchFlushKeys) flush(link);
    return true;
  }
  if (!transmit(link, request)) return false;
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool Upstream::transmit(std::uint32_t link, Forward& request) {
  Link& l = links_[link];
  Message message;
  message.type = request.op;
  message.id = l.pending.next_id();
  message.key = request.key;
  message.version = request.version;
  message.flags = request.flags;
  // Lent to the frame for encoding and taken back, so the request keeps its
  // payload for a re-send without a copy.
  message.payload = std::move(request.payload);
  const bool sent = loop_.send(l.conn, message);
  request.payload = std::move(message.payload);
  if (!sent) return false;
  add_pending(link, std::move(request), obs::now_ns(),
              std::chrono::steady_clock::now() + timeout_);
  return true;
}

bool Upstream::send_unmatched(std::uint32_t link, const Message& message) {
  const Link& l = links_[link];
  return l.up && loop_.send(l.conn, message);
}

void Upstream::flush(std::uint32_t link) {
  Link& l = links_[link];
  std::vector<Forward> queued;
  queued.swap(l.queued);
  bool sent = false;
  if (l.up) {
    Message message;
    message.id = l.pending.next_id();
    if (queued.size() == 1) {
      // A batch of one gains nothing over the plain frame.
      message.type = MsgType::kGet;
      message.key = queued.front().key;
    } else {
      message.type = MsgType::kBatchGet;
      message.batch_keys.reserve(queued.size());
      for (const Forward& request : queued) {
        message.batch_keys.push_back(request.key);
      }
    }
    sent = loop_.send(l.conn, message);
    if (sent && queued.size() > 1 && counters_.batch_frames != nullptr) {
      counters_.batch_frames->inc();
      counters_.batch_keys->inc(queued.size());
    }
  }
  if (!sent) {
    for (Forward& request : queued) {
      hand_back(link, std::move(request), /*sent=*/false);
    }
    return;
  }
  // One frame, but the ledger stays per key: each key is one attempt, as
  // the peer counts batch keys individually too. Adding the entries in
  // queue order gives key i the frame's id + i.
  const std::uint64_t sent_ns = obs::now_ns();
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  for (Forward& request : queued) {
    add_pending(link, std::move(request), sent_ns, deadline);
  }
}

void Upstream::add_pending(std::uint32_t link, Forward&& request,
                           std::uint64_t sent_ns,
                           std::chrono::steady_clock::time_point deadline) {
  if (counters_.attempts != nullptr) counters_.attempts->inc();
  if (request.attempts > 0 && counters_.retries != nullptr) {
    counters_.retries->inc();
  }
  if (hooks_.on_sent) hooks_.on_sent(link);
  request.sent_ns = sent_ns;
  request.deadline = deadline;
  links_[link].pending.add(std::move(request));
  sweep_soon();
}

void Upstream::sweep() {
  sweeping_ = false;
  if (stopping_.load()) return;
  const auto now = std::chrono::steady_clock::now();
  for (std::uint32_t link = 0; link < size(); ++link) {
    Link& l = links_[link];
    if (l.replies != l.replies_swept) {
      l.replies_swept = l.replies;
      l.answered = now;
    }
    // Overdue and silent: the peer is hung. Overdue but answering: it is
    // still working through what it was sent (a handoff burst), and a reset
    // would discard the rest of that burst unsent.
    const Forward* oldest = l.pending.oldest();
    if (l.conn != kInvalidConn && oldest != nullptr &&
        oldest->deadline <= now && l.answered + timeout_ <= now) {
      // on_close hands everything the link carried back to the owner, and
      // the link stays down until the peer answers a probe.
      const char* why =
          l.up ? "no reply within the deadline" : "no reply to the probe";
      l.probing = true;
      reset(link, why);
    }
    // Only a pending request has a deadline: an idle module sleeps.
    if (l.pending.oldest() != nullptr) sweep_soon();
  }
}

}  // namespace scp::net
