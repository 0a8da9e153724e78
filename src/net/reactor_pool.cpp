#include "net/reactor_pool.h"

#include "common/log.h"
#include "net/frame_loop.h"

namespace scp::net {

obs::MetricsSnapshot merge_shard_snapshots(
    const std::string& role, const std::vector<obs::MetricsSnapshot>& shards) {
  obs::MetricsSnapshot out;
  for (const auto& shard : shards) {
    out.merge(shard);
  }
  if (shards.size() > 1) {
    const std::string prefix = role + ".";
    for (std::size_t k = 0; k < shards.size(); ++k) {
      const std::string tag = role + ".shard" + std::to_string(k) + ".";
      const auto rename = [&](const std::string& name) {
        return name.starts_with(prefix) ? tag + name.substr(prefix.size())
                                        : tag + name;
      };
      for (const auto& [name, value] : shards[k].counters) {
        out.counters[rename(name)] = value;
      }
      for (const auto& [name, value] : shards[k].gauges) {
        out.gauges[rename(name)] = value;
      }
      for (const auto& [name, hist] : shards[k].timers) {
        out.timers.emplace(rename(name), hist);
      }
    }
  }
  return out;
}

ReactorPool::ReactorPool(Options options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  loops_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    loops_.push_back(std::make_unique<FrameLoop>());
  }
}

bool ReactorPool::listen(const std::string& address, std::uint16_t port,
                         int backlog) {
  if (loops_.size() == 1 && !options_.force_fallback_accept) {
    if (!loops_[0]->listen(address, port, backlog, /*reuse_port=*/false)) {
      return false;
    }
    port_ = loops_[0]->port();
    return true;
  }

  if (!options_.force_fallback_accept) {
    // SO_REUSEPORT path: shard 0 resolves the port (it may be 0), siblings
    // join the same reuseport group. listen_tcp fails cleanly when the
    // platform lacks SO_REUSEPORT, in which case we fall through.
    if (loops_[0]->listen(address, port, backlog, /*reuse_port=*/true)) {
      const std::uint16_t bound = loops_[0]->port();
      bool ok = true;
      for (std::size_t i = 1; i < loops_.size() && ok; ++i) {
        ok = loops_[i]->listen(address, bound, backlog, /*reuse_port=*/true);
      }
      if (ok) {
        port_ = bound;
        return true;
      }
      SCP_LOG_ERROR << "net: shard listen failed after shard 0 bound port "
                    << bound;
      return false;
    }
    SCP_LOG_WARN << "net: SO_REUSEPORT listen failed; using single-acceptor "
                    "fallback";
  }

  // Fallback: shard 0 is the sole acceptor and deals fds round-robin into
  // the shards (adopt() posts to the target loop's thread).
  if (!loops_[0]->listen(address, port, backlog, /*reuse_port=*/false)) {
    return false;
  }
  port_ = loops_[0]->port();
  fallback_accept_ = true;
  loops_[0]->set_accept_handler([this](int fd) {
    const std::size_t target =
        next_accept_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    loops_[target]->adopt(fd);
  });
  return true;
}

bool ReactorPool::start() {
  for (std::size_t i = 0; i < loops_.size(); ++i) {
    if (!loops_[i]->start()) {
      SCP_LOG_ERROR << "net: shard " << i << " failed to start";
      for (std::size_t j = 0; j < i; ++j) {
        loops_[j]->stop(0.0);
      }
      return false;
    }
  }
  return true;
}

void ReactorPool::stop(double drain_s) {
  // Two phases so no shard keeps accepting while another drains: first every
  // loop closes its listener and enters draining, then all are joined.
  for (auto& loop : loops_) {
    loop->request_stop(drain_s);
  }
  for (auto& loop : loops_) {
    loop->join();
  }
}

bool ReactorPool::running() const noexcept {
  for (const auto& loop : loops_) {
    if (loop->running()) return true;
  }
  return false;
}

ReactorPool::Totals ReactorPool::totals() const {
  Totals totals;
  for (const auto& loop : loops_) {
    const ReactorCounters& c = loop->counters();
    totals.accepted += c.accepted.load(std::memory_order_relaxed);
    totals.frames_in += c.frames_in.load(std::memory_order_relaxed);
    totals.frames_out += c.frames_out.load(std::memory_order_relaxed);
    totals.protocol_errors += c.protocol_errors.load(std::memory_order_relaxed);
    totals.syscalls += c.syscalls.load(std::memory_order_relaxed);
    totals.wakeups += c.wakeups.load(std::memory_order_relaxed);
  }
  return totals;
}

}  // namespace scp::net
