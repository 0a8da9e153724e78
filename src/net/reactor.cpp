#include "net/reactor.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace scp::net {
namespace {

/// Buffer-pool bounds: buffers above the capacity cap are dropped on
/// release (a one-off huge value must not become resident scratch), and the
/// pool holds at most this many buffers.
constexpr std::size_t kPoolMaxBuffers = 256;
constexpr std::size_t kPoolMaxCapacity = 64 * 1024;

bool make_wake_pipe(Socket& read_end, Socket& write_end) {
  int fds[2];
  if (::pipe(fds) != 0) {
    SCP_LOG_ERROR << "net: pipe() failed: " << std::strerror(errno);
    return false;
  }
  read_end.reset(fds[0]);
  write_end.reset(fds[1]);
  return set_nonblocking(fds[0]) && set_nonblocking(fds[1]);
}

}  // namespace

void ReactorCounters::export_to(obs::MetricsSnapshot& snap) const {
  snap.counters["loop.accepted"] = accepted.load(std::memory_order_relaxed);
  snap.counters["loop.frames_in"] = frames_in.load(std::memory_order_relaxed);
  snap.counters["loop.frames_out"] =
      frames_out.load(std::memory_order_relaxed);
  snap.counters["loop.protocol_errors"] =
      protocol_errors.load(std::memory_order_relaxed);
  snap.counters["loop.syscalls"] = syscalls.load(std::memory_order_relaxed);
  snap.counters["loop.wakeups"] = wakeups.load(std::memory_order_relaxed);
}

double reconnect_delay_s(std::uint32_t failures) noexcept {
  constexpr double kBaseS = 0.050;
  constexpr double kCapS = 1.0;
  return std::min(
      kBaseS * static_cast<double>(1u << std::min(failures, 10u)), kCapS);
}

Reactor::Reactor() { make_wake_pipe(wake_read_, wake_write_); }

Reactor::~Reactor() = default;

void Reactor::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    tick_us_ = nullptr;
    dispatch_depth_ = nullptr;
    return;
  }
  tick_us_ = &registry->timer("loop.tick_us");
  dispatch_depth_ = &registry->timer("loop.dispatch_depth");
}

void Reactor::adopt(int fd) {
  if (on_loop_thread()) {
    adopt_on_loop(fd);
    return;
  }
  if (!running_.load()) {
    ::close(fd);
    return;
  }
  post([this, fd] { adopt_on_loop(fd); });
}

bool Reactor::start() {
  if (started_ || !valid() || !wake_valid()) return false;
  started_ = true;
  // Visible before the thread spawns so running() is true the moment start()
  // returns; callers poll it as the serve-loop condition.
  running_.store(true);
  thread_ = std::thread([this] {
    loop_thread_id_.store(std::this_thread::get_id(),
                          std::memory_order_release);
    run();
    running_.store(false);
  });
  return true;
}

void Reactor::stop(double drain_s) {
  request_stop(drain_s);
  join();
}

void Reactor::request_stop(double drain_s) {
  if (!started_) {
    listener_.reset();
    return;
  }
  drain_s_.store(drain_s);
  stop_requested_.store(true);
  wakeup();
}

void Reactor::join() {
  if (thread_.joinable()) {
    thread_.join();
  }
}

ConnId Reactor::connect(const std::string& address, std::uint16_t port) {
  const ConnId id = next_conn_id_.fetch_add(1);
  if (!running_.load()) {
    std::lock_guard<std::mutex> lock(post_mutex_);
    pending_connects_.push_back({id, {address, port}});
    return id;
  }
  if (on_loop_thread()) {
    do_connect(id, address, port);
  } else {
    post([this, id, address, port] { do_connect(id, address, port); });
  }
  return id;
}

void Reactor::run_after(double delay_s, std::function<void()> fn) {
  if (running_.load() && !on_loop_thread()) {
    post([this, delay_s, fn = std::move(fn)]() mutable {
      run_after(delay_s, std::move(fn));
    });
    return;
  }
  Timer timer;
  timer.deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(delay_s));
  timer.seq = timer_seq_++;
  timer.fn = std::move(fn);
  timers_.push(std::move(timer));
}

void Reactor::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted_.push_back(std::move(fn));
  }
  wakeup();
}

void Reactor::wakeup() noexcept {
  const char byte = 1;
  // Best effort: a full pipe already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_.fd(), &byte, 1);
}

std::size_t Reactor::drain_posted() {
  std::vector<std::function<void()>> posted;
  std::vector<std::pair<ConnId, std::pair<std::string, std::uint16_t>>>
      connects;
  {
    std::lock_guard<std::mutex> lock(post_mutex_);
    posted.swap(posted_);
    connects.swap(pending_connects_);
  }
  for (auto& [id, target] : connects) {
    do_connect(id, target.first, target.second);
  }
  for (auto& fn : posted) {
    fn();
  }
  return posted.size();
}

void Reactor::run_due_timers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.top().deadline <= now) {
    // priority_queue::top() is const; the handle is moved out via a cast —
    // safe because pop() immediately removes the slot.
    auto fn = std::move(const_cast<Timer&>(timers_.top()).fn);
    timers_.pop();
    fn();
  }
}

int Reactor::next_timeout_ms() const {
  if (timers_.empty()) return 100;
  const auto now = Clock::now();
  const auto deadline = timers_.top().deadline;
  if (deadline <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      deadline - now)
                      .count();
  return static_cast<int>(std::min<long long>(ms + 1, 100));
}

std::vector<std::uint8_t> Reactor::acquire_buffer() {
  if (buffer_pool_.empty()) return {};
  std::vector<std::uint8_t> buffer = std::move(buffer_pool_.back());
  buffer_pool_.pop_back();
  buffer.clear();
  return buffer;
}

void Reactor::release_buffer(std::vector<std::uint8_t>&& buffer) {
  if (buffer_pool_.size() < kPoolMaxBuffers &&
      buffer.capacity() > 0 && buffer.capacity() <= kPoolMaxCapacity) {
    buffer_pool_.push_back(std::move(buffer));
  }
}

}  // namespace scp::net
