#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace scp {

std::size_t parallel_workers(std::size_t count, std::size_t threads) {
  return std::max<std::size_t>(1, std::min(threads, count));
}

void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn) {
  const std::size_t workers = parallel_workers(count, threads);
  std::atomic<std::size_t> next{0};
  const auto work = [&](std::size_t worker) {
    for (std::size_t index = next.fetch_add(1); index < count;
         index = next.fetch_add(1)) {
      fn(index, worker);
    }
  };
  // jthreads join on destruction, so the pool is joined before returning
  // on every path, an exception from worker 0 included.
  std::vector<std::jthread> pool;
  pool.reserve(workers - 1);
  for (std::size_t worker = 1; worker < workers; ++worker) {
    pool.emplace_back(work, worker);
  }
  work(0);
}

}  // namespace scp
