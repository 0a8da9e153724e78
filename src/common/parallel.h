// The one worker pool: an atomic-index work-stealing loop over [0, count).
//
// Every caller writes results into a slot chosen by task index, so what it
// computes is independent of the thread count and of scheduling; only the
// wall time changes. Threads are joined before parallel_for returns, so no
// thread outlives the call.
#pragma once

#include <cstddef>
#include <functional>

namespace scp {

/// Workers parallel_for uses for `count` tasks on up to `threads` threads:
/// min(threads, count), at least 1 (so a `threads` of 0, as
/// std::thread::hardware_concurrency() may report, runs inline).
std::size_t parallel_workers(std::size_t count, std::size_t threads);

/// Runs fn(index, worker) exactly once for every index in [0, count), on
/// parallel_workers(count, threads) workers that claim indices in ascending
/// order; worker ∈ [0, workers) identifies the calling worker, for per-worker
/// scratch state. The calling thread is worker 0; with a single worker
/// everything runs inline and no thread is started. `fn` must be safe to
/// call concurrently for distinct indices.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t, std::size_t)>& fn);

}  // namespace scp
