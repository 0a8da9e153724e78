// Shared by the loopback suites: the templates their net::LocalTier tiers
// start from, and the one deadline poll.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "net/backend_server.h"
#include "net/frontend_server.h"

namespace scp::net {

/// The partition seed every loopback tier runs under.
constexpr std::uint64_t kPartitionSeed = 77;

/// `nodes` backends with d = `replication`, each preloading its replica
/// share of keys [0, items).
inline BackendConfig backend_template(std::uint32_t nodes,
                                      std::uint32_t replication,
                                      std::uint64_t items) {
  BackendConfig config;
  config.nodes = nodes;
  config.replication = replication;
  config.partition_seed = kPartitionSeed;
  config.items = items;
  return config;
}

/// A front end caching `cache_capacity` entries under `cache_policy`; the
/// tier gives it the backends' partition and key space.
inline FrontendConfig frontend_template(const std::string& cache_policy,
                                        std::size_t cache_capacity) {
  FrontendConfig config;
  config.cache_policy = cache_policy;
  config.cache_capacity = cache_capacity;
  return config;
}

/// Polls `pred` every millisecond until it holds or `timeout_s` passes.
inline bool eventually(const std::function<bool()>& pred,
                       double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(timeout_s));
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

}  // namespace scp::net
