// scp_frontend — the live serving tier's front end.
//
// Binds (kernel-assigned port with --port 0), prints `PORT <port>` on
// stdout, connects to every backend named by --backends, and serves client
// GETs (cache hits locally, misses forwarded with power-of-d routing and
// RetryPolicy failover) until SIGINT or SIGTERM.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/flags.h"
#include "net/frontend_server.h"
#include "net/socket.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace scp;
  using namespace scp::net;

  FrontendConfig config;
  std::uint64_t port = 0;
  std::uint64_t nodes = config.nodes;
  std::uint64_t replication = config.replication;
  std::uint64_t cache_capacity = 0;
  std::uint64_t items = config.items;
  std::uint64_t value_bytes = config.value_bytes;
  std::uint64_t max_retries = config.retry.max_retries;
  std::uint64_t shards = config.shards;
  std::uint64_t fleet = 1;
  std::uint64_t fleet_index = 0;
  std::string backends_list;
  double drain_s = 1.0;
  std::int64_t metrics_port = -1;

  FlagSet flags("scp_frontend: cache + power-of-d routing front end");
  flags.add_string("address", &config.address, "bind address");
  flags.add_uint64("port", &port, "bind port (0 = kernel-assigned)");
  flags.add_uint64("nodes", &nodes, "cluster size n");
  flags.add_uint64("replication", &replication, "replica-group size d");
  flags.add_string("partitioner", &config.partitioner,
                   "replica partitioner: hash|ring|rendezvous");
  flags.add_uint64("partition-seed", &config.partition_seed,
                   "partitioner seed (must match the whole tier)");
  flags.add_string("backends", &backends_list,
                   "comma-separated host:port per node id (n entries)");
  flags.add_string("cache", &config.cache_policy,
                   "front-end cache: perfect|none|lru|lfu|slru|tinylfu");
  flags.add_uint64("cache-capacity", &cache_capacity,
                   "aggregate cache entries c, split across shards and "
                   "fleet members");
  flags.add_uint64("items", &items, "key space size m (perfect cache bound)");
  flags.add_uint64("value-bytes", &value_bytes,
                   "value size the perfect cache fills at start");
  flags.add_uint64("max-retries", &max_retries,
                   "retries after the first attempt");
  flags.add_double("retry-backoff", &config.retry.backoff_base_s,
                   "backoff before the first retry (seconds)");
  flags.add_double("retry-timeout", &config.retry.timeout_s,
                   "per-request timeout (seconds)");
  flags.add_uint64("seed", &config.seed, "routing tie-break seed");
  flags.add_uint64("shards", &shards,
                   "reactor shards sharing the port via SO_REUSEPORT; the "
                   "cache capacity c is split c/N across them");
  flags.add_uint64("fleet", &fleet,
                   "front-end fleet size N (DistCache-style tier; the "
                   "aggregate cache capacity is hash-partitioned across the "
                   "N members)");
  flags.add_uint64("fleet-index", &fleet_index,
                   "this member's index in the fleet (0..N-1)");
  flags.add_uint64("fleet-seed", &config.fleet_seed,
                   "fleet hash seed (must match every member and router)");
  flags.add_double("drain", &drain_s, "shutdown drain budget (seconds)");
  flags.add_int64("metrics-port", &metrics_port,
                  "Prometheus /metrics port (-1 = off, 0 = kernel-assigned)");
  flags.add_bool("detect", &config.detect,
                 "hot-key mitigation: subscribe to backend kHotKeyReport "
                 "pushes and force-admit globally-hot uncached keys");
  flags.add_double("detect-threshold", &config.detect_hot_fraction,
                   "aggregated share of the backend stream that flags a key "
                   "(match the backends')");
  flags.add_uint64("detect-min-samples", &config.detect_min_samples,
                   "no hot-key classification below this aggregated total");
  if (!flags.parse(argc, argv)) return 2;

  config.port = static_cast<std::uint16_t>(port);
  config.nodes = static_cast<std::uint32_t>(nodes);
  config.replication = static_cast<std::uint32_t>(replication);
  config.cache_capacity = cache_capacity;
  config.items = items;
  config.value_bytes = static_cast<std::uint32_t>(value_bytes);
  config.retry.max_retries = static_cast<std::uint32_t>(max_retries);
  config.metrics_port = static_cast<std::int32_t>(metrics_port);
  config.shards = static_cast<std::uint32_t>(shards == 0 ? 1 : shards);
  config.fleet_size = static_cast<std::uint32_t>(fleet == 0 ? 1 : fleet);
  config.fleet_index = static_cast<std::uint32_t>(fleet_index);
  if (config.fleet_index >= config.fleet_size) {
    std::fprintf(stderr,
                 "scp_frontend: --fleet-index %u out of range for --fleet %u\n",
                 static_cast<unsigned>(config.fleet_index),
                 static_cast<unsigned>(config.fleet_size));
    return 2;
  }
  if (config.replication == 0 || config.replication > config.nodes) {
    std::fprintf(stderr, "scp_frontend: need 0 < d <= n\n");
    return 2;
  }
  if (!known_cache_policy(config.cache_policy)) {
    std::fprintf(stderr, "scp_frontend: unknown --cache\n");
    return 2;
  }
  // Entry i is node i's backend, so an empty slot is an error too.
  auto backends = parse_endpoints(backends_list);
  if (!backends.has_value() ||
      std::ranges::any_of(*backends, [](const Endpoint& endpoint) {
        return endpoint.first.empty();
      })) {
    std::fprintf(stderr, "scp_frontend: bad --backends entry\n");
    return 2;
  }
  config.backends = std::move(*backends);
  if (config.backends.size() != config.nodes) {
    std::fprintf(stderr,
                 "scp_frontend: --backends names %zu endpoints but --nodes=%u\n",
                 config.backends.size(), static_cast<unsigned>(config.nodes));
    return 2;
  }

  FrontendServer server(std::move(config));
  if (!server.start()) {
    std::fprintf(stderr, "scp_frontend: failed to start\n");
    return 1;
  }
  std::printf("PORT %u\n", static_cast<unsigned>(server.port()));
  if (server.metrics_http_port() != 0) {
    std::printf("METRICS_PORT %u\n",
                static_cast<unsigned>(server.metrics_http_port()));
  }
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_stop == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  server.stop(drain_s);
  const ServerStats stats = server.stats();
  std::printf("scp_frontend: requests=%llu hits=%llu misses=%llu "
              "forwarded=%llu coalesced=%llu retries=%llu failures=%llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.forwarded),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failures));
  return 0;
}
