// scp_backend — one back-end node of the live serving tier.
//
// Binds (kernel-assigned port with --port 0), prints `PORT <port>` on
// stdout so a spawner can parse the endpoint, then serves until SIGINT or
// SIGTERM, draining in-flight replies before exiting.
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "net/backend_server.h"
#include "net/socket.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace scp;
  using namespace scp::net;

  BackendConfig config;
  std::uint64_t port = 0;
  std::uint64_t node_id = 0;
  std::uint64_t nodes = config.nodes;
  std::uint64_t replication = config.replication;
  std::uint64_t items = config.items;
  std::uint64_t value_bytes = config.value_bytes;
  std::uint64_t shards = config.shards;
  double drain_s = 1.0;
  std::int64_t metrics_port = -1;
  std::string peers;
  std::uint64_t write_quorum = 0;
  std::uint64_t read_quorum = 0;
  double op_timeout_ms = 1000.0;
  double detect_interval_ms = 250.0;

  FlagSet flags("scp_backend: replica-group member serving GETs over TCP");
  flags.add_string("address", &config.address, "bind address");
  flags.add_uint64("port", &port, "bind port (0 = kernel-assigned)");
  flags.add_uint64("node", &node_id, "this node's id in [0, nodes)");
  flags.add_uint64("nodes", &nodes, "cluster size n");
  flags.add_uint64("replication", &replication, "replica-group size d");
  flags.add_string("partitioner", &config.partitioner,
                   "replica partitioner: hash|ring|rendezvous");
  flags.add_uint64("partition-seed", &config.partition_seed,
                   "partitioner seed (must match the whole tier)");
  flags.add_uint64("items", &items, "preload keys 0..items-1 where owned");
  flags.add_uint64("value-bytes", &value_bytes, "stored value size");
  flags.add_uint64("shards", &shards,
                   "reactor shards sharing the port via SO_REUSEPORT");
  flags.add_double("drain", &drain_s, "shutdown drain budget (seconds)");
  flags.add_int64("metrics-port", &metrics_port,
                  "Prometheus /metrics port (-1 = off, 0 = kernel-assigned)");
  flags.add_string("peers", &peers,
                   "replica mesh, comma-separated host:port per node id "
                   "(empty slot = skip; own slot ignored; empty = no mesh)");
  flags.add_uint64("write-quorum", &write_quorum,
                   "W replica acks per write (0 = majority of d)");
  flags.add_uint64("read-quorum", &read_quorum,
                   "R replica responses per quorum read (0 = majority of d)");
  flags.add_double("op-timeout-ms", &op_timeout_ms,
                   "peer link deadline: a peer owing a reply that answers "
                   "nothing this long is reset, failing the quorum ops it "
                   "leaves short, and stays out of fan-out until it answers "
                   "a ping");
  flags.add_bool("detect", &config.detect,
                 "hot-key detection: sketch served GETs and push kHotKeyReport "
                 "to subscribed front ends");
  flags.add_double("detect-interval-ms", &detect_interval_ms,
                   "hot-key report + sketch-aging cadence");
  if (!flags.parse(argc, argv)) return 2;

  config.port = static_cast<std::uint16_t>(port);
  config.node_id = static_cast<std::uint32_t>(node_id);
  config.nodes = static_cast<std::uint32_t>(nodes);
  config.replication = static_cast<std::uint32_t>(replication);
  config.items = items;
  config.value_bytes = static_cast<std::uint32_t>(value_bytes);
  config.metrics_port = static_cast<std::int32_t>(metrics_port);
  config.shards = static_cast<std::uint32_t>(shards == 0 ? 1 : shards);
  if (config.node_id >= config.nodes || config.replication == 0 ||
      config.replication > config.nodes) {
    std::fprintf(stderr, "scp_backend: need 0 <= node < nodes and 0 < d <= n\n");
    return 2;
  }
  auto peer_list = parse_endpoints(peers);
  if (!peer_list.has_value()) {
    std::fprintf(stderr, "scp_backend: bad --peers '%s'\n", peers.c_str());
    return 2;
  }
  config.peers = std::move(*peer_list);
  config.write_quorum = static_cast<std::uint32_t>(write_quorum);
  config.read_quorum = static_cast<std::uint32_t>(read_quorum);
  config.op_timeout_s = op_timeout_ms / 1000.0;
  config.detect_interval_s = detect_interval_ms / 1000.0;

  BackendServer server(config);
  if (!server.start()) {
    std::fprintf(stderr, "scp_backend: failed to bind %s:%u\n",
                 config.address.c_str(), static_cast<unsigned>(config.port));
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
  std::printf("scp_backend node %u: requests=%llu hits=%llu misses=%llu "
              "redirects=%llu puts=%llu deletes=%llu replications=%llu\n",
              static_cast<unsigned>(config.node_id),
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.redirects),
              static_cast<unsigned long long>(stats.puts),
              static_cast<unsigned long long>(stats.deletes),
              static_cast<unsigned long long>(stats.replications));
  return 0;
}
