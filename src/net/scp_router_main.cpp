// scp_router — edge router for a distributed front-end fleet.
//
// Binds (kernel-assigned port with --port 0), prints `PORT <port>` on
// stdout, connects to every fleet member named by --frontends (list order =
// fleet index order; it must match each member's --fleet-index), and routes
// each client request to its key's cache owner (the alternate while the
// owner is down) until SIGINT or SIGTERM.
#include <algorithm>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/flags.h"
#include "net/router_server.h"
#include "net/socket.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace scp;
  using namespace scp::net;

  RouterConfig config;
  std::uint64_t port = 0;
  std::string frontends_list;
  double drain_s = 1.0;
  std::int64_t metrics_port = -1;

  FlagSet flags("scp_router: fleet edge router (owner routing)");
  flags.add_string("address", &config.address, "bind address");
  flags.add_uint64("port", &port, "bind port (0 = kernel-assigned)");
  flags.add_string("frontends", &frontends_list,
                   "comma-separated host:port per fleet member, in fleet "
                   "index order (must match each member's --fleet-index)");
  flags.add_uint64("fleet-seed", &config.fleet_seed,
                   "fleet hash seed (must match every member)");
  flags.add_double("timeout", &config.timeout_s,
                   "per-request deadline before a member connection reset");
  flags.add_double("drain", &drain_s, "shutdown drain budget (seconds)");
  flags.add_int64("metrics-port", &metrics_port,
                  "Prometheus /metrics port (-1 = off, 0 = kernel-assigned)");
  if (!flags.parse(argc, argv)) return 2;

  config.port = static_cast<std::uint16_t>(port);
  config.metrics_port = static_cast<std::int32_t>(metrics_port);
  // Entry i is fleet member i, so an empty slot is an error too.
  auto frontends = parse_endpoints(frontends_list);
  if (!frontends.has_value() ||
      std::ranges::any_of(*frontends, [](const Endpoint& endpoint) {
        return endpoint.first.empty();
      })) {
    std::fprintf(stderr, "scp_router: bad --frontends entry\n");
    return 2;
  }
  config.frontends = std::move(*frontends);
  if (config.frontends.empty()) {
    std::fprintf(stderr, "scp_router: --frontends is required\n");
    return 2;
  }

  RouterServer server(std::move(config));
  if (!server.start()) {
    std::fprintf(stderr, "scp_router: failed to start\n");
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
  std::printf("scp_router: requests=%llu forwarded=%llu redirects=%llu "
              "retries=%llu failures=%llu attempts=%llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.forwarded),
              static_cast<unsigned long long>(stats.redirects),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failures),
              static_cast<unsigned long long>(stats.attempts));
  return 0;
}
