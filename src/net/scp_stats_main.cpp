// scp_stats — scrape a live SCP server's counters and metrics over the wire
// protocol (kMetricsRequest) and pretty-print or JSON-dump them.
//
//   scp_stats --port 9000                  # one human-readable snapshot
//   scp_stats --port 9000 --json           # one JSON document on stdout
//   scp_stats --port 9000 --interval 1 --count 5   # poll five times
#include <cstdio>
#include <thread>

#include "common/flags.h"
#include "obs/exposition.h"
#include "net/sync_client.h"

namespace {

using namespace scp;
using namespace scp::net;

void print_stats_text(const obs::MetricsSnapshot& metrics) {
  for (const auto& [name, value] : metrics.counters) {
    std::printf("counter %-32s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : metrics.gauges) {
    std::printf("gauge   %-32s %lld\n", name.c_str(),
                static_cast<long long>(value));
  }
  for (const auto& [name, hist] : metrics.timers) {
    std::printf("timer   %-32s %s\n", name.c_str(), hist.summary().c_str());
  }
}

void print_stats_json(const obs::MetricsSnapshot& metrics) {
  JsonWriter w;
  w.begin_object();
  w.key("metrics");
  obs::write_json(w, metrics);
  w.end();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint64_t port = 0;
  bool json = false;
  bool prometheus = false;
  double interval_s = 0.0;
  std::uint64_t count = 1;
  double timeout_s = 1.0;

  FlagSet flags("scp_stats: poll a live SCP server and print its metrics");
  flags.add_string("host", &host, "server address");
  flags.add_uint64("port", &port, "server wire-protocol port (required)");
  flags.add_bool("json", &json, "emit JSON instead of text");
  flags.add_bool("prometheus", &prometheus,
                 "emit Prometheus text exposition instead of text");
  flags.add_double("interval", &interval_s,
                   "seconds between polls (0 = single shot)");
  flags.add_uint64("count", &count, "number of polls (0 = until killed)");
  flags.add_double("timeout", &timeout_s, "per-request timeout (seconds)");
  if (!flags.parse(argc, argv)) return 2;
  if (port == 0 || port > 65535) {
    std::fprintf(stderr, "scp_stats: --port is required\n");
    return 2;
  }

  SyncClient client;
  if (!client.connect(host, static_cast<std::uint16_t>(port), timeout_s)) {
    std::fprintf(stderr, "scp_stats: cannot connect to %s:%llu\n",
                 host.c_str(), static_cast<unsigned long long>(port));
    return 1;
  }

  for (std::uint64_t i = 0; count == 0 || i < count; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(
          interval_s > 0 ? interval_s : 1.0));
    }
    Message metrics_req;
    metrics_req.type = MsgType::kMetricsRequest;
    auto metrics_reply = client.call(metrics_req, timeout_s);
    if (!metrics_reply || metrics_reply->type != MsgType::kMetricsReply) {
      std::fprintf(stderr, "scp_stats: kMetricsRequest failed\n");
      return 1;
    }
    if (json) {
      print_stats_json(metrics_reply->metrics);
    } else if (prometheus) {
      std::fputs(obs::to_prometheus_text(metrics_reply->metrics).c_str(),
                 stdout);
    } else {
      print_stats_text(metrics_reply->metrics);
    }
    std::fflush(stdout);
  }
  return 0;
}
