#include "net/local_tier.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/rng.h"

namespace scp::net {

namespace {

/// How long start() waits for one layer's links.
constexpr double kLinksUpS = 5.0;

bool fail(const char* what) {
  SCP_LOG_ERROR << "local tier: " << what;
  return false;
}

}  // namespace

LocalTier::LocalTier(BackendConfig backend, bool mesh,
                     std::optional<FrontendConfig> frontend)
    : backend_(std::move(backend)),
      mesh_(mesh),
      frontend_(std::move(frontend)) {}

bool LocalTier::start() {
  for (std::uint32_t node = 0; node < backend_.nodes; ++node) {
    BackendConfig config = backend_;
    config.node_id = node;
    config.port = 0;
    backends.push_back(std::make_unique<BackendServer>(config));
    if (!backends.back()->start()) return fail("a backend failed to start");
    endpoints.emplace_back(config.address, backends.back()->port());
  }
  if (mesh_) {
    for (auto& backend : backends) backend->set_peers(endpoints);
    for (const auto& backend : backends) {
      if (!backend->wait_peers_up(kLinksUpS)) {
        return fail("the replica mesh never came up");
      }
    }
  }
  if (!frontend_.has_value()) return true;

  const std::uint32_t fleet = std::max(frontend_->fleet_size, 1u);
  RouterConfig router_config;
  router_config.fleet_seed = frontend_->fleet_seed;
  for (std::uint32_t member = 0; member < fleet; ++member) {
    FrontendConfig config = member_config(member);
    config.port = 0;
    frontends.push_back(std::make_unique<FrontendServer>(config));
    if (!frontends.back()->start()) return fail("a member failed to start");
    router_config.frontends.emplace_back(config.address,
                                         frontends.back()->port());
  }
  for (const auto& member : frontends) {
    if (!member->wait_backends_up(kLinksUpS)) {
      return fail("a member's backend links never came up");
    }
  }
  if (fleet == 1) return true;

  router = std::make_unique<RouterServer>(std::move(router_config));
  if (!router->start()) return fail("the router failed to start");
  if (!router->wait_frontends_up(kLinksUpS)) {
    return fail("the router's member links never came up");
  }
  return true;
}

void LocalTier::stop(double drain_s) {
  if (router != nullptr) router->stop(drain_s);
  for (auto& member : frontends) {
    if (member != nullptr) member->stop(drain_s);
  }
  for (auto& backend : backends) {
    if (backend != nullptr) backend->stop(drain_s);
  }
}

std::uint16_t LocalTier::port() const {
  return router != nullptr ? router->port() : frontends.front()->port();
}

FrontendConfig LocalTier::member_config(std::uint32_t member) const {
  FrontendConfig config = *frontend_;
  config.nodes = backend_.nodes;
  config.replication = backend_.replication;
  config.partitioner = backend_.partitioner;
  config.partition_seed = backend_.partition_seed;
  config.items = backend_.items;
  config.value_bytes = backend_.value_bytes;
  config.backends = endpoints;
  config.fleet_index = member;
  if (member > 0) config.seed = derive_seed(frontend_->seed, 200 + member);
  return config;
}

}  // namespace scp::net
