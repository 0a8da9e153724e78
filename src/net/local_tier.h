// The in-process serving tier on loopback: n backends, optionally wired into
// their replica mesh, then optionally a front-end fleet and, for a fleet
// wider than one member, the edge router in front of it. Every server runs
// on its own reactor threads in this process, on a kernel-assigned port.
// bench/live_serving and the loopback suites stand their tier up here.
//
// start() brings the layers up bottom to top and waits for each one's links
// before it starts the next: the backends; with `mesh`, every backend's link
// to every peer; the members and their links to every backend; the router
// and its links to every member. stop() takes them down top to bottom.
//
// The templates say how each server runs. The launcher fills in only what
// ties the tier together: each backend's node_id; each member's backend
// endpoints, fleet_index and seed, and the partition and key space of the
// backend template (nodes, replication, partitioner, partition_seed, items,
// value_bytes); the router's members and fleet seed. Member 0 keeps the
// template's seed and member m runs derive_seed(seed, 200 + m), so a
// one-member tier runs exactly as a lone front end.
//
// The server slots are public: a test restarts or replaces a server in
// place, and stop() stops whatever the slots hold (an empty slot is
// skipped).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "net/backend_server.h"
#include "net/frontend_server.h"
#include "net/router_server.h"
#include "net/socket.h"

namespace scp::net {

class LocalTier {
 public:
  /// `backend.nodes` backends; a fleet of `frontend->fleet_size` members
  /// when `frontend` is set.
  LocalTier(BackendConfig backend, bool mesh,
            std::optional<FrontendConfig> frontend = std::nullopt);
  ~LocalTier() { stop(0.0); }
  LocalTier(const LocalTier&) = delete;
  LocalTier& operator=(const LocalTier&) = delete;

  /// Starts every layer and waits up to 5 s for each one's links. False,
  /// with the cause logged, when a server fails to start or a layer's links
  /// do not come up.
  bool start();
  /// Stops the router, then the members, then the backends.
  void stop(double drain_s = 1.0);

  /// Where clients connect: the router in front of a fleet, else member 0.
  std::uint16_t port() const;

  /// The config member `member` runs, on `endpoints` as they are now.
  FrontendConfig member_config(std::uint32_t member) const;

  /// Backend endpoints by NodeId, as the mesh and the members got them.
  std::vector<Endpoint> endpoints;
  std::vector<std::unique_ptr<BackendServer>> backends;
  std::vector<std::unique_ptr<FrontendServer>> frontends;
  std::unique_ptr<RouterServer> router;

 private:
  BackendConfig backend_;
  bool mesh_;
  std::optional<FrontendConfig> frontend_;
};

}  // namespace scp::net
