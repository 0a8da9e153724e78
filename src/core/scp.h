// Umbrella header: the full Secure Cache Provision public API.
//
// Quickstart:
//   #include "core/scp.h"
//   scp::ClusterSpec spec{.nodes = 1000, .replication = 3,
//                         .items = 1'000'000, .attack_rate_qps = 100'000};
//   scp::CacheProvisioner provisioner;
//   scp::ProvisionPlan plan = provisioner.plan(spec);
//   std::cout << scp::render_report(plan);
#pragma once

#include "adversary/bounds.h"      // SystemParams, Eq. 8/10, regimes
#include "adversary/knowledge.h"   // partial-knowledge (targeted) adversary
#include "adversary/optimizer.h"   // distribution-space attack search
#include "adversary/strategy.h"    // AttackPlan, best_response_search
#include "ballsbins/balls_bins.h"  // the probabilistic engine
#include "cache/cache.h"           // FrontEndCache + policies
#include "cache/frontend_tier.h"   // multi-front-end cache tier
#include "cache/perfect_cache.h"
#include "cluster/capacity.h"      // heterogeneous capacity profiles
#include "cluster/cluster.h"       // Cluster, partitioners, selectors
#include "core/analyzer.h"         // AttackAnalyzer
#include "core/detector.h"         // online attack detection
#include "core/provisioner.h"      // CacheProvisioner
#include "core/report.h"
#include "core/serialize.h"   // JSON output
#include "kvstore/kv_cluster.h"    // functional replicated KV substrate
#include "sim/event_sim.h"         // discrete-event simulator
#include "sim/fault.h"             // deterministic fault schedules
#include "sim/rate_sim.h"          // rate simulator
#include "sim/runner.h"
#include "sim/scenario.h"
#include "workload/cost_model.h"   // per-query cost multipliers
#include "workload/distribution.h" // QueryDistribution
#include "workload/rotating.h"     // time-varying hot sets
#include "workload/stream.h"
