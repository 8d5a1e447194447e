// Memoized, parallel, incrementally-invalidated simulation engine.
//
// The concrete simulator (simulate/simulator.hpp) is AED's ground-truth
// oracle: every synthesized patch is validated against it each repair round,
// and the evaluation harness uses it to mine policies from configurations.
// The plain Simulator is deliberately simple — it re-derives all per-router
// structure and re-runs route convergence from scratch for every
// (policy, source) pair. That cost is linear in the number of policies even
// when hundreds of them share a handful of destinations.
//
// SimulationEngine is the production path. It produces bit-identical
// verdicts and route tables (asserted by tests/engine_test.cpp) while
// attacking the three sources of repeated work:
//
//  1. **Compilation.** All tree-shaped inputs — routing processes,
//     adjacencies (with the symmetric-peer check pre-resolved), origination
//     and redistribution lists, seq-sorted route/packet filter rules, the
//     stub-subnet index behind deliversLocally()/sourceRouters(), and the
//     interface→packet-filter bindings — are gathered once per bound tree
//     instead of inside every computeRoutes()/forward() call.
//  2. **Memoization.** Converged route tables are cached keyed by
//     (destination prefix, canonicalized Environment). N policies over the
//     same destination pay one convergence instead of N×sources.
//  3. **Parallelism + incrementality.** violations() and
//     inferReachabilityPolicies() shard work across destination classes on
//     an aed::ThreadPool (per-destination tables are independent, so the
//     cache is sharded by destination and a task normally owns its shard
//     exclusively — a per-shard mutex covers the rare cross-shard reads of
//     isolation policies). rebind() re-binds the engine to an updated tree
//     and invalidates only the destinations whose routes can be affected by
//     the given patches (edits are attributed to prefixes; unattributable
//     edits fall back to full invalidation).
//
// The engine owns a deep copy of the bound tree, so it can outlive the
// caller's ConfigTree — this is what lets it persist across repair rounds in
// core/aed.cpp, where each round's updated tree is a short-lived local.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "conftree/patch.hpp"
#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "simulate/simulator.hpp"
#include "topology/topology.hpp"
#include "util/ipv4.hpp"

namespace aed {

class ThreadPool;

/// Snapshot of the engine's cache behavior, cumulative since construction.
/// Surfaced through AedStats and aed_cli.
struct SimCacheStats {
  std::size_t routeHits = 0;        // route-table lookups served from cache
  std::size_t routeMisses = 0;      // lookups that ran a fresh convergence
  std::size_t invalidatedEntries = 0;  // cached tables dropped by rebind()
  std::size_t fullInvalidations = 0;   // rebinds that wiped the whole cache
  std::size_t targetedInvalidations = 0;  // rebinds attributed to prefixes
  std::size_t parallelBatches = 0;  // violations()/infer() calls that fanned out
  std::size_t parallelTasks = 0;    // destination-shard tasks submitted

  double hitRate() const {
    const std::size_t total = routeHits + routeMisses;
    return total == 0 ? 0.0 : static_cast<double>(routeHits) / total;
  }
};

class SimulationEngine {
 public:
  /// Binds to a deep copy of `tree`. `workers` sizes the internal thread
  /// pool (0 = hardware concurrency); the pool is created lazily on the
  /// first call that fans out.
  explicit SimulationEngine(const ConfigTree& tree, std::size_t workers = 0);
  ~SimulationEngine();

  SimulationEngine(const SimulationEngine&) = delete;
  SimulationEngine& operator=(const SimulationEngine&) = delete;

  /// Re-binds to `tree`, dropping every cached route table.
  void rebind(const ConfigTree& tree);

  /// Re-binds to `tree`, invalidating only destinations whose routes can be
  /// affected by the given patches. The patches must cover every edit in
  /// which the previously-bound tree and `tree` differ (passing the old and
  /// new merged patch relative to a common base is the intended use; extra
  /// edits only cost precision, never correctness). Edits that cannot be
  /// attributed to a prefix (new adjacencies, redistributions, interface
  /// address changes, ...) trigger a full invalidation; packet-filter edits
  /// invalidate nothing because packet filters never influence route tables.
  void rebind(const ConfigTree& tree, const std::vector<const Patch*>& changes);

  const Topology& topology() const { return topo_; }

  /// Converged best route per router for traffic destined to `dst`,
  /// memoized. The reference stays valid until the next rebind().
  const std::map<std::string, RouteEntry>& computeRoutes(
      const Ipv4Prefix& dst, const Environment& env = {}) const;

  bool deliversLocally(const std::string& router, const Ipv4Prefix& dst) const;

  ForwardResult forward(const TrafficClass& cls, const std::string& srcRouter,
                        const Environment& env = {}) const;

  std::vector<std::string> sourceRouters(const TrafficClass& cls) const;

  bool checkPolicy(const Policy& policy) const;

  /// All violated policies, in the input order (deterministic merge of the
  /// parallel per-destination verdicts).
  PolicySet violations(const PolicySet& policies) const;

  /// Same output as Simulator::inferReachabilityPolicies(), computed in
  /// parallel across destination subnets.
  PolicySet inferReachabilityPolicies() const;

  SimCacheStats cacheStats() const;

 private:
  // ---- compiled per-tree structure (rebuilt by compile()) ----
  struct CompiledRouteRule {
    std::optional<Ipv4Prefix> prefix;  // nullopt never matches (as in the oracle)
    bool deny = false;
    int lp = kDefaultLp;
    int med = kDefaultMed;
  };
  struct CompiledPacketRule {
    std::optional<Ipv4Prefix> srcPrefix;
    std::optional<Ipv4Prefix> dstPrefix;
    bool permit = false;
  };
  struct CompiledAdjacency {
    std::size_t peerRouter = 0;  // index into routers_
    std::size_t peerProc = 0;    // index into routers_[peerRouter].procs
    int filter = -1;             // index into routeFilters_; -1 = permit all
    int cost = 1;
  };
  struct CompiledProc {
    bool isBgp = false;
    bool originates(const Ipv4Prefix& dst) const;
    std::vector<Ipv4Prefix> origPrefixes;
    std::vector<std::string> redistributeFrom;
    // Only viable sessions survive compilation: physically connected peers
    // that configure the adjacency back and run a process of the same type.
    std::vector<CompiledAdjacency> adjacencies;
  };
  struct CompiledStatic {
    Ipv4Prefix prefix;
    // Neighbor candidates (router indices) whose shared-link subnet contains
    // the nexthop and whose address equals it, in sorted-neighbor order; the
    // first one with an up link resolves the route.
    std::vector<std::size_t> candidates;
  };
  struct PacketBinding {
    int out = -1;  // compiled packet-filter indices; -1 = permit all
    int in = -1;
  };
  struct CompiledRouter {
    std::string name;
    std::vector<CompiledProc> procs;      // non-static, document order
    std::vector<CompiledStatic> statics;  // document order
    std::vector<Ipv4Prefix> localPrefixes;  // stubs + non-static originations
    std::map<std::size_t, PacketBinding> bindings;  // by neighbor index
  };

  // ---- route-table cache, sharded by destination ----
  using EnvKey = std::vector<std::pair<std::string, std::string>>;
  struct DstShard {
    std::mutex mutex;
    // Node-based: a cached table never moves until its shard is dropped.
    std::map<EnvKey, std::map<std::string, RouteEntry>> tables;
  };

  void compile();
  std::size_t routerIndex(const std::string& name) const;  // npos if absent
  RouteEntry resolveStatic(const CompiledRouter& router, const Ipv4Prefix& dst,
                           const Environment& env) const;
  std::map<std::string, RouteEntry> convergeRoutes(const Ipv4Prefix& dst,
                                                   const Environment& env) const;
  bool packetAllowed(int filter, const TrafficClass& cls) const;
  DstShard& shardFor(const Ipv4Prefix& dst) const;
  void invalidateAll();
  void invalidatePrefixes(const std::vector<Ipv4Prefix>& prefixes);
  ThreadPool& pool() const;

  ConfigTree tree_;  // owned deep copy of the bound tree
  Topology topo_;
  std::size_t workers_;  // resolved: never 0

  std::vector<CompiledRouter> routers_;  // sorted by name (oracle iteration order)
  std::map<std::string, std::size_t, std::less<>> routerIndex_;
  std::vector<std::vector<CompiledRouteRule>> routeFilters_;
  std::vector<std::vector<CompiledPacketRule>> packetFilters_;
  std::vector<std::pair<Ipv4Prefix, std::string>> stubs_;  // subnet -> owner

  mutable std::mutex shardsMutex_;  // guards the shard map, not the shards
  mutable std::map<Ipv4Prefix, std::unique_ptr<DstShard>> shards_;

  mutable std::once_flag poolOnce_;
  mutable std::unique_ptr<ThreadPool> pool_;

  mutable std::atomic<std::size_t> routeHits_{0};
  mutable std::atomic<std::size_t> routeMisses_{0};
  std::atomic<std::size_t> invalidatedEntries_{0};
  std::atomic<std::size_t> fullInvalidations_{0};
  std::atomic<std::size_t> targetedInvalidations_{0};
  mutable std::atomic<std::size_t> parallelBatches_{0};
  mutable std::atomic<std::size_t> parallelTasks_{0};
};

}  // namespace aed
