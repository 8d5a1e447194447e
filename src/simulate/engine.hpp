// Memoized simulation engine.
//
// The concrete simulator (simulate/simulator.hpp) is AED's independent
// oracle: the tests, aed_check and the benchmark check this engine and every
// synthesized patch against it, and the evaluation harness uses it to mine
// policies from configurations. The plain Simulator is deliberately simple —
// it re-derives all per-router structure and re-runs route convergence from
// scratch for every (policy, source) pair. That cost is linear in the number
// of policies even when hundreds of them share a handful of destinations.
//
// SimulationEngine is the production path. It produces bit-identical
// verdicts and route tables (asserted by tests/engine_test.cpp) while
// attacking the two sources of repeated work:
//
//  1. **Compilation.** All tree-shaped inputs — routing processes,
//     adjacencies (with the symmetric-peer check pre-resolved), origination
//     and redistribution lists, seq-sorted route/packet filter rules, the
//     stub-subnet index behind deliversLocally()/sourceRouters(), and the
//     interface→packet-filter bindings — are gathered once, at
//     construction, instead of inside every computeRoutes()/forward() call.
//  2. **Memoization.** Converged route tables are cached keyed by
//     (destination prefix, canonicalized Environment). N policies over the
//     same destination pay one convergence instead of N×sources.
//
// What the engine computes on its own is everything above: the compiled
// structure, and over it the route fixpoint, static-route resolution, local
// delivery and packet-filter verdicts (filterAllows()) and the memoized
// tables. What it shares with the oracle only sequences or compares those
// results: the forwarding walk and the per-kind policy checks
// (simulate/walk.hpp), structuralPolicyCheck() and the route comparators.
// So the engine-vs-oracle checks still compare two independent
// computations.
//
// An engine serves one thread at a time: violations() checks on the calling
// thread and the cache takes no lock. A check costs about a millisecond on
// the benchmark's networks, so threads are spent only on the
// per-destination solves (core/aed.cpp).
//
// An engine is bound to the one tree it is built with: it compiles that
// tree and keeps no reference to it, so the caller's tree may die first.
// Checking a different tree means building a new engine — one per repair
// round in core/aed.cpp, and one per candidate or stage in src/apply.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "simulate/simulator.hpp"
#include "util/ipv4.hpp"

namespace aed {

/// Snapshot of the engine's cache behavior, cumulative since construction.
/// Surfaced through AedStats (summed over a run's engines) and aed_cli.
struct SimCacheStats {
  std::size_t routeHits = 0;    // route-table lookups served from cache
  std::size_t routeMisses = 0;  // lookups that ran a fresh convergence

  double hitRate() const {
    const std::size_t total = routeHits + routeMisses;
    return total == 0 ? 0.0 : static_cast<double>(routeHits) / total;
  }

  /// Element-wise sum (for totals across engines).
  void accumulate(const SimCacheStats& other) {
    routeHits += other.routeHits;
    routeMisses += other.routeMisses;
  }
};

class SimulationEngine {
 public:
  /// Compiles `tree`. The second parameter is ignored: it keeps the
  /// benchmark harness's (tree, workers) calls compiling.
  explicit SimulationEngine(const ConfigTree& tree, std::size_t = 0);

  SimulationEngine(const SimulationEngine&) = delete;
  SimulationEngine& operator=(const SimulationEngine&) = delete;

  /// Converged best route per router for traffic destined to `dst`,
  /// memoized. The reference stays valid for the engine's lifetime.
  const std::map<std::string, RouteEntry>& computeRoutes(
      const Ipv4Prefix& dst, const Environment& env = {}) const;

  bool deliversLocally(const std::string& router, const Ipv4Prefix& dst) const;

  ForwardResult forward(const TrafficClass& cls, const std::string& srcRouter,
                        const Environment& env = {}) const;

  /// Simulator::filterAllows over the compiled bindings.
  bool filterAllows(const std::string& router, const std::string& other,
                    bool ingress, const TrafficClass& cls) const;

  std::vector<std::string> sourceRouters(const TrafficClass& cls) const;

  bool checkPolicy(const Policy& policy) const;

  /// All violated policies, in the input order.
  PolicySet violations(const PolicySet& policies) const;

  SimCacheStats cacheStats() const;

 private:
  // ---- compiled structure of the bound tree (built by compile()) ----
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
    std::map<std::string, PacketBinding> bindings;  // by neighbor name
  };

  // Route-table cache key: the destination and the environment's down
  // links, each link ordered and the list sorted.
  using TableKey =
      std::pair<Ipv4Prefix, std::vector<std::pair<std::string, std::string>>>;

  void compile(const ConfigTree& tree);
  std::size_t routerIndex(const std::string& name) const;  // npos if absent
  RouteEntry resolveStatic(const CompiledRouter& router, const Ipv4Prefix& dst,
                           const Environment& env) const;
  std::map<std::string, RouteEntry> convergeRoutes(const Ipv4Prefix& dst,
                                                   const Environment& env) const;

  std::vector<CompiledRouter> routers_;  // sorted by name (oracle iteration order)
  std::map<std::string, std::size_t, std::less<>> routerIndex_;
  std::vector<std::vector<CompiledRouteRule>> routeFilters_;
  std::vector<std::vector<CompiledPacketRule>> packetFilters_;
  std::vector<std::pair<Ipv4Prefix, std::string>> stubs_;  // subnet -> owner

  // Node-based: a cached table never moves once inserted.
  mutable std::map<TableKey, std::map<std::string, RouteEntry>> tables_;
  mutable SimCacheStats stats_;
};

}  // namespace aed
