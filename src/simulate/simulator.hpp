// Concrete control-plane simulator.
//
// This is the ground-truth oracle of the repository: it computes, for a
// given destination class, the converged routes and the per-class forwarding
// behavior implied by a configuration tree — by actually iterating route
// propagation/selection to a fixed point, independently of the SMT encoding.
// Every patch AED (or a baseline) synthesizes is validated against this
// simulator, and the evaluation harness uses it to *infer* reachability
// policies from configurations the way the paper used Minesweeper on its
// datacenter snapshots.
//
// What the oracle computes on its own, from the tree on every call: the
// route fixpoint, static-route resolution, local delivery and packet-filter
// verdicts. The memoized SimulationEngine (simulate/engine.hpp) computes the
// same four from its compiled structure. The two share what only sequences
// or compares those results — the forwarding walk and the per-kind policy
// checks (simulate/walk.hpp), structuralPolicyCheck() and the route
// comparators below — so an engine-vs-oracle comparison tests exactly the
// code that differs; a comparison of shared code with itself could not fail.
//
// Model (matching §2 and Appendix A):
//  * protocols: connected (ad 0), static (ad 1), eBGP (ad 20), OSPF (ad 110)
//  * BGP selection: highest local-preference, then lowest path cost, then
//    lowest neighbor name (deterministic tie-break); OSPF: lowest cost
//  * route filters apply on import per adjacency (deny / permit+set lp)
//  * redistribution injects the source protocol's best route as an
//    origination of the target process
//  * packet filters apply on egress and ingress of each inter-router link
//  * single best route per router (no ECMP, §2 footnote 1)
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "topology/topology.hpp"
#include "util/ipv4.hpp"

namespace aed {

/// Administrative distances used throughout the repo (simulator + encoder).
inline constexpr int kAdConnected = 0;
inline constexpr int kAdStatic = 1;
inline constexpr int kAdBgp = 20;
inline constexpr int kAdOspf = 110;
/// Default BGP local preference when no filter sets one.
inline constexpr int kDefaultLp = 100;

/// Default BGP multi-exit discriminator when no filter sets one.
inline constexpr int kDefaultMed = 0;

struct RouteEntry {
  bool valid = false;
  int ad = 255;
  int lp = kDefaultLp;   // only meaningful for BGP
  int med = kDefaultMed; // only meaningful for BGP
  int cost = 0;          // hop count / OSPF cost
  std::string protocol;  // "connected", "static", "bgp", "ospf"
  std::string viaNeighbor;  // next-hop router name; "" if local delivery

  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// Protocol preference orders (§2: highest local preference, then shortest
/// path, then lowest MED, then deterministic neighbor tie-break for BGP;
/// lowest cost then neighbor tie-break for OSPF). Shared by the serial
/// oracle and the memoized SimulationEngine so their tie-breaks agree
/// bit-for-bit.
bool bgpRouteBetter(const RouteEntry& a, const RouteEntry& b);
bool ospfRouteBetter(const RouteEntry& a, const RouteEntry& b);

/// A set of failed links, keyed by unordered router pair. Used by
/// path-preference policies ("alternate path taken when primary is down").
struct Environment {
  std::set<std::pair<std::string, std::string>> downLinks;

  bool linkUp(const std::string& a, const std::string& b) const {
    return downLinks.count({a, b}) == 0 && downLinks.count({b, a}) == 0;
  }
  static Environment allUp() { return {}; }
  static Environment withDownLink(std::string a, std::string b) {
    Environment env;
    env.downLinks.insert({std::move(a), std::move(b)});
    return env;
  }
};

/// Why a forwarding walk stopped short of delivery.
enum class DropKind {
  kNone,  // delivered
  kLoop,
  kNoRoute,
  kLinkDown,
  kEgressFilter,
  kIngressFilter,
};

struct ForwardResult {
  bool delivered = false;
  std::vector<std::string> path;  // routers visited, starting at the source
  DropKind drop = DropKind::kNone;
  /// The router the drop names: where the loop closed or the route is
  /// missing, the near end of the down link, or the dropping filter's router.
  std::string dropAt;
  std::string dropReason;  // "" when delivered
};

class Simulator {
 public:
  /// The tree must outlive the simulator (rvalues are rejected to prevent
  /// binding a temporary).
  explicit Simulator(const ConfigTree& tree);
  explicit Simulator(ConfigTree&&) = delete;

  const Topology& topology() const { return topo_; }

  /// Converged best route per router for traffic destined to `dst`.
  std::map<std::string, RouteEntry> computeRoutes(
      const Ipv4Prefix& dst, const Environment& env = {}) const;

  /// True if `router` delivers `dst` locally (stub subnet or origination
  /// covering dst).
  bool deliversLocally(const std::string& router, const Ipv4Prefix& dst) const;

  /// Walks the forwarding path for `cls` starting at `srcRouter`.
  ForwardResult forward(const TrafficClass& cls, const std::string& srcRouter,
                        const Environment& env = {}) const;

  /// Whether the packet filter `router` binds on its interface towards
  /// `other` — inbound if `ingress`, else outbound — permits `cls`. A missing
  /// binding or filter permits everything.
  bool filterAllows(const std::string& router, const std::string& other,
                    bool ingress, const TrafficClass& cls) const;

  /// Routers attached to the class's source prefix (entry points).
  std::vector<std::string> sourceRouters(const TrafficClass& cls) const;

  /// Checks a single policy (internally builds failure environments for
  /// path-preference policies).
  bool checkPolicy(const Policy& policy) const;

  /// All policies from `policies` that the configuration violates, in the
  /// input order. Policies decidable structurally (see
  /// structuralPolicyCheck) are settled without running forwarding.
  PolicySet violations(const PolicySet& policies) const;

  /// Infers the reachability/blocking status of every ordered pair of stub
  /// subnets: reachable pairs become Reachability policies, unreachable
  /// pairs Blocking policies. This mirrors the paper's policy mining on the
  /// datacenter snapshots.
  PolicySet inferReachabilityPolicies() const;

 private:
  const ConfigTree& tree_;
  Topology topo_;
};

/// Cheap structural verdict for `policy` given its source routers — the
/// rejections (and acceptances) decidable without computing any routes:
///   * reachability / waypoint with no source router: unsatisfied;
///   * blocking with no source router: satisfied (nothing can leak);
///   * isolation with no source router for the first class: satisfied
///     (its edge set is empty);
///   * path preference whose primary path has fewer than two hops or whose
///     alternate path is empty: unsatisfied (a failure environment for the
///     primary's first link cannot even be formed).
/// Returns nullopt when a full forwarding simulation is required. Shared by
/// Simulator and SimulationEngine so their fast paths agree bit-for-bit.
std::optional<bool> structuralPolicyCheck(
    const Policy& policy, const std::vector<std::string>& sourceRouters);

}  // namespace aed
