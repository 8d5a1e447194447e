// Delta variables: the symbols of AED's configuration sketch (§5.1).
//
// A delta variable encodes one potential syntax-tree addition, removal, or
// numeric modification. AED creates one for every *current* node that could
// be removed/modified and every *potential* node that could be added
// (potential nodes are derived from the physical topology — e.g. potential
// adjacencies — and from the forwarding policies — e.g. potential per-prefix
// filter rules, §5.1). The MaxSMT solver assigns the variables; non-false /
// non-zero assignments become patch edits.
#pragma once

#include <string>

#include "policy/policy.hpp"
#include "util/ipv4.hpp"

namespace aed {

enum class DeltaKind {
  // Removals / modifications of current nodes.
  kRemoveProcess,          // disable a routing process
  kRemoveAdjacency,        // remove a neighbor statement
  kRemoveOrigination,      // stop originating a prefix / drop a static route
  kRemoveRedistribution,   // stop redistributing
  kRemoveRouteFilterRule,  // delete a route-filter rule
  kFlipRouteFilterRule,    // invert a route-filter rule's permit/deny
  kSetRouteFilterRuleLp,   // change a rule's local-preference assignment
  kSetRouteFilterRuleMed,  // change a rule's MED assignment
  kSetAdjacencyCost,       // change an OSPF adjacency's link cost
  kRemovePacketFilterRule, // delete a packet-filter rule
  kFlipPacketFilterRule,   // invert a packet-filter rule's permit/deny

  // Additions of potential nodes.
  kAddAdjacency,           // add a neighbor statement towards `peer`
  kAddOrigination,         // originate `prefix` from a process
  kAddRedistribution,      // redistribute `fromProto` into a process
  kAddRouteFilterRule,     // prepend a rule for `prefix` to an import filter
  kAddPacketFilterRule,    // prepend a rule for `cls` to a packet filter
  kAddStaticRoute,         // static route for `prefix` via `peer`
};

std::string deltaKindName(DeltaKind kind);

/// True for kinds that represent additions of potential nodes.
bool isAddKind(DeltaKind kind);

struct DeltaVar {
  std::string name;   // unique, deterministic, e.g. "rm_B_bgp.65002_Adj_A"
  DeltaKind kind = DeltaKind::kRemoveAdjacency;
  std::string router;

  /// For removals/modifications: the path() of the affected node.
  /// For additions: the path() of the node under which the addition happens
  /// (process for adjacencies/originations, filter for rules, adjacency for
  /// rules on a not-yet-existing import filter, router for static routes).
  std::string nodePath;

  /// Routing-process type the delta belongs to ("bgp", "ospf", "static");
  /// empty for packet-filter deltas.
  std::string procType;

  // ---- addition payload ----
  std::string peer;       // kAddAdjacency / kAddStaticRoute: peer router
  std::string fromProto;  // kAddRedistribution: redistribution source
  bool hasPrefix = false;
  Ipv4Prefix prefix;      // per-destination specialization (§6.2)
  bool hasCls = false;
  TrafficClass cls;       // per-class-pair specialization for packet filters

  /// The path of the syntax-tree node this delta affects. For removals and
  /// modifications this is nodePath itself; for additions it is the path the
  /// *potential* node would have once added (e.g. an add-static-route delta
  /// yields .../RoutingProcess[type=static,name=main]/Origination[prefix=P]),
  /// so that objective expressions like
  /// `ELIMINATE //RoutingProcess[type="static"]/Origination` cover potential
  /// nodes exactly like current ones (§5.1: "AED creates a delta variable
  /// for each current and potential node in the syntax tree").
  std::string virtualPath() const;

  /// Key identifying the delta's position *within* an enclosing subtree,
  /// used to align deltas across routers/subtrees for EQUATE: the node path
  /// with the given subtree-root prefix stripped, plus kind and
  /// specialization. Returns nullopt-like empty string if nodePath is not
  /// under `subtreeRoot`.
  std::string relativeKey(const std::string& subtreeRoot) const;
};

}  // namespace aed
