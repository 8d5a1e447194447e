#include "simulate/simulator.hpp"

#include <algorithm>

#include "simulate/walk.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

// One routing process's view of the destination during iteration.
struct ProcState {
  RouteEntry best;
};

// Identifies a process by (router, type). The model allows one process of
// each type per router, which covers the paper's networks.
using ProcKey = std::pair<std::string, std::string>;

// Route filter application: first rule whose prefix covers `dst` decides.
// Returns nullopt if denied (explicitly or by the implicit trailing deny);
// otherwise the (local-preference, med) the filter assigns (defaults when
// the matching rule sets none).
std::optional<std::pair<int, int>> applyRouteFilter(const Node* filter,
                                                    const Ipv4Prefix& dst) {
  if (filter == nullptr) {
    return std::pair(kDefaultLp, kDefaultMed);  // no filter: permit all
  }
  auto rules = filter->childrenOfKind(NodeKind::kRouteFilterRule);
  std::sort(rules.begin(), rules.end(), [](const Node* a, const Node* b) {
    return a->intAttr("seq") < b->intAttr("seq");
  });
  for (const Node* rule : rules) {
    const auto rulePrefix = Ipv4Prefix::parse(rule->attr("prefix"));
    if (!rulePrefix || !rulePrefix->contains(dst)) continue;
    if (rule->attr("action") == "deny") return std::nullopt;
    const int lp =
        rule->intAttr("lp", kDefaultLp);
    const int med =
        rule->intAttr("med", kDefaultMed);
    return std::pair(lp, med);
  }
  return std::nullopt;  // implicit deny
}

// Packet filter application: first rule covering (src,dst) decides; implicit
// trailing deny. A missing filter permits everything.
bool packetFilterAllows(const Node* filter, const TrafficClass& cls) {
  if (filter == nullptr) return true;
  auto rules = filter->childrenOfKind(NodeKind::kPacketFilterRule);
  std::sort(rules.begin(), rules.end(), [](const Node* a, const Node* b) {
    return a->intAttr("seq") < b->intAttr("seq");
  });
  for (const Node* rule : rules) {
    const auto srcPrefix = Ipv4Prefix::parse(rule->attr("srcPrefix"));
    const auto dstPrefix = Ipv4Prefix::parse(rule->attr("dstPrefix"));
    if (!srcPrefix || !dstPrefix) continue;
    if (srcPrefix->contains(cls.src) && dstPrefix->contains(cls.dst)) {
      return rule->attr("action") == "permit";
    }
  }
  return false;  // implicit deny
}

bool protocolBetter(const std::string& type, const RouteEntry& a,
                    const RouteEntry& b) {
  return type == "bgp" ? bgpRouteBetter(a, b) : ospfRouteBetter(a, b);
}

}  // namespace

// BGP preference: higher lp, then lower path cost, then lower med, then
// lower neighbor name (§2: "highest local preference; if they are equal,
// then the shortest path length, and so on").
bool bgpRouteBetter(const RouteEntry& a, const RouteEntry& b) {
  if (!b.valid) return a.valid;
  if (!a.valid) return false;
  if (a.lp != b.lp) return a.lp > b.lp;
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.med != b.med) return a.med < b.med;
  return a.viaNeighbor < b.viaNeighbor;
}

// OSPF preference: lower cost, then lower neighbor name.
bool ospfRouteBetter(const RouteEntry& a, const RouteEntry& b) {
  if (!b.valid) return a.valid;
  if (!a.valid) return false;
  if (a.cost != b.cost) return a.cost < b.cost;
  return a.viaNeighbor < b.viaNeighbor;
}

std::optional<bool> structuralPolicyCheck(
    const Policy& policy, const std::vector<std::string>& sourceRouters) {
  switch (policy.kind) {
    case PolicyKind::kReachability:
    case PolicyKind::kWaypoint:
      if (sourceRouters.empty()) return false;
      return std::nullopt;
    case PolicyKind::kBlocking:
      if (sourceRouters.empty()) return true;
      return std::nullopt;
    case PolicyKind::kIsolation:
      // The first class's edge set is empty: nothing to share.
      if (sourceRouters.empty()) return true;
      return std::nullopt;
    case PolicyKind::kPathPreference:
      // A primary path needs at least two routers: the policy's failure
      // environment downs the primary's *first link*, which a
      // single-router path does not have.
      if (policy.primaryPath.size() < 2 || policy.alternatePath.empty()) {
        return false;
      }
      return std::nullopt;
  }
  return std::nullopt;
}

Simulator::Simulator(const ConfigTree& tree)
    : tree_(tree), topo_(Topology::fromConfigs(tree)) {}

bool Simulator::deliversLocally(const std::string& router,
                                const Ipv4Prefix& dst) const {
  for (const auto& [subnet, owner] : topo_.stubSubnets()) {
    if (owner == router && subnet.contains(dst)) return true;
  }
  const Node* node = tree_.router(router);
  if (node == nullptr) return false;
  for (const Node* proc : node->childrenOfKind(NodeKind::kRoutingProcess)) {
    if (proc->attr("type") == "static") continue;
    for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
      const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
      if (prefix && prefix->contains(dst)) return true;
    }
  }
  return false;
}

std::map<std::string, RouteEntry> Simulator::computeRoutes(
    const Ipv4Prefix& dst, const Environment& env) const {
  // --- Gather per-router structure once. ---
  struct AdjInfo {
    std::string peer;
    const Node* filterIn;  // may be null
    int cost = 1;          // OSPF link cost (BGP hops always count 1)
  };
  struct ProcInfo {
    const Node* node;
    std::string type;
    bool originates = false;
    std::vector<std::string> redistributeFrom;
    std::vector<AdjInfo> adjacencies;
  };
  std::map<std::string, std::vector<ProcInfo>> procsOf;
  std::map<ProcKey, ProcState> state;

  for (const Node* router : tree_.routers()) {
    for (const Node* proc : router->childrenOfKind(NodeKind::kRoutingProcess)) {
      const std::string type = proc->attr("type");
      if (type == "static") continue;  // handled at router level
      ProcInfo info;
      info.node = proc;
      info.type = type;
      for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
        const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
        if (prefix && prefix->contains(dst)) info.originates = true;
      }
      for (const Node* redist :
           proc->childrenOfKind(NodeKind::kRedistribution)) {
        info.redistributeFrom.push_back(redist->attr("from"));
      }
      for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
        AdjInfo ai;
        ai.peer = adj->attr("peer");
        ai.filterIn = adj->hasAttr("filterIn")
                          ? proc->findChild(NodeKind::kRouteFilter,
                                            adj->attr("filterIn"))
                          : nullptr;
        if (type == "ospf" && adj->hasAttr("cost")) {
          ai.cost = adj->intAttr("cost");
        }
        info.adjacencies.push_back(std::move(ai));
      }
      state[{router->name(), type}] = ProcState{};
      procsOf[router->name()].push_back(std::move(info));
    }
  }

  // Static route of a router covering dst, if any.
  const auto staticRoute = [this, &dst, &env](const std::string& router)
      -> RouteEntry {
    RouteEntry entry;
    const Node* node = tree_.router(router);
    if (node == nullptr) return entry;
    for (const Node* proc : node->childrenOfKind(NodeKind::kRoutingProcess)) {
      if (proc->attr("type") != "static") continue;
      for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
        const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
        const auto nexthop = Ipv4Address::parse(orig->attr("nexthop"));
        if (!prefix || !nexthop || !prefix->contains(dst)) continue;
        // Resolve the next hop to a neighboring router across an up link.
        for (const std::string& neighbor : topo_.neighbors(router)) {
          const auto link = topo_.linkBetween(router, neighbor);
          if (!link || !link->subnet.contains(*nexthop)) continue;
          if (!env.linkUp(router, neighbor)) continue;
          const auto peerAddr = topo_.addressOn(neighbor, router);
          if (peerAddr && *peerAddr == *nexthop) {
            entry.valid = true;
            entry.ad = kAdStatic;
            entry.protocol = "static";
            entry.viaNeighbor = neighbor;
            entry.cost = 0;
            return entry;
          }
        }
      }
    }
    return entry;
  };

  // Whether `router` has an adjacency to `peer` in its process of `type`.
  const auto hasAdjacency = [&procsOf](const std::string& router,
                                       const std::string& type,
                                       const std::string& peer) {
    const auto it = procsOf.find(router);
    if (it == procsOf.end()) return false;
    for (const ProcInfo& info : it->second) {
      if (info.type != type) continue;
      for (const AdjInfo& adj : info.adjacencies) {
        if (adj.peer == peer) return true;
      }
    }
    return false;
  };

  // --- Iterate to fixpoint. ---
  const int maxIterations =
      4 * static_cast<int>(topo_.routerNames().size()) + 8;
  bool changed = true;
  int iteration = 0;
  while (changed && iteration++ < maxIterations) {
    changed = false;
    for (auto& [routerName, infos] : procsOf) {
      for (const ProcInfo& info : infos) {
        RouteEntry best;
        // Candidate: own origination.
        if (info.originates) {
          RouteEntry orig;
          orig.valid = true;
          orig.cost = 0;
          orig.lp = kDefaultLp;
          orig.protocol = info.type;
          orig.ad = info.type == "bgp" ? kAdBgp : kAdOspf;
          if (protocolBetter(info.type, orig, best)) best = orig;
        }
        // Candidates: redistribution from other sources on this router.
        for (const std::string& from : info.redistributeFrom) {
          bool sourceValid = false;
          if (from == "connected") {
            sourceValid = deliversLocally(routerName, dst);
          } else if (from == "static") {
            sourceValid = staticRoute(routerName).valid;
          } else {
            const auto it = state.find({routerName, from});
            sourceValid = it != state.end() && it->second.best.valid;
          }
          if (sourceValid) {
            RouteEntry redist;
            redist.valid = true;
            redist.cost = 0;
            redist.lp = kDefaultLp;
            redist.protocol = info.type;
            redist.ad = info.type == "bgp" ? kAdBgp : kAdOspf;
            if (protocolBetter(info.type, redist, best)) best = redist;
          }
        }
        // Candidates: advertisements from adjacent processes. A session is
        // up only if both ends configure the adjacency and the link is up.
        for (const AdjInfo& adj : info.adjacencies) {
          if (!topo_.connected(routerName, adj.peer)) continue;
          if (!env.linkUp(routerName, adj.peer)) continue;
          if (!hasAdjacency(adj.peer, info.type, routerName)) continue;
          const auto peerState = state.find({adj.peer, info.type});
          if (peerState == state.end() || !peerState->second.best.valid) {
            continue;
          }
          // Split horizon: a process never advertises its best route back to
          // the neighbor it selected it from. This guarantees convergence in
          // the presence of import-assigned local preferences (without it,
          // two routers can mutually prefer each other's re-advertisements
          // and count to infinity). The SMT encoding applies the same rule.
          if (peerState->second.best.viaNeighbor == routerName) continue;
          const auto action = applyRouteFilter(adj.filterIn, dst);
          if (!action) continue;  // filtered out
          RouteEntry in;
          in.valid = true;
          in.cost = peerState->second.best.cost + adj.cost;
          in.lp = info.type == "bgp" ? action->first : kDefaultLp;
          in.med = info.type == "bgp" ? action->second : kDefaultMed;
          in.protocol = info.type;
          in.ad = info.type == "bgp" ? kAdBgp : kAdOspf;
          in.viaNeighbor = adj.peer;
          if (protocolBetter(info.type, in, best)) best = in;
        }
        ProcState& procState = state[{routerName, info.type}];
        if (!(procState.best == best)) {
          procState.best = best;
          changed = true;
        }
      }
    }
  }
  if (changed) {
    logWarn() << "route computation for " << dst.str()
              << " did not converge within " << maxIterations
              << " iterations";
  }

  // --- Router-level selection by administrative distance. ---
  std::map<std::string, RouteEntry> result;
  for (const std::string& router : topo_.routerNames()) {
    RouteEntry best;
    if (deliversLocally(router, dst)) {
      best.valid = true;
      best.ad = kAdConnected;
      best.protocol = "connected";
      result[router] = best;
      continue;
    }
    const RouteEntry stat = staticRoute(router);
    if (stat.valid) best = stat;
    const auto consider = [&best](const RouteEntry& entry) {
      if (entry.valid && (!best.valid || entry.ad < best.ad)) best = entry;
    };
    for (const std::string& type : {std::string("bgp"), std::string("ospf")}) {
      const auto it = state.find({router, type});
      if (it != state.end()) consider(it->second.best);
    }
    result[router] = best;
  }
  return result;
}

std::vector<std::string> Simulator::sourceRouters(
    const TrafficClass& cls) const {
  std::vector<std::string> out;
  for (const auto& [subnet, router] : topo_.stubSubnets()) {
    if (subnet.overlaps(cls.src)) out.push_back(router);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

ForwardResult Simulator::forward(const TrafficClass& cls,
                                 const std::string& srcRouter,
                                 const Environment& env) const {
  return walkForward(*this, cls, srcRouter, env);
}

bool Simulator::filterAllows(const std::string& router,
                             const std::string& other, bool ingress,
                             const TrafficClass& cls) const {
  const Node* iface = topo_.interfaceTowards(tree_, router, other);
  const char* direction = ingress ? "pfilterIn" : "pfilterOut";
  if (iface == nullptr || !iface->hasAttr(direction)) return true;
  return packetFilterAllows(
      iface->parent()->findChild(NodeKind::kPacketFilter,
                                 iface->attr(direction)),
      cls);
}

bool Simulator::checkPolicy(const Policy& policy) const {
  return policyHolds(*this, policy);
}

PolicySet Simulator::violations(const PolicySet& policies) const {
  PolicySet violated;
  for (const Policy& policy : policies) {
    if (!checkPolicy(policy)) violated.push_back(policy);
  }
  return violated;
}

PolicySet Simulator::inferReachabilityPolicies() const {
  PolicySet policies;
  const auto& stubs = topo_.stubSubnets();
  for (const auto& [srcSubnet, srcRouter] : stubs) {
    for (const auto& [dstSubnet, dstRouter] : stubs) {
      if (srcSubnet == dstSubnet) continue;
      const TrafficClass cls{srcSubnet, dstSubnet};
      const ForwardResult fwd = forward(cls, srcRouter);
      policies.push_back(fwd.delivered ? Policy::reachability(cls)
                                       : Policy::blocking(cls));
    }
  }
  return policies;
}

}  // namespace aed
