#include "simulate/engine.hpp"

#include <algorithm>

#include "conftree/node.hpp"
#include "obs/trace.hpp"
#include "simulate/walk.hpp"
#include "topology/topology.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

constexpr std::size_t kNoRouter = static_cast<std::size_t>(-1);

}  // namespace

bool SimulationEngine::CompiledProc::originates(const Ipv4Prefix& dst) const {
  for (const Ipv4Prefix& prefix : origPrefixes) {
    if (prefix.contains(dst)) return true;
  }
  return false;
}

SimulationEngine::SimulationEngine(const ConfigTree& tree, std::size_t) {
  compile(tree);
}

void SimulationEngine::compile(const ConfigTree& tree) {
  const Topology topo = Topology::fromConfigs(tree);
  stubs_.assign(topo.stubSubnets().begin(), topo.stubSubnets().end());

  // Routers sorted by name: the oracle iterates a name-keyed map, and the
  // Gauss-Seidel fixpoint sweep is order-sensitive, so bit-identical tables
  // require the identical sweep order.
  std::vector<const Node*> routerNodes;
  for (const Node* node : tree.routers()) routerNodes.push_back(node);
  std::sort(routerNodes.begin(), routerNodes.end(),
            [](const Node* a, const Node* b) { return a->name() < b->name(); });

  routers_.resize(routerNodes.size());
  for (std::size_t i = 0; i < routerNodes.size(); ++i) {
    routers_[i].name = routerNodes[i]->name();
    routerIndex_[routers_[i].name] = i;
  }

  // Raw adjacency info retained until every proc exists, so the symmetric
  // session check (both ends configure the adjacency) can be pre-resolved.
  struct RawAdj {
    std::string peer;
    int filter = -1;
    int cost = 1;
  };
  std::vector<std::vector<std::string>> procTypes(routers_.size());
  std::vector<std::vector<std::vector<RawAdj>>> rawAdjs(routers_.size());

  std::map<const Node*, int> routeFilterCache;
  const auto compileRouteFilter = [this, &routeFilterCache](const Node* filter) {
    if (filter == nullptr) return -1;
    const auto cached = routeFilterCache.find(filter);
    if (cached != routeFilterCache.end()) return cached->second;
    auto rules = filter->childrenOfKind(NodeKind::kRouteFilterRule);
    std::sort(rules.begin(), rules.end(), [](const Node* a, const Node* b) {
      return a->intAttr("seq") < b->intAttr("seq");
    });
    std::vector<CompiledRouteRule> compiled;
    compiled.reserve(rules.size());
    for (const Node* rule : rules) {
      CompiledRouteRule r;
      r.prefix = Ipv4Prefix::parse(rule->attr("prefix"));
      r.deny = rule->attr("action") == "deny";
      r.lp = rule->intAttr("lp", kDefaultLp);
      r.med = rule->intAttr("med", kDefaultMed);
      compiled.push_back(r);
    }
    const int index = static_cast<int>(routeFilters_.size());
    routeFilters_.push_back(std::move(compiled));
    routeFilterCache[filter] = index;
    return index;
  };

  std::map<const Node*, int> packetFilterCache;
  const auto compilePacketFilter =
      [this, &packetFilterCache](const Node* filter) {
        if (filter == nullptr) return -1;
        const auto cached = packetFilterCache.find(filter);
        if (cached != packetFilterCache.end()) return cached->second;
        auto rules = filter->childrenOfKind(NodeKind::kPacketFilterRule);
        std::sort(rules.begin(), rules.end(),
                  [](const Node* a, const Node* b) {
                    return a->intAttr("seq") < b->intAttr("seq");
                  });
        std::vector<CompiledPacketRule> compiled;
        compiled.reserve(rules.size());
        for (const Node* rule : rules) {
          CompiledPacketRule r;
          r.srcPrefix = Ipv4Prefix::parse(rule->attr("srcPrefix"));
          r.dstPrefix = Ipv4Prefix::parse(rule->attr("dstPrefix"));
          r.permit = rule->attr("action") == "permit";
          compiled.push_back(r);
        }
        const int index = static_cast<int>(packetFilters_.size());
        packetFilters_.push_back(std::move(compiled));
        packetFilterCache[filter] = index;
        return index;
      };

  for (std::size_t ri = 0; ri < routerNodes.size(); ++ri) {
    const Node* node = routerNodes[ri];
    CompiledRouter& router = routers_[ri];

    for (const auto& [subnet, owner] : stubs_) {
      if (owner == router.name) router.localPrefixes.push_back(subnet);
    }

    for (const Node* proc : node->childrenOfKind(NodeKind::kRoutingProcess)) {
      const std::string type = proc->attr("type");
      if (type == "static") {
        for (const Node* orig :
             proc->childrenOfKind(NodeKind::kOrigination)) {
          const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
          const auto nexthop = Ipv4Address::parse(orig->attr("nexthop"));
          if (!prefix || !nexthop) continue;
          CompiledStatic entry;
          entry.prefix = *prefix;
          for (const std::string& neighbor : topo.neighborsOf(router.name)) {
            const auto link = topo.linkBetween(router.name, neighbor);
            if (!link || !link->subnet.contains(*nexthop)) continue;
            const auto peerAddr = topo.addressOn(neighbor, router.name);
            if (!peerAddr || *peerAddr != *nexthop) continue;
            const auto peerIdx = routerIndex_.find(neighbor);
            if (peerIdx == routerIndex_.end()) continue;
            entry.candidates.push_back(peerIdx->second);
          }
          router.statics.push_back(std::move(entry));
        }
        continue;
      }

      CompiledProc info;
      info.isBgp = type == "bgp";
      for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
        const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
        if (prefix) {
          info.origPrefixes.push_back(*prefix);
          router.localPrefixes.push_back(*prefix);
        }
      }
      for (const Node* redist :
           proc->childrenOfKind(NodeKind::kRedistribution)) {
        info.redistributeFrom.push_back(redist->attr("from"));
      }
      std::vector<RawAdj> raw;
      for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
        RawAdj ra;
        ra.peer = adj->attr("peer");
        ra.filter = adj->hasAttr("filterIn")
                        ? compileRouteFilter(proc->findChild(
                              NodeKind::kRouteFilter, adj->attr("filterIn")))
                        : -1;
        if (type == "ospf" && adj->hasAttr("cost")) {
          ra.cost = adj->intAttr("cost");
        }
        raw.push_back(std::move(ra));
      }
      procTypes[ri].push_back(type);
      rawAdjs[ri].push_back(std::move(raw));
      router.procs.push_back(std::move(info));
    }

    // Packet-filter bindings for each interface facing a neighbor.
    for (const std::string& neighbor : topo.neighborsOf(router.name)) {
      const Node* iface = topo.interfaceTowards(tree, router.name, neighbor);
      if (iface == nullptr) continue;
      const auto bound = [&](const char* direction) {
        return iface->hasAttr(direction)
                   ? compilePacketFilter(node->findChild(
                         NodeKind::kPacketFilter, iface->attr(direction)))
                   : -1;
      };
      router.bindings[neighbor] = {bound("pfilterOut"), bound("pfilterIn")};
    }
  }

  // Resolve adjacencies to (peer router, peer proc) pairs, keeping only
  // viable sessions: a physically connected peer that runs a process of the
  // same type and configures the adjacency back (the oracle re-checks all of
  // this per candidate per iteration).
  const auto peerProcOf = [&](std::size_t peerRouter, const std::string& type,
                              const std::string& backTo) -> int {
    for (std::size_t pi = 0; pi < procTypes[peerRouter].size(); ++pi) {
      if (procTypes[peerRouter][pi] != type) continue;
      for (const RawAdj& ra : rawAdjs[peerRouter][pi]) {
        if (ra.peer == backTo) return static_cast<int>(pi);
      }
    }
    return -1;
  };
  for (std::size_t ri = 0; ri < routers_.size(); ++ri) {
    for (std::size_t pi = 0; pi < routers_[ri].procs.size(); ++pi) {
      for (const RawAdj& ra : rawAdjs[ri][pi]) {
        const auto peerIt = routerIndex_.find(ra.peer);
        if (peerIt == routerIndex_.end()) continue;
        if (!topo.connected(routers_[ri].name, ra.peer)) continue;
        const int peerProc =
            peerProcOf(peerIt->second, procTypes[ri][pi], routers_[ri].name);
        if (peerProc < 0) continue;
        CompiledAdjacency adj;
        adj.peerRouter = peerIt->second;
        adj.peerProc = static_cast<std::size_t>(peerProc);
        adj.filter = ra.filter;
        adj.cost = ra.cost;
        routers_[ri].procs[pi].adjacencies.push_back(adj);
      }
    }
  }
}

std::size_t SimulationEngine::routerIndex(const std::string& name) const {
  const auto it = routerIndex_.find(name);
  return it == routerIndex_.end() ? kNoRouter : it->second;
}

bool SimulationEngine::deliversLocally(const std::string& router,
                                       const Ipv4Prefix& dst) const {
  const std::size_t index = routerIndex(router);
  if (index == kNoRouter) return false;
  for (const Ipv4Prefix& prefix : routers_[index].localPrefixes) {
    if (prefix.contains(dst)) return true;
  }
  return false;
}

RouteEntry SimulationEngine::resolveStatic(const CompiledRouter& router,
                                           const Ipv4Prefix& dst,
                                           const Environment& env) const {
  RouteEntry entry;
  for (const CompiledStatic& route : router.statics) {
    if (!route.prefix.contains(dst)) continue;
    for (const std::size_t candidate : route.candidates) {
      if (!env.linkUp(router.name, routers_[candidate].name)) continue;
      entry.valid = true;
      entry.ad = kAdStatic;
      entry.protocol = "static";
      entry.viaNeighbor = routers_[candidate].name;
      entry.cost = 0;
      return entry;
    }
  }
  return entry;
}

std::map<std::string, RouteEntry> SimulationEngine::convergeRoutes(
    const Ipv4Prefix& dst, const Environment& env) const {
  // Mirrors Simulator::computeRoutes step for step (same sweep order, same
  // candidate order, same tie-breaks) over the compiled structure; see the
  // equivalence suite in tests/engine_test.cpp.
  const auto applyFilter =
      [this, &dst](int filter) -> std::optional<std::pair<int, int>> {
    if (filter < 0) return std::pair(kDefaultLp, kDefaultMed);
    for (const CompiledRouteRule& rule : routeFilters_[filter]) {
      if (!rule.prefix || !rule.prefix->contains(dst)) continue;
      if (rule.deny) return std::nullopt;
      return std::pair(rule.lp, rule.med);
    }
    return std::nullopt;  // implicit deny
  };

  std::vector<std::vector<RouteEntry>> state(routers_.size());
  for (std::size_t ri = 0; ri < routers_.size(); ++ri) {
    state[ri].resize(routers_[ri].procs.size());
  }

  const int maxIterations =
      4 * static_cast<int>(routers_.size()) + 8;
  bool changed = true;
  int iteration = 0;
  while (changed && iteration++ < maxIterations) {
    changed = false;
    for (std::size_t ri = 0; ri < routers_.size(); ++ri) {
      const CompiledRouter& router = routers_[ri];
      for (std::size_t pi = 0; pi < router.procs.size(); ++pi) {
        const CompiledProc& proc = router.procs[pi];
        const auto better = [&proc](const RouteEntry& a, const RouteEntry& b) {
          return proc.isBgp ? bgpRouteBetter(a, b) : ospfRouteBetter(a, b);
        };
        RouteEntry best;
        if (proc.originates(dst)) {
          RouteEntry orig;
          orig.valid = true;
          orig.cost = 0;
          orig.lp = kDefaultLp;
          orig.protocol = proc.isBgp ? "bgp" : "ospf";
          orig.ad = proc.isBgp ? kAdBgp : kAdOspf;
          if (better(orig, best)) best = orig;
        }
        for (const std::string& from : proc.redistributeFrom) {
          bool sourceValid = false;
          if (from == "connected") {
            sourceValid = deliversLocally(router.name, dst);
          } else if (from == "static") {
            sourceValid = resolveStatic(router, dst, env).valid;
          } else {
            for (std::size_t si = 0; si < router.procs.size(); ++si) {
              const bool typeMatches =
                  router.procs[si].isBgp ? from == "bgp" : from == "ospf";
              if (typeMatches && state[ri][si].valid) {
                sourceValid = true;
                break;
              }
            }
          }
          if (sourceValid) {
            RouteEntry redist;
            redist.valid = true;
            redist.cost = 0;
            redist.lp = kDefaultLp;
            redist.protocol = proc.isBgp ? "bgp" : "ospf";
            redist.ad = proc.isBgp ? kAdBgp : kAdOspf;
            if (better(redist, best)) best = redist;
          }
        }
        for (const CompiledAdjacency& adj : proc.adjacencies) {
          if (!env.linkUp(router.name, routers_[adj.peerRouter].name)) {
            continue;
          }
          const RouteEntry& peerBest = state[adj.peerRouter][adj.peerProc];
          if (!peerBest.valid) continue;
          // Split horizon, as in the oracle (see the comment there).
          if (peerBest.viaNeighbor == router.name) continue;
          const auto action = applyFilter(adj.filter);
          if (!action) continue;
          RouteEntry in;
          in.valid = true;
          in.cost = peerBest.cost + adj.cost;
          in.lp = proc.isBgp ? action->first : kDefaultLp;
          in.med = proc.isBgp ? action->second : kDefaultMed;
          in.protocol = proc.isBgp ? "bgp" : "ospf";
          in.ad = proc.isBgp ? kAdBgp : kAdOspf;
          in.viaNeighbor = routers_[adj.peerRouter].name;
          if (better(in, best)) best = in;
        }
        if (!(state[ri][pi] == best)) {
          state[ri][pi] = std::move(best);
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

  std::map<std::string, RouteEntry> result;
  for (std::size_t ri = 0; ri < routers_.size(); ++ri) {
    const CompiledRouter& router = routers_[ri];
    RouteEntry best;
    if (deliversLocally(router.name, dst)) {
      best.valid = true;
      best.ad = kAdConnected;
      best.protocol = "connected";
      result[router.name] = best;
      continue;
    }
    const RouteEntry stat = resolveStatic(router, dst, env);
    if (stat.valid) best = stat;
    for (std::size_t pi = 0; pi < router.procs.size(); ++pi) {
      const RouteEntry& entry = state[ri][pi];
      if (entry.valid && (!best.valid || entry.ad < best.ad)) best = entry;
    }
    result[router.name] = best;
  }
  return result;
}

const std::map<std::string, RouteEntry>& SimulationEngine::computeRoutes(
    const Ipv4Prefix& dst, const Environment& env) const {
  // Canonicalize the link-pair orientation so {A,B} and {B,A} share an
  // entry (linkUp treats them identically).
  TableKey key{dst, {}};
  auto& links = key.second;
  links.reserve(env.downLinks.size());
  for (const auto& [a, b] : env.downLinks) {
    links.push_back(a < b ? std::pair(a, b) : std::pair(b, a));
  }
  std::sort(links.begin(), links.end());
  links.erase(std::unique(links.begin(), links.end()), links.end());

  const auto it = tables_.find(key);
  if (it != tables_.end()) {
    ++stats_.routeHits;
    return it->second;
  }
  ++stats_.routeMisses;
  return tables_.emplace(std::move(key), convergeRoutes(dst, env))
      .first->second;
}

std::vector<std::string> SimulationEngine::sourceRouters(
    const TrafficClass& cls) const {
  std::vector<std::string> out;
  for (const auto& [subnet, router] : stubs_) {
    if (subnet.overlaps(cls.src)) out.push_back(router);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool SimulationEngine::filterAllows(const std::string& router,
                                    const std::string& other, bool ingress,
                                    const TrafficClass& cls) const {
  const std::size_t index = routerIndex(router);
  if (index == kNoRouter) return true;
  const auto it = routers_[index].bindings.find(other);
  if (it == routers_[index].bindings.end()) return true;
  const int filter = ingress ? it->second.in : it->second.out;
  if (filter < 0) return true;
  for (const CompiledPacketRule& rule : packetFilters_[filter]) {
    if (!rule.srcPrefix || !rule.dstPrefix) continue;
    if (rule.srcPrefix->contains(cls.src) && rule.dstPrefix->contains(cls.dst)) {
      return rule.permit;
    }
  }
  return false;  // implicit deny
}

ForwardResult SimulationEngine::forward(const TrafficClass& cls,
                                        const std::string& srcRouter,
                                        const Environment& env) const {
  return walkForward(*this, cls, srcRouter, env);
}

bool SimulationEngine::checkPolicy(const Policy& policy) const {
  return policyHolds(*this, policy);
}

PolicySet SimulationEngine::violations(const PolicySet& policies) const {
  Span span("sim.violations");
  if (span.active()) {
    span.setDetail("policies=" + std::to_string(policies.size()));
  }
  PolicySet violated;
  for (const Policy& policy : policies) {
    if (!checkPolicy(policy)) violated.push_back(policy);
  }
  return violated;
}

SimCacheStats SimulationEngine::cacheStats() const { return stats_; }

}  // namespace aed
