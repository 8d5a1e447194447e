// The forwarding walk and the per-kind policy checks, defined once for the
// serial Simulator and the memoized SimulationEngine.
//
// Each class computes the inputs on its own — converged route tables, local
// delivery, source routers and packet-filter verdicts — and these templates
// only sequence them. So an engine-vs-oracle comparison still compares two
// independent computations, while the hop order, the drop-reason texts and
// the meaning of each policy kind exist once. `Sim` provides computeRoutes(),
// deliversLocally(), filterAllows(), forward() and sourceRouters().
#pragma once

#include <algorithm>
#include <set>
#include <string>
#include <utility>

#include "simulate/simulator.hpp"

namespace aed {

/// Walks `cls` from `srcRouter`: a revisited router is a loop, local delivery
/// ends the walk, and every hop needs a route, an up link, and the permit of
/// the egress filter and then of the next router's ingress filter.
template <typename Sim>
ForwardResult walkForward(const Sim& sim, const TrafficClass& cls,
                          const std::string& srcRouter,
                          const Environment& env) {
  const auto& routes = sim.computeRoutes(cls.dst, env);
  ForwardResult result;
  const auto drop = [&result](DropKind kind, const std::string& at,
                              std::string reason) {
    result.drop = kind;
    result.dropAt = at;
    result.dropReason = std::move(reason);
    return std::move(result);
  };
  std::string current = srcRouter;
  std::set<std::string> visited;
  result.path.push_back(current);
  while (true) {
    if (!visited.insert(current).second) {
      return drop(DropKind::kLoop, current, "forwarding loop at " + current);
    }
    if (sim.deliversLocally(current, cls.dst)) {
      result.delivered = true;
      return result;
    }
    const auto it = routes.find(current);
    if (it == routes.end() || !it->second.valid ||
        it->second.viaNeighbor.empty()) {
      return drop(DropKind::kNoRoute, current, "no route at " + current);
    }
    const std::string& next = it->second.viaNeighbor;
    if (!env.linkUp(current, next)) {
      return drop(DropKind::kLinkDown, current,
                  "link down " + current + "-" + next);
    }
    if (!sim.filterAllows(current, next, /*ingress=*/false, cls)) {
      return drop(DropKind::kEgressFilter, current,
                  "egress filter at " + current);
    }
    if (!sim.filterAllows(next, current, /*ingress=*/true, cls)) {
      return drop(DropKind::kIngressFilter, next, "ingress filter at " + next);
    }
    current = next;
    result.path.push_back(current);
  }
}

/// Whether `policy` holds, judged by `sim.forward()` from each source router
/// after structuralPolicyCheck() has had its say.
template <typename Sim>
bool policyHolds(const Sim& sim, const Policy& policy) {
  const auto sources = sim.sourceRouters(policy.cls);
  if (const auto quick = structuralPolicyCheck(policy, sources)) return *quick;
  const auto delivered = [&sim, &policy](const std::string& src) {
    return sim.forward(policy.cls, src).delivered;
  };
  switch (policy.kind) {
    case PolicyKind::kReachability:
      return std::all_of(sources.begin(), sources.end(), delivered);
    case PolicyKind::kBlocking:
      return std::none_of(sources.begin(), sources.end(), delivered);
    case PolicyKind::kWaypoint: {
      for (const std::string& src : sources) {
        const ForwardResult fwd = sim.forward(policy.cls, src);
        if (!fwd.delivered) return false;
        for (const std::string& waypoint : policy.waypoints) {
          if (std::find(fwd.path.begin(), fwd.path.end(), waypoint) ==
              fwd.path.end()) {
            return false;
          }
        }
      }
      return true;
    }
    case PolicyKind::kPathPreference: {
      // structuralPolicyCheck guarantees primaryPath.size() >= 2 here, so
      // indexing [0] and [1] below is in bounds.
      const std::string& start = policy.primaryPath.front();
      const ForwardResult healthy = sim.forward(policy.cls, start);
      if (!healthy.delivered || healthy.path != policy.primaryPath) {
        return false;
      }
      const Environment failed = Environment::withDownLink(
          policy.primaryPath[0], policy.primaryPath[1]);
      const ForwardResult broken = sim.forward(policy.cls, start, failed);
      return broken.delivered && broken.path == policy.alternatePath;
    }
    case PolicyKind::kIsolation: {
      const auto edgesOf = [&sim](const TrafficClass& cls) {
        std::set<std::pair<std::string, std::string>> edges;
        for (const std::string& src : sim.sourceRouters(cls)) {
          const ForwardResult fwd = sim.forward(cls, src);
          for (std::size_t i = 0; i + 1 < fwd.path.size(); ++i) {
            edges.insert({fwd.path[i], fwd.path[i + 1]});
          }
        }
        return edges;
      };
      const auto a = edgesOf(policy.cls);
      const auto b = edgesOf(policy.otherCls);
      return std::none_of(a.begin(), a.end(), [&b](const auto& edge) {
        return b.count(edge) != 0;
      });
    }
  }
  return false;
}

}  // namespace aed
