#include "gen/manual.hpp"

#include <algorithm>
#include <deque>
#include <map>

#include "simulate/repair_edits.hpp"
#include "simulate/simulator.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace aed {

namespace {

// Adds the same permit rule to the named filter on `router` and on every
// clone: any router with the same role carrying a same-named filter.
// Returns the number of filters edited.
int editFilterTemplateWide(ConfigTree& tree, const std::string& router,
                           const std::string& filterName,
                           const TrafficClass& cls) {
  const std::string role = tree.router(router)->attr("role");
  int edited = 0;
  for (Node* candidate : tree.routers()) {
    if (candidate->attr("role") != role) continue;
    Node* filter = candidate->findChild(NodeKind::kPacketFilter, filterName);
    if (filter == nullptr) continue;
    prependPacketRule(*filter, cls, "permit");
    ++edited;
  }
  return edited;
}

// Adds static routes for `dst` along the physical shortest path from
// `from` towards a router delivering dst. Returns true if any were added.
bool addStaticPath(ConfigTree& tree, const Topology& topo,
                   const Simulator& sim, const std::string& from,
                   const Ipv4Prefix& dst) {
  // BFS towards any delivering router.
  std::map<std::string, std::string> parentOf;
  std::deque<std::string> queue{from};
  parentOf[from] = from;
  std::string goal;
  while (!queue.empty() && goal.empty()) {
    const std::string current = queue.front();
    queue.pop_front();
    if (sim.deliversLocally(current, dst)) {
      goal = current;
      break;
    }
    for (const std::string& next : topo.neighbors(current)) {
      if (parentOf.emplace(next, current).second) queue.push_back(next);
    }
  }
  if (goal.empty()) return false;
  std::vector<std::string> path{goal};
  while (path.back() != from) path.push_back(parentOf[path.back()]);
  std::reverse(path.begin(), path.end());  // from ... goal

  bool added = false;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    Node& proc = staticProcess(*tree.router(path[i]));
    const auto nexthop = topo.peerAddress(path[i], path[i + 1]);
    if (!nexthop) continue;
    // Skip duplicates.
    bool exists = false;
    for (const Node* orig : proc.childrenOfKind(NodeKind::kOrigination)) {
      if (orig->attr("prefix") == dst.str()) exists = true;
    }
    if (exists) continue;
    Node& orig = proc.addChild(NodeKind::kOrigination);
    orig.setAttr("prefix", dst.str());
    orig.setAttr("nexthop", nexthop->str());
    added = true;
  }
  return added;
}

}  // namespace

ManualUpdateResult manualUpdate(const ConfigTree& tree,
                                const PolicySet& policies) {
  ManualUpdateResult result;
  result.updated = tree.clone();

  for (int round = 0; round < 32; ++round) {
    Simulator sim(result.updated);
    const Topology& topo = sim.topology();
    const PolicySet violated = sim.violations(policies);
    if (violated.empty()) {
      result.success = true;
      return result;
    }

    bool progress = false;
    for (const Policy& policy : violated) {
      if (policy.kind == PolicyKind::kBlocking) {
        // Operators block at the destination's ingress filters (all of
        // them, keeping clones identical is moot since the rule names the
        // destination).
        for (const std::string& src : sim.sourceRouters(policy.cls)) {
          const ForwardResult fwd = sim.forward(policy.cls, src);
          if (!fwd.delivered || fwd.path.size() < 2) continue;
          const std::string& last = fwd.path.back();
          const std::string& prev = fwd.path[fwd.path.size() - 2];
          const std::string name =
              boundFilterName(result.updated, topo, last, prev, "pfilterIn");
          if (name.empty()) continue;
          Node* filter = result.updated.router(last)->findChild(
              NodeKind::kPacketFilter, name);
          if (filter == nullptr) continue;
          prependPacketRule(*filter, policy.cls, "deny");
          progress = true;
        }
        continue;
      }
      if (policy.kind != PolicyKind::kReachability &&
          policy.kind != PolicyKind::kWaypoint) {
        continue;  // operators handle other classes out of band
      }
      for (const std::string& src : sim.sourceRouters(policy.cls)) {
        const ForwardResult fwd = sim.forward(policy.cls, src);
        if (fwd.delivered) continue;
        const std::string& at = fwd.dropAt;
        if (fwd.drop == DropKind::kIngressFilter) {
          const std::string& prev = fwd.path.back();
          const std::string name =
              boundFilterName(result.updated, topo, at, prev, "pfilterIn");
          if (!name.empty() &&
              editFilterTemplateWide(result.updated, at, name, policy.cls) >
                  0) {
            progress = true;
          }
        } else if (fwd.drop == DropKind::kEgressFilter) {
          const auto routes = sim.computeRoutes(policy.cls.dst);
          const std::string next = routes.at(at).viaNeighbor;
          const std::string name =
              boundFilterName(result.updated, topo, at, next, "pfilterOut");
          if (!name.empty() &&
              editFilterTemplateWide(result.updated, at, name, policy.cls) >
                  0) {
            progress = true;
          }
        } else if (fwd.drop == DropKind::kNoRoute) {
          if (addStaticPath(result.updated, topo, sim, at, policy.cls.dst)) {
            progress = true;
          }
        }
      }
    }
    if (!progress) {
      result.error = "manual updater stuck: " + violated[0].str();
      return result;
    }
  }
  result.error = "manual updater did not converge";
  return result;
}

}  // namespace aed
