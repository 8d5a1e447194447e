#include "baselines/cpr.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <map>

#include "simulate/repair_edits.hpp"
#include "simulate/simulator.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

/// A candidate repair: a mutation of the tree plus its line cost.
struct Candidate {
  int lines = 0;
  std::string what;
  std::function<void(ConfigTree&)> apply;
};

// Candidates fixing one (policy, source) reachability failure.
void reachabilityCandidates(const ConfigTree& tree, const Simulator& sim,
                            const Policy& policy, const std::string& src,
                            std::vector<Candidate>& out) {
  const Topology& topo = sim.topology();
  const ForwardResult fwd = sim.forward(policy.cls, src);
  if (fwd.delivered) return;
  const TrafficClass cls = policy.cls;

  const std::string& at = fwd.dropAt;
  if (fwd.drop == DropKind::kIngressFilter) {
    const std::string prev = fwd.path.back();
    const std::string name = boundFilterName(tree, topo, at, prev, "pfilterIn");
    if (!name.empty()) {
      out.push_back(Candidate{
          1, "permit rule at " + at + ":" + name,
          [at, name, cls](ConfigTree& t) {
            Node* filter =
                t.router(at)->findChild(NodeKind::kPacketFilter, name);
            if (filter != nullptr) prependPacketRule(*filter, cls, "permit");
          }});
    }
  } else if (fwd.drop == DropKind::kEgressFilter) {
    const auto routes = sim.computeRoutes(cls.dst);
    const std::string next = routes.at(at).viaNeighbor;
    const std::string name =
        boundFilterName(tree, topo, at, next, "pfilterOut");
    if (!name.empty()) {
      out.push_back(Candidate{
          1, "permit rule at " + at + ":" + name,
          [at, name, cls](ConfigTree& t) {
            Node* filter =
                t.router(at)->findChild(NodeKind::kPacketFilter, name);
            if (filter != nullptr) prependPacketRule(*filter, cls, "permit");
          }});
    }
  } else if (fwd.drop == DropKind::kNoRoute) {
    // Static route towards each neighbor that has a route or delivers.
    const auto routes = sim.computeRoutes(cls.dst);
    const Ipv4Prefix dst = cls.dst;
    for (const std::string& neighbor : topo.neighbors(at)) {
      const auto it = routes.find(neighbor);
      const bool viable =
          sim.deliversLocally(neighbor, dst) ||
          (it != routes.end() && it->second.valid &&
           it->second.viaNeighbor != at);
      if (!viable) continue;
      const auto nexthop = topo.peerAddress(at, neighbor);
      if (!nexthop) continue;
      const std::string nexthopStr = nexthop->str();
      out.push_back(Candidate{
          1, "static route at " + at + " via " + neighbor,
          [at, dst, nexthopStr](ConfigTree& t) {
            Node& orig =
                staticProcess(*t.router(at)).addChild(NodeKind::kOrigination);
            orig.setAttr("prefix", dst.str());
            orig.setAttr("nexthop", nexthopStr);
          }});
    }
  }
}

// Candidates fixing one blocking failure: deny at the destination-side
// ingress, or a brand-new filter on the delivering router's ingress
// interface.
void blockingCandidates(const ConfigTree& tree, const Simulator& sim,
                        const Policy& policy, const std::string& src,
                        std::vector<Candidate>& out) {
  const Topology& topo = sim.topology();
  const ForwardResult fwd = sim.forward(policy.cls, src);
  if (!fwd.delivered || fwd.path.size() < 2) return;
  const TrafficClass cls = policy.cls;

  // Try a deny rule at each hop's ingress along the path (1 line when a
  // filter exists, 3 lines when one must be created).
  for (std::size_t i = 1; i < fwd.path.size(); ++i) {
    const std::string& at = fwd.path[i];
    const Node* iface = topo.interfaceTowards(tree, at, fwd.path[i - 1]);
    if (iface == nullptr) continue;
    const std::string name = iface->attr("pfilterIn");
    if (!name.empty()) {
      out.push_back(Candidate{
          1, "deny rule at " + at + ":" + name,
          [at, name, cls](ConfigTree& t) {
            Node* filter =
                t.router(at)->findChild(NodeKind::kPacketFilter, name);
            if (filter != nullptr) prependPacketRule(*filter, cls, "deny");
          }});
    } else {
      const std::string ifaceName = iface->name();
      out.push_back(Candidate{
          3, "new filter at " + at + ":" + ifaceName,
          [at, ifaceName, cls](ConfigTree& t) {
            Node* router = t.router(at);
            const std::string fname = "pf_cpr_" + ifaceName;
            Node* filter = router->findChild(NodeKind::kPacketFilter, fname);
            if (filter == nullptr) {
              filter = &router->addChild(NodeKind::kPacketFilter);
              filter->setAttr("name", fname);
              Node& tail = filter->addChild(NodeKind::kPacketFilterRule);
              tail.setAttr("seq", "10000");
              tail.setAttr("action", "permit");
              tail.setAttr("srcPrefix", "0.0.0.0/0");
              tail.setAttr("dstPrefix", "0.0.0.0/0");
            }
            prependPacketRule(*filter, cls, "deny");
            Node* iface = router->findChild(NodeKind::kInterface, ifaceName);
            if (iface != nullptr) iface->setAttr("pfilterIn", fname);
          }});
    }
  }
}

}  // namespace

CprResult cprRepair(const ConfigTree& tree, const PolicySet& policies) {
  const auto start = std::chrono::steady_clock::now();
  CprResult result;
  result.updated = tree.clone();

  for (int round = 0; round < 256; ++round) {
    Simulator sim(result.updated);
    const PolicySet violated = sim.violations(policies);
    if (violated.empty()) {
      result.success = true;
      break;
    }

    // Generate candidates for the first violated policy (CPR repairs
    // violations one at a time on its graph model).
    const Policy& policy = violated.front();
    if (policy.kind != PolicyKind::kReachability &&
        policy.kind != PolicyKind::kBlocking) {
      result.error = "cpr: unsupported policy class " + policy.str();
      result.errorCode = ErrorCode::kInvalidInput;
      break;
    }
    std::vector<Candidate> candidates;
    for (const std::string& src : sim.sourceRouters(policy.cls)) {
      if (policy.kind == PolicyKind::kReachability) {
        reachabilityCandidates(result.updated, sim, policy, src, candidates);
      } else {
        blockingCandidates(result.updated, sim, policy, src, candidates);
      }
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [](const Candidate& a, const Candidate& b) {
                       return a.lines < b.lines;
                     });

    // Apply the cheapest candidate that makes progress: ideally one that
    // reduces the violation count, otherwise one that advances this
    // policy's forwarding outcome without regressing anything (repairs can
    // need several steps, e.g. a static route at one hop and a filter
    // permit at the next).
    const auto forwardSignature = [](const Simulator& sim, const Policy& p) {
      std::string signature;
      for (const std::string& src : sim.sourceRouters(p.cls)) {
        const ForwardResult fwd = sim.forward(p.cls, src);
        signature += src + ":" + fwd.dropReason + ":" +
                     std::to_string(fwd.path.size()) + ";";
      }
      return signature;
    };
    const std::string beforeSignature =
        forwardSignature(sim, policy);

    bool applied = false;
    for (const bool requireReduction : {true, false}) {
      for (const Candidate& candidate : candidates) {
        ConfigTree trial = result.updated.clone();
        candidate.apply(trial);
        Simulator trialSim(trial);
        const std::size_t trialViolations =
            trialSim.violations(policies).size();
        const bool ok =
            requireReduction
                ? trialViolations < violated.size()
                : trialViolations <= violated.size() &&
                      forwardSignature(trialSim, policy) != beforeSignature;
        if (ok) {
          result.updated = std::move(trial);
          result.linesChanged += candidate.lines;
          applied = true;
          break;
        }
      }
      if (applied) break;
    }
    if (!applied) {
      result.error = "cpr: no candidate repairs " + policy.str();
      result.errorCode = ErrorCode::kUnsat;
      break;
    }
  }
  if (!result.success && result.error.empty()) {
    result.error = "cpr: did not converge";
    result.errorCode = ErrorCode::kValidationFailed;
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

}  // namespace aed
