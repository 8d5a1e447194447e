// The hand edits of the two simulator-driven comparators, the manual
// updater (gen/manual.hpp) and the CPR baseline (baselines/cpr.hpp).
#pragma once

#include <algorithm>
#include <string>

#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "topology/topology.hpp"

namespace aed {

/// The packet filter bound in `direction` ("pfilterIn" or "pfilterOut") on
/// `router`'s interface facing `other`; empty when none.
inline std::string boundFilterName(const ConfigTree& tree,
                                   const Topology& topo,
                                   const std::string& router,
                                   const std::string& other,
                                   const char* direction) {
  const Node* iface = topo.interfaceTowards(tree, router, other);
  return iface == nullptr ? "" : iface->attr(direction);
}

/// Prepends a (src, dst, action) rule to a packet filter, in front of all
/// its current rules.
inline void prependPacketRule(Node& filter, const TrafficClass& cls,
                              const std::string& action) {
  int minSeq = 10000;
  for (const Node* rule : filter.childrenOfKind(NodeKind::kPacketFilterRule)) {
    minSeq = std::min(minSeq, rule->intAttr("seq"));
  }
  Node& rule = filter.addChild(NodeKind::kPacketFilterRule);
  rule.setAttr("seq", std::to_string(minSeq - 1));
  rule.setAttr("action", action);
  rule.setAttr("srcPrefix", cls.src.str());
  rule.setAttr("dstPrefix", cls.dst.str());
}

/// The router's (last) static routing process, created as "main" when it
/// has none.
inline Node& staticProcess(Node& router) {
  Node* proc = nullptr;
  for (Node* p : router.childrenOfKind(NodeKind::kRoutingProcess)) {
    if (p->attr("type") == "static") proc = p;
  }
  if (proc == nullptr) {
    proc = &router.addChild(NodeKind::kRoutingProcess);
    proc->setAttr("type", "static");
    proc->setAttr("name", "main");
  }
  return *proc;
}

}  // namespace aed
