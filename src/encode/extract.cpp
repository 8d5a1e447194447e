// Patch extraction: turning a satisfying MaxSMT model into syntax-tree edits.
#include <algorithm>

#include "encode/encoder.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

std::string parentPath(const std::string& path) {
  const auto pos = path.rfind('/');
  require(pos != std::string::npos, "path has no parent: " + path);
  return path.substr(0, pos);
}

std::string flipAction(const std::string& action) {
  return action == "permit" ? "deny" : "permit";
}

// The sequence number a newly prepended rule should get: one less than the
// smallest existing (or previously allocated) seq, so the new rule matches
// first — the paper's encoding prepends the add conditional (Fig. 5).
int initialFrontSeq(const Node* filter, NodeKind ruleKind) {
  int minSeq = 10000;
  if (filter != nullptr) {
    for (const Node* rule : filter->childrenOfKind(ruleKind)) {
      minSeq = std::min(minSeq, rule->intAttr("seq"));
    }
  }
  return minSeq - 1;
}

}  // namespace

void Encoder::materializeDelta(const DeltaVar& delta, Patch& patch,
                               std::map<std::string, int>& frontSeq,
                               std::map<std::string, std::string>& newFilters)
    const {
  // Helper: allocate the next front sequence number for a filter path.
  const auto nextSeq = [this, &frontSeq](const std::string& filterPath,
                                         NodeKind ruleKind) {
    auto it = frontSeq.find(filterPath);
    if (it == frontSeq.end()) {
      it = frontSeq
               .emplace(filterPath,
                        initialFrontSeq(tree_.byPath(filterPath), ruleKind))
               .first;
    }
    return it->second--;
  };

  switch (delta.kind) {
    case DeltaKind::kRemoveProcess:
    case DeltaKind::kRemoveAdjacency:
    case DeltaKind::kRemoveOrigination:
    case DeltaKind::kRemoveRedistribution:
    case DeltaKind::kRemoveRouteFilterRule:
    case DeltaKind::kRemovePacketFilterRule: {
      patch.add(Edit{Edit::Op::kRemoveNode, delta.nodePath, NodeKind::kNetwork,
                     {}});
      break;
    }
    case DeltaKind::kFlipRouteFilterRule:
    case DeltaKind::kFlipPacketFilterRule: {
      const Node* rule = tree_.byPath(delta.nodePath);
      require(rule != nullptr, "flip delta for unknown rule");
      patch.add(Edit{Edit::Op::kSetAttr,
                     delta.nodePath,
                     NodeKind::kNetwork,
                     {{"action", flipAction(rule->attr("action"))}}});
      break;
    }
    case DeltaKind::kSetRouteFilterRuleLp: {
      const Node* rule = tree_.byPath(delta.nodePath);
      require(rule != nullptr, "lp delta for unknown rule");
      const int current =
          rule->intAttr("lp", kDefaultLp);
      // lpExpr is cached at the session level via named variables, so this
      // re-evaluates the same expression the encoding used.
      const int value = session_.evalInt(
          const_cast<Encoder*>(this)->lpExpr(delta.name, current));
      patch.add(Edit{Edit::Op::kSetAttr,
                     delta.nodePath,
                     NodeKind::kNetwork,
                     {{"lp", std::to_string(value)}}});
      break;
    }
    case DeltaKind::kSetRouteFilterRuleMed: {
      const Node* rule = tree_.byPath(delta.nodePath);
      require(rule != nullptr, "med delta for unknown rule");
      const int current =
          rule->intAttr("med", kDefaultMed);
      const int value = session_.evalInt(
          const_cast<Encoder*>(this)->medExpr(delta.name, current));
      patch.add(Edit{Edit::Op::kSetAttr,
                     delta.nodePath,
                     NodeKind::kNetwork,
                     {{"med", std::to_string(value)}}});
      break;
    }
    case DeltaKind::kSetAdjacencyCost: {
      const Node* adj = tree_.byPath(delta.nodePath);
      require(adj != nullptr, "cost delta for unknown adjacency");
      const int current =
          adj->intAttr("cost", 1);
      const int value = session_.evalInt(
          const_cast<Encoder*>(this)->costExpr(delta.name, current));
      patch.add(Edit{Edit::Op::kSetAttr,
                     delta.nodePath,
                     NodeKind::kNetwork,
                     {{"cost", std::to_string(value)}}});
      break;
    }
    case DeltaKind::kAddAdjacency: {
      const auto peerIp = topo_.peerAddress(delta.router, delta.peer);
      require(peerIp.has_value(), "add-adjacency without a shared link");
      patch.add(Edit{Edit::Op::kAddNode,
                     delta.nodePath,
                     NodeKind::kAdjacency,
                     {{"peer", delta.peer}, {"peerIp", peerIp->str()}}});
      break;
    }
    case DeltaKind::kAddOrigination: {
      patch.add(Edit{Edit::Op::kAddNode,
                     delta.nodePath,
                     NodeKind::kOrigination,
                     {{"prefix", delta.prefix.str()}}});
      break;
    }
    case DeltaKind::kAddRedistribution: {
      patch.add(Edit{Edit::Op::kAddNode,
                     delta.nodePath,
                     NodeKind::kRedistribution,
                     {{"from", delta.fromProto}}});
      break;
    }
    case DeltaKind::kAddStaticRoute: {
      const Node* router = tree_.router(delta.router);
      require(router != nullptr, "add-static on unknown router");
      std::string procPath;
      for (const Node* proc :
           router->childrenOfKind(NodeKind::kRoutingProcess)) {
        if (proc->attr("type") == "static") procPath = proc->path();
      }
      if (procPath.empty()) {
        // Create the static process once per router.
        const std::string key = "static-proc:" + delta.router;
        procPath = router->path() +
                   "/RoutingProcess[type=static,name=main]";
        if (newFilters.emplace(key, procPath).second) {
          patch.add(Edit{Edit::Op::kAddNode,
                         router->path(),
                         NodeKind::kRoutingProcess,
                         {{"type", "static"}, {"name", "main"}}});
        }
      }
      const auto nexthop = topo_.peerAddress(delta.router, delta.peer);
      require(nexthop.has_value(), "add-static without a shared link");
      patch.add(Edit{Edit::Op::kAddNode,
                     procPath,
                     NodeKind::kOrigination,
                     {{"prefix", delta.prefix.str()},
                      {"nexthop", nexthop->str()}}});
      break;
    }
    case DeltaKind::kAddRouteFilterRule: {
      const Node* target = tree_.byPath(delta.nodePath);
      require(target != nullptr, "add-rfilter-rule target missing");
      std::string filterPath;
      if (target->kind() == NodeKind::kRouteFilter) {
        filterPath = delta.nodePath;
      } else {
        // The import had no filter: create one (once per adjacency), ending
        // with a permit-any rule to preserve the previous default-allow.
        require(target->kind() == NodeKind::kAdjacency,
                "add-rfilter-rule expects filter or adjacency target");
        const std::string procPath = parentPath(delta.nodePath);
        const std::string name = "rf_" + delta.peer + "_aed";
        filterPath = procPath + "/RouteFilter[name=" + name + "]";
        if (newFilters.emplace(delta.nodePath, filterPath).second) {
          patch.add(Edit{Edit::Op::kAddNode,
                         procPath,
                         NodeKind::kRouteFilter,
                         {{"name", name}}});
          patch.add(Edit{Edit::Op::kAddNode,
                         filterPath,
                         NodeKind::kRouteFilterRule,
                         {{"seq", "10000"},
                          {"action", "permit"},
                          {"prefix", "0.0.0.0/0"}}});
          patch.add(Edit{Edit::Op::kSetAttr,
                         delta.nodePath,
                         NodeKind::kNetwork,
                         {{"filterIn", name}}});
          frontSeq[filterPath] = 9999;
        }
      }
      const bool allow = session_.evalBool(session_.boolVar(delta.name + "_allow"));
      std::map<std::string, std::string> attrs{
          {"seq", std::to_string(nextSeq(filterPath,
                                         NodeKind::kRouteFilterRule))},
          {"action", allow ? "permit" : "deny"},
          {"prefix", delta.prefix.str()}};
      if (delta.procType == "bgp") {
        const int lp = session_.evalInt(const_cast<Encoder*>(this)->lpExpr(
            delta.name + "_lp", kDefaultLp));
        if (lp != kDefaultLp) attrs["lp"] = std::to_string(lp);
        const int med = session_.evalInt(const_cast<Encoder*>(this)->medExpr(
            delta.name + "_med", kDefaultMed));
        if (med != kDefaultMed) attrs["med"] = std::to_string(med);
      }
      patch.add(Edit{Edit::Op::kAddNode, filterPath,
                     NodeKind::kRouteFilterRule, std::move(attrs)});
      break;
    }
    case DeltaKind::kAddPacketFilterRule: {
      const Node* target = tree_.byPath(delta.nodePath);
      require(target != nullptr, "add-pfilter-rule target missing");
      std::string filterPath;
      if (target->kind() == NodeKind::kPacketFilter) {
        filterPath = delta.nodePath;
      } else {
        require(target->kind() == NodeKind::kInterface,
                "add-pfilter-rule expects filter or interface target");
        const std::string routerPath = parentPath(delta.nodePath);
        const std::string name = "pf_" + target->name() + "_aed";
        filterPath = routerPath + "/PacketFilter[name=" + name + "]";
        if (newFilters.emplace(delta.nodePath, filterPath).second) {
          patch.add(Edit{Edit::Op::kAddNode,
                         routerPath,
                         NodeKind::kPacketFilter,
                         {{"name", name}}});
          patch.add(Edit{Edit::Op::kAddNode,
                         filterPath,
                         NodeKind::kPacketFilterRule,
                         {{"seq", "10000"},
                          {"action", "permit"},
                          {"srcPrefix", "0.0.0.0/0"},
                          {"dstPrefix", "0.0.0.0/0"}}});
          patch.add(Edit{Edit::Op::kSetAttr,
                         delta.nodePath,
                         NodeKind::kNetwork,
                         {{"pfilterIn", name}}});
          frontSeq[filterPath] = 9999;
        }
      }
      const bool allow = session_.evalBool(session_.boolVar(delta.name + "_allow"));
      patch.add(Edit{
          Edit::Op::kAddNode,
          filterPath,
          NodeKind::kPacketFilterRule,
          {{"seq",
            std::to_string(nextSeq(filterPath, NodeKind::kPacketFilterRule))},
           {"action", allow ? "permit" : "deny"},
           {"srcPrefix", delta.cls.src.str()},
           {"dstPrefix", delta.cls.dst.str()}}});
      break;
    }
  }
}

Patch Encoder::extractPatch() const {
  Patch patch;
  std::map<std::string, int> frontSeq;
  std::map<std::string, std::string> newFilters;
  for (const DeltaVar& delta : sketch_.deltas()) {
    // deltaActive() caches; const_cast is safe because lookups only touch
    // session-level named variables.
    const z3::expr active =
        const_cast<Encoder*>(this)->deltaActive(delta);
    if (!session_.evalBool(active)) continue;
    materializeDelta(delta, patch, frontSeq, newFilters);
  }
  return patch;
}

}  // namespace aed
