#include "encode/encoder.hpp"

#include <algorithm>
#include <set>

#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

std::string procLabel(const Node& proc) {
  return proc.attr("type") + "." + proc.name();
}

// Suffix identifying a (environment, destination) routing layer.
std::string layerKey(std::size_t e, const Ipv4Prefix& dst) {
  return "e" + std::to_string(e) + "|" + dst.str();
}

std::string classKey(std::size_t e, const TrafficClass& cls) {
  return "e" + std::to_string(e) + "|" + cls.src.str() + ">" + cls.dst.str();
}

}  // namespace

Encoder::Encoder(SmtSession& session, const ConfigTree& tree,
                 const Topology& topo, const Sketch& sketch,
                 EncoderOptions options)
    : session_(session),
      tree_(tree),
      topo_(topo),
      sketch_(sketch),
      options_(options),
      sim_(tree) {
  collectStructure();
  collectLpValues();
}

void Encoder::collectStructure() {
  auto routers = tree_.routers();
  std::sort(routers.begin(), routers.end(),
            [](const Node* a, const Node* b) { return a->name() < b->name(); });
  for (const Node* router : routers) {
    for (const Node* proc : router->childrenOfKind(NodeKind::kRoutingProcess)) {
      const std::string type = proc->attr("type");
      if (type == "static") continue;
      procs_.push_back(ProcRef{router->name(), type, proc});
      procNode_[{router->name(), type}] = proc;
    }
  }
}

void Encoder::collectLpValues() {
  std::set<int> values{kDefaultLp};
  std::set<int> costs{1};
  std::set<int> meds{kDefaultMed};
  tree_.root().visit([&values, &costs, &meds](const Node& node) {
    if (node.kind() == NodeKind::kRouteFilterRule && node.hasAttr("lp")) {
      values.insert(node.intAttr("lp"));
    }
    if (node.kind() == NodeKind::kRouteFilterRule && node.hasAttr("med")) {
      meds.insert(node.intAttr("med"));
    }
    if (node.kind() == NodeKind::kAdjacency && node.hasAttr("cost")) {
      costs.insert(node.intAttr("cost"));
    }
  });
  lpValues_.assign(values.begin(), values.end());
  costValues_.assign(costs.begin(), costs.end());
  medValues_.assign(meds.begin(), meds.end());
}

// --------------------------------------------------------------------------
// Delta variable expressions
// --------------------------------------------------------------------------

z3::expr Encoder::deltaActive(const DeltaVar& delta) {
  const auto it = deltaActiveCache_.find(delta.name);
  if (it != deltaActiveCache_.end()) return it->second;

  z3::expr active = session_.boolVal(false);
  if (delta.kind == DeltaKind::kSetRouteFilterRuleLp) {
    const Node* rule = tree_.byPath(delta.nodePath);
    require(rule != nullptr, "lp delta for unknown rule: " + delta.nodePath);
    const int current =
        rule->intAttr("lp", kDefaultLp);
    session_.reassign(active, lpChanged(delta.name, current));
  } else if (delta.kind == DeltaKind::kSetRouteFilterRuleMed) {
    const Node* rule = tree_.byPath(delta.nodePath);
    require(rule != nullptr, "med delta for unknown rule");
    const int current =
        rule->intAttr("med", kDefaultMed);
    session_.reassign(
        active, medExpr(delta.name, current) != session_.intVal(current));
  } else if (delta.kind == DeltaKind::kSetAdjacencyCost) {
    const Node* adj = tree_.byPath(delta.nodePath);
    require(adj != nullptr, "cost delta for unknown adjacency");
    const int current =
        adj->intAttr("cost", 1);
    session_.reassign(
        active, costExpr(delta.name, current) != session_.intVal(current));
  } else {
    session_.reassign(active, session_.boolVar(delta.name));
  }
  deltaActiveCache_.emplace(delta.name, active);
  return active;
}

z3::expr Encoder::addAllowVar(const DeltaVar& delta) {
  require(delta.kind == DeltaKind::kAddRouteFilterRule ||
              delta.kind == DeltaKind::kAddPacketFilterRule,
          "addAllowVar: not an add-rule delta");
  return session_.boolVar(delta.name + "_allow");
}

std::optional<z3::expr> Encoder::lpValueExpr(const DeltaVar& delta) {
  if (delta.kind == DeltaKind::kSetRouteFilterRuleLp) {
    const Node* rule = tree_.byPath(delta.nodePath);
    require(rule != nullptr, "lp delta for unknown rule");
    const int current =
        rule->intAttr("lp", kDefaultLp);
    return lpExpr(delta.name, current);
  }
  if (delta.kind == DeltaKind::kAddRouteFilterRule &&
      delta.procType == "bgp") {
    return lpExpr(delta.name + "_lp", kDefaultLp);
  }
  return std::nullopt;
}

z3::expr Encoder::metricExpr(const std::string& stem, int current,
                             const std::vector<int>& domain) {
  const auto cached = lpExprCache_.find(stem);
  if (cached != lpExprCache_.end()) return cached->second;
  if (!lpNeeded_) {
    return lpExprCache_.emplace(stem, session_.intVal(current)).first->second;
  }
  if (!options_.booleanLp) {
    // Free integer delta added to the current value (§5.2); kept
    // non-negative since metrics are unsigned on real routers. Unbounded
    // above, as in the paper's description of the unoptimized encoding
    // ("each integer variable expands the space of possible updates by a
    // factor of 2^32").
    z3::expr delta = session_.intVar(stem + "_d");
    session_.addHard(session_.intVal(current) + delta >= 0);
    return lpExprCache_.emplace(stem, session_.intVal(current) + delta)
        .first->second;
  }
  // §8: (2n+1) rank-slot choices encoded as a boolean priority chain.
  std::vector<int> reps;
  reps.push_back(std::max(0, domain.front() - 10));
  for (std::size_t i = 0; i < domain.size(); ++i) {
    reps.push_back(domain[i]);
    if (i + 1 < domain.size()) {
      reps.push_back(domain[i] + (domain[i + 1] - domain[i]) / 2);
    }
  }
  reps.push_back(domain.back() + 10);
  z3::expr value = session_.intVal(current);
  for (std::size_t i = reps.size(); i-- > 0;) {
    const z3::expr choice =
        session_.boolVar(stem + "_c" + std::to_string(i));
    session_.reassign(value, z3::ite(choice, session_.intVal(reps[i]), value));
  }
  return lpExprCache_.emplace(stem, value).first->second;
}

z3::expr Encoder::lpExpr(const std::string& stem, int current) {
  return metricExpr(stem, current, lpValues_);
}

z3::expr Encoder::costExpr(const std::string& stem, int current) {
  return metricExpr(stem, current, costValues_);
}

z3::expr Encoder::medExpr(const std::string& stem, int current) {
  return metricExpr(stem, current, medValues_);
}

z3::expr Encoder::lpChanged(const std::string& stem, int current) {
  return lpExpr(stem, current) != session_.intVal(current);
}

// --------------------------------------------------------------------------
// Configuration parameter variables (§5.2)
// --------------------------------------------------------------------------

z3::expr Encoder::procEnabled(const std::string& router,
                              const std::string& type) {
  const auto it = procNode_.find({router, type});
  if (it == procNode_.end()) return session_.boolVal(false);
  const std::string rmName = mangle({"rm", router, procLabel(*it->second)});
  const DeltaVar* rm = sketch_.findByName(rmName);
  return rm == nullptr ? session_.boolVal(true) : !deltaActive(*rm);
}

z3::expr Encoder::adjConfigured(const std::string& router,
                                const std::string& type,
                                const std::string& peer) {
  const auto it = procNode_.find({router, type});
  if (it == procNode_.end()) return session_.boolVal(false);
  const Node* proc = it->second;
  for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
    if (adj->attr("peer") != peer) continue;
    const DeltaVar* rm = sketch_.findByName(
        mangle({"rm", router, procLabel(*proc), "Adj", peer}));
    return rm == nullptr ? session_.boolVal(true) : !deltaActive(*rm);
  }
  const DeltaVar* add = sketch_.findByName(
      mangle({"add", router, procLabel(*proc), "Adj", peer}));
  return add == nullptr ? session_.boolVal(false) : deltaActive(*add);
}

Encoder::FilterAction Encoder::routeFilterAction(const std::string& router,
                                                 const std::string& type,
                                                 const std::string& peer,
                                                 const Ipv4Prefix& dst) {
  const auto it = procNode_.find({router, type});
  require(it != procNode_.end(), "routeFilterAction: no process");
  const Node* proc = it->second;
  const Node* adjacency = nullptr;
  for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
    if (adj->attr("peer") == peer) adjacency = adj;
  }
  const Node* filter =
      (adjacency != nullptr && adjacency->hasAttr("filterIn"))
          ? proc->findChild(NodeKind::kRouteFilter,
                            adjacency->attr("filterIn"))
          : nullptr;

  // Innermost default: unfiltered import permits with default metrics; a
  // bound filter ends with an implicit deny.
  z3::expr allow = session_.boolVal(filter == nullptr);
  z3::expr lp = session_.intVal(kDefaultLp);
  z3::expr med = session_.intVal(kDefaultMed);
  // slot := ite(cond, value, slot), except that an ite whose two branches
  // are one term is that term (a rule that keeps the default lp, say).
  const auto overlay = [this](z3::expr& slot, const z3::expr& cond,
                              const z3::expr& value) {
    if (!z3::eq(value, slot)) {
      session_.reassign(slot, z3::ite(cond, value, slot));
    }
  };

  if (filter != nullptr) {
    auto rules = filter->childrenOfKind(NodeKind::kRouteFilterRule);
    std::sort(rules.begin(), rules.end(), [](const Node* a, const Node* b) {
      return a->intAttr("seq") < b->intAttr("seq");
    });
    // Build the if-then-else chain from the last rule to the first.
    for (auto rit = rules.rbegin(); rit != rules.rend(); ++rit) {
      const Node* rule = *rit;
      const auto rulePrefix = Ipv4Prefix::parse(rule->attr("prefix"));
      if (!rulePrefix || !rulePrefix->contains(dst)) continue;
      const std::string stem = mangle(
          {router, procLabel(*proc), "rFil", filter->name(), rule->attr("seq")});
      const DeltaVar* rm = sketch_.findByName("rm_" + stem);
      const DeltaVar* flip = sketch_.findByName("flip_" + stem);
      const DeltaVar* lpDelta = sketch_.findByName("lp_" + stem);
      const DeltaVar* medDelta = sketch_.findByName("med_" + stem);

      const bool permitBase = rule->attr("action") == "permit";
      z3::expr ruleAllow = session_.boolVal(permitBase);
      if (flip != nullptr) {
        const z3::expr f = deltaActive(*flip);
        ruleAllow = permitBase ? !f : f;
      }
      const int lpBase =
          rule->intAttr("lp", kDefaultLp);
      z3::expr ruleLp = lpDelta != nullptr ? lpExpr(lpDelta->name, lpBase)
                                           : session_.intVal(lpBase);
      const int medBase =
          rule->intAttr("med", kDefaultMed);
      z3::expr ruleMed = medDelta != nullptr
                             ? medExpr(medDelta->name, medBase)
                             : session_.intVal(medBase);
      const z3::expr present =
          rm != nullptr ? !deltaActive(*rm) : session_.boolVal(true);
      overlay(allow, present, ruleAllow);
      overlay(lp, present, ruleLp);
      overlay(med, present, ruleMed);
    }
  }

  // Outermost: the potential prepended per-destination rule (§5.2 Fig. 5
  // lines 1-3). A shared filter has one add variable; an unfiltered
  // adjacency has a per-adjacency one.
  const DeltaVar* add =
      filter != nullptr
          ? sketch_.findByName(mangle({"add", router, procLabel(*proc),
                                       "rFil", filter->name(), dst.str()}))
          : sketch_.findByName(mangle({"add", router, procLabel(*proc),
                                       "rFilNew", peer, dst.str()}));
  if (add != nullptr) {
    const z3::expr addVar = deltaActive(*add);
    const z3::expr addAllow = session_.boolVar(add->name + "_allow");
    z3::expr addLp = type == "bgp" ? lpExpr(add->name + "_lp", kDefaultLp)
                                   : session_.intVal(kDefaultLp);
    z3::expr addMed = type == "bgp"
                          ? medExpr(add->name + "_med", kDefaultMed)
                          : session_.intVal(kDefaultMed);
    overlay(allow, addVar, addAllow);
    overlay(lp, addVar, addLp);
    overlay(med, addVar, addMed);
  }
  return FilterAction{allow, lp, med};
}

z3::expr Encoder::packetAllow(const std::string& router,
                              const std::string& other, const char* direction,
                              const TrafficClass& cls) {
  const Node* iface = topo_.interfaceTowards(tree_, router, other);
  if (iface == nullptr) return session_.boolVal(true);

  const Node* filter =
      iface->hasAttr(direction)
          ? iface->parent()->findChild(NodeKind::kPacketFilter,
                                       iface->attr(direction))
          : nullptr;

  z3::expr allow = session_.boolVal(filter == nullptr);
  std::string addName;
  if (filter != nullptr) {
    auto rules = filter->childrenOfKind(NodeKind::kPacketFilterRule);
    std::sort(rules.begin(), rules.end(), [](const Node* a, const Node* b) {
      return a->intAttr("seq") < b->intAttr("seq");
    });
    for (auto rit = rules.rbegin(); rit != rules.rend(); ++rit) {
      const Node* rule = *rit;
      const auto src = Ipv4Prefix::parse(rule->attr("srcPrefix"));
      const auto dst = Ipv4Prefix::parse(rule->attr("dstPrefix"));
      if (!src || !dst) continue;
      if (!src->contains(cls.src) || !dst->contains(cls.dst)) continue;
      const std::string stem =
          mangle({router, "pFil", filter->name(), rule->attr("seq")});
      const DeltaVar* rm = sketch_.findByName("rm_" + stem);
      const DeltaVar* flip = sketch_.findByName("flip_" + stem);
      const bool permitBase = rule->attr("action") == "permit";
      z3::expr ruleAllow = session_.boolVal(permitBase);
      if (flip != nullptr) {
        const z3::expr f = deltaActive(*flip);
        ruleAllow = permitBase ? !f : f;
      }
      const z3::expr present =
          rm != nullptr ? !deltaActive(*rm) : session_.boolVal(true);
      session_.reassign(allow, z3::ite(present, ruleAllow, allow));
    }
    addName = mangle({"add", router, "pFil", filter->name(), cls.src.str(),
                      cls.dst.str()});
  } else if (std::string(direction) == "pfilterIn") {
    // Potential brand-new ingress filter on this interface.
    addName = mangle(
        {"add", router, "pFil", iface->name(), cls.src.str(), cls.dst.str()});
  }

  if (!addName.empty()) {
    if (const DeltaVar* add = sketch_.findByName(addName)) {
      const z3::expr addVar = deltaActive(*add);
      const z3::expr addAllow = session_.boolVar(add->name + "_allow");
      session_.reassign(allow, z3::ite(addVar, addAllow, allow));
    }
  }
  return allow;
}

z3::expr Encoder::origEnabled(const ProcRef& proc, const Ipv4Prefix& dst) {
  z3::expr enabled = session_.boolVal(false);
  for (const Node* orig : proc.node->childrenOfKind(NodeKind::kOrigination)) {
    const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
    if (!prefix || !prefix->contains(dst)) continue;
    const DeltaVar* rm = sketch_.findByName(
        mangle({"rm", proc.router, procLabel(*proc.node), "Orig",
                prefix->str()}));
    session_.reassign(
        enabled,
        enabled ||
            (rm == nullptr ? session_.boolVal(true) : !deltaActive(*rm)));
  }
  const DeltaVar* add = sketch_.findByName(mangle(
      {"add", proc.router, procLabel(*proc.node), "Orig", dst.str()}));
  if (add != nullptr) session_.reassign(enabled, enabled || deltaActive(*add));
  return enabled;
}

z3::expr Encoder::redistEnabled(const ProcRef& proc, const std::string& from) {
  for (const Node* redist :
       proc.node->childrenOfKind(NodeKind::kRedistribution)) {
    if (redist->attr("from") != from) continue;
    const DeltaVar* rm = sketch_.findByName(
        mangle({"rm", proc.router, procLabel(*proc.node), "Redist", from}));
    return rm == nullptr ? session_.boolVal(true) : !deltaActive(*rm);
  }
  const DeltaVar* add = sketch_.findByName(
      mangle({"add", proc.router, procLabel(*proc.node), "Redist", from}));
  return add == nullptr ? session_.boolVal(false) : deltaActive(*add);
}

std::vector<Encoder::StaticCandidate> Encoder::staticCandidates(
    const Environment& env, const std::string& router,
    const Ipv4Prefix& dst) {
  std::vector<StaticCandidate> candidates;
  const Node* routerNode = tree_.router(router);
  if (routerNode == nullptr) return candidates;
  // Existing static routes covering dst whose next hop resolves over an up
  // link, like the simulator's: the router uses the first present one, so
  // a later route is in use only while every earlier one is removed.
  std::optional<z3::expr> earlierPresent;
  for (const Node* proc :
       routerNode->childrenOfKind(NodeKind::kRoutingProcess)) {
    if (proc->attr("type") != "static") continue;
    for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
      const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
      const auto nexthop = Ipv4Address::parse(orig->attr("nexthop"));
      if (!prefix || !nexthop || !prefix->contains(dst)) continue;
      for (const std::string& neighbor : topo_.neighbors(router)) {
        const auto peerAddr = topo_.addressOn(neighbor, router);
        if (!peerAddr || *peerAddr != *nexthop) continue;
        if (!env.linkUp(router, neighbor)) continue;
        const DeltaVar* rm = sketch_.findByName(
            mangle({"rm", router, "static", "Orig", prefix->str()}));
        const z3::expr present =
            rm == nullptr ? session_.boolVal(true) : !deltaActive(*rm);
        if (!earlierPresent) {
          candidates.push_back(StaticCandidate{neighbor, present});
          earlierPresent = present;
        } else {
          candidates.push_back(
              StaticCandidate{neighbor, present && !*earlierPresent});
          session_.reassign(*earlierPresent, *earlierPresent || present);
        }
      }
    }
  }
  // Potential static routes, exclusive with each other and with present
  // existing ones (encode()).
  for (const std::string& neighbor : topo_.neighbors(router)) {
    if (!env.linkUp(router, neighbor)) continue;
    const DeltaVar* add = sketch_.findByName(
        mangle({"add", router, "static", dst.str(), "via", neighbor}));
    if (add != nullptr) {
      candidates.push_back(StaticCandidate{neighbor, deltaActive(*add)});
    }
  }
  return candidates;
}

// --------------------------------------------------------------------------
// Routing layers (§6.1, Appendix A)
// --------------------------------------------------------------------------

z3::expr Encoder::bestValid(std::size_t e, const Ipv4Prefix& dst,
                            const std::string& router,
                            const std::string& type) {
  return session_.var(
      mangle({"bestV", router, type, layerKey(e, dst)}));
}

z3::expr Encoder::chosenFrom(std::size_t e, const Ipv4Prefix& dst,
                             const std::string& router,
                             const std::string& type,
                             const std::string& peer) {
  return session_.var(
      mangle({"chF", router, type, peer, layerKey(e, dst)}));
}

z3::expr Encoder::controlFwd(std::size_t e, const Ipv4Prefix& dst,
                             const std::string& from, const std::string& to) {
  return session_.var(mangle({"cFwd", from, to, layerKey(e, dst)}));
}

z3::expr Encoder::dataFwd(std::size_t e, const TrafficClass& cls,
                          const std::string& from, const std::string& to) {
  return session_.var(mangle({"dFwd", from, to, classKey(e, cls)}));
}

z3::expr Encoder::reach(std::size_t e, const TrafficClass& cls,
                        const std::string& router) {
  return session_.var(mangle({"reach", router, classKey(e, cls)}));
}

void Encoder::buildRoutingLayer(std::size_t e, const Ipv4Prefix& dst) {
  const Environment& env = environments_[e];
  const std::string key = layerKey(e, dst);

  // ---- create best-record and chosen variables first (cross references).
  const int routerCount = static_cast<int>(topo_.routerNames().size());
  for (const ProcRef& proc : procs_) {
    session_.boolVar(mangle({"bestV", proc.router, proc.type, key}));
    // Bounded: path costs cannot exceed the router count in any stable
    // state (cost increases by one per hop); tight bounds keep the MaxSMT
    // search tractable.
    const z3::expr cost =
        session_.intVar(mangle({"bestCost", proc.router, proc.type, key}));
    session_.addHard(cost >= 0 && cost <= session_.intVal(routerCount + 1));
    session_.boolVar(mangle({"chO", proc.router, proc.type, key}));
    for (const std::string& peer : topo_.neighbors(proc.router)) {
      if (procNode_.count({peer, proc.type}) != 0) {
        session_.boolVar(mangle({"chF", proc.router, proc.type, peer, key}));
      }
    }
  }

  // ---- per-process selection constraints.
  for (const ProcRef& proc : procs_) {
    const z3::expr valid = bestValid(e, dst, proc.router, proc.type);
    const z3::expr bestCost =
        session_.var(mangle({"bestCost", proc.router, proc.type, key}));
    const z3::expr chosenOrig =
        session_.var(mangle({"chO", proc.router, proc.type, key}));

    struct Candidate {
      z3::expr valid;
      z3::expr lp;
      z3::expr cost;
      z3::expr med;
      z3::expr chosen;
    };
    std::vector<Candidate> candidates;

    // Origination (own network statements + redistribution injections).
    {
      z3::expr origValid = origEnabled(proc, dst);
      for (const std::string& from :
           {std::string("connected"), std::string("static"),
            std::string("bgp"), std::string("ospf")}) {
        if (from == proc.type) continue;
        z3::expr sourceValid = session_.boolVal(false);
        if (from == "connected") {
          session_.reassign(
              sourceValid,
              session_.boolVal(sim_.deliversLocally(proc.router, dst)));
        } else if (from == "static") {
          z3::expr any = session_.boolVal(false);
          for (const StaticCandidate& cand :
               staticCandidates(env, proc.router, dst)) {
            session_.reassign(any, any || cand.active);
          }
          sourceValid = any;
        } else {
          if (procNode_.count({proc.router, from}) != 0) {
            session_.reassign(sourceValid,
                              bestValid(e, dst, proc.router, from));
          }
        }
        session_.reassign(
            origValid,
            origValid || (redistEnabled(proc, from) && sourceValid));
      }
      session_.reassign(origValid,
                        origValid && procEnabled(proc.router, proc.type));
      candidates.push_back(Candidate{origValid, session_.intVal(kDefaultLp),
                                     session_.intVal(0),
                                     session_.intVal(kDefaultMed),
                                     chosenOrig});
    }

    // In-records from each physically adjacent process of the same type.
    for (const std::string& peer : topo_.neighbors(proc.router)) {
      if (procNode_.count({peer, proc.type}) == 0) continue;
      const z3::expr chosen =
          session_.var(mangle({"chF", proc.router, proc.type, peer, key}));
      if (!env.linkUp(proc.router, peer)) {
        candidates.push_back(Candidate{session_.boolVal(false),
                                       session_.intVal(kDefaultLp),
                                       session_.intVal(0),
                                       session_.intVal(kDefaultMed), chosen});
        continue;
      }
      const z3::expr session = adjConfigured(proc.router, proc.type, peer) &&
                               adjConfigured(peer, proc.type, proc.router) &&
                               procEnabled(proc.router, proc.type) &&
                               procEnabled(peer, proc.type);
      const FilterAction action =
          routeFilterAction(proc.router, proc.type, peer, dst);
      // Split horizon: peer does not advertise back the route it chose from
      // us (matches the simulator).
      const z3::expr inValid =
          session && bestValid(e, dst, peer, proc.type) &&
          !chosenFrom(e, dst, peer, proc.type, proc.router) && action.allow;
      const z3::expr inLp = proc.type == "bgp"
                                ? action.lp
                                : session_.intVal(kDefaultLp);
      const z3::expr inMed = proc.type == "bgp"
                                 ? action.med
                                 : session_.intVal(kDefaultMed);
      // OSPF hops add the (possibly retuned) link cost; BGP counts 1 per
      // AS hop.
      z3::expr hopCost = session_.intVal(1);
      if (proc.type == "ospf") {
        const Node* adjNode = nullptr;
        for (const Node* adj :
             proc.node->childrenOfKind(NodeKind::kAdjacency)) {
          if (adj->attr("peer") == peer) adjNode = adj;
        }
        const int current =
            adjNode != nullptr ? adjNode->intAttr("cost", 1) : 1;
        const DeltaVar* costDelta = sketch_.findByName(
            mangle({"cost", proc.router, procLabel(*proc.node), "Adj", peer}));
        session_.reassign(hopCost, costDelta != nullptr
                                       ? costExpr(costDelta->name, current)
                                       : session_.intVal(current));
      }
      const z3::expr inCost =
          session_.var(mangle({"bestCost", peer, proc.type, key})) + hopCost;
      candidates.push_back(Candidate{inValid, inLp, inCost, inMed, chosen});
    }

    // valid <=> some candidate valid.
    z3::expr anyValid = session_.boolVal(false);
    for (const Candidate& cand : candidates) {
      session_.reassign(anyValid, anyValid || cand.valid);
    }
    session_.addHard(valid == anyValid);

    // A metric that every candidate carries as one numeral compares equal
    // everywhere: it gets no best-record field and no preference terms.
    const auto fixed = [&candidates](z3::expr Candidate::*field) {
      const z3::expr& first = candidates.front().*field;
      return first.is_numeral() &&
             std::all_of(candidates.begin(), candidates.end(),
                         [&](const Candidate& cand) {
                           return z3::eq(cand.*field, first);
                         });
    };
    const bool isBgp = proc.type == "bgp";
    const bool compareLp = isBgp && !fixed(&Candidate::lp);
    const bool compareMed = isBgp && !fixed(&Candidate::med);

    // chosen_i -> candidate valid, fields copied.
    const auto bestField = [&](const char* stem) {
      return session_.intVar(mangle({stem, proc.router, proc.type, key}));
    };
    const std::optional<z3::expr> bestLp =
        compareLp ? std::optional(bestField("bestLp")) : std::nullopt;
    const std::optional<z3::expr> bestMed =
        compareMed ? std::optional(bestField("bestMed")) : std::nullopt;
    for (const Candidate& cand : candidates) {
      session_.addHard(z3::implies(cand.chosen, cand.valid));
      if (bestLp) {
        session_.addHard(z3::implies(cand.chosen, *bestLp == cand.lp));
      }
      session_.addHard(z3::implies(cand.chosen, bestCost == cand.cost));
      if (bestMed) {
        session_.addHard(z3::implies(cand.chosen, *bestMed == cand.med));
      }
    }
    // valid -> exactly one chosen (at-most-one pairwise + at-least-one).
    z3::expr anyChosen = session_.boolVal(false);
    for (const Candidate& cand : candidates) {
      session_.reassign(anyChosen, anyChosen || cand.chosen);
    }
    session_.addHard(z3::implies(valid, anyChosen));
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (std::size_t j = i + 1; j < candidates.size(); ++j) {
        session_.addHard(!(candidates[i].chosen && candidates[j].chosen));
      }
    }
    // Preference: the chosen candidate is at least as good as every valid
    // candidate, and strictly better than all *earlier* valid candidates
    // (deterministic tie-break identical to the simulator: origination
    // first, then neighbors in name order). BGP: highest lp, then lowest
    // path cost, then lowest med (§2 order); OSPF: lowest cost.
    const auto prefers = [&](const Candidate& a, const Candidate& b,
                             bool strict) {
      const auto last = [strict](const z3::expr& x, const z3::expr& y) {
        return strict ? x < y : x <= y;
      };
      const z3::expr byCost =
          compareMed ? a.cost < b.cost ||
                           (a.cost == b.cost && last(a.med, b.med))
                     : last(a.cost, b.cost);
      return compareLp ? a.lp > b.lp || (a.lp == b.lp && byCost) : byCost;
    };
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      for (std::size_t j = 0; j < candidates.size(); ++j) {
        if (i == j) continue;
        session_.addHard(
            z3::implies(candidates[i].chosen && candidates[j].valid,
                        prefers(candidates[i], candidates[j], j < i)));
      }
    }
  }

  // ---- router-level selection by administrative distance + controlFwd.
  for (const std::string& router : topo_.routerNames()) {
    const bool local = sim_.deliversLocally(router, dst);
    // staticValid / staticVia in this environment.
    z3::expr staticValid = session_.boolVal(false);
    std::map<std::string, z3::expr> staticVia;
    for (const StaticCandidate& cand : staticCandidates(env, router, dst)) {
      session_.reassign(staticValid, staticValid || cand.active);
      const auto it = staticVia.find(cand.via);
      if (it == staticVia.end()) {
        staticVia.emplace(cand.via, cand.active);
      } else {
        session_.reassign(it->second, it->second || cand.active);
      }
    }
    const bool hasBgp = procNode_.count({router, "bgp"}) != 0;
    const bool hasOspf = procNode_.count({router, "ospf"}) != 0;
    const z3::expr bgpValid = hasBgp ? bestValid(e, dst, router, "bgp")
                                     : session_.boolVal(false);
    const z3::expr ospfValid = hasOspf ? bestValid(e, dst, router, "ospf")
                                       : session_.boolVal(false);

    for (const std::string& neighbor : topo_.neighbors(router)) {
      const z3::expr fwd = session_.boolVar(
          mangle({"cFwd", router, neighbor, key}));
      if (local || !env.linkUp(router, neighbor)) {
        session_.addHard(!fwd);
        continue;
      }
      z3::expr viaStatic = session_.boolVal(false);
      const auto it = staticVia.find(neighbor);
      if (it != staticVia.end()) viaStatic = it->second;

      z3::expr viaBgp = session_.boolVal(false);
      if (hasBgp && procNode_.count({neighbor, "bgp"}) != 0) {
        session_.reassign(viaBgp, chosenFrom(e, dst, router, "bgp", neighbor));
      }
      z3::expr viaOspf = session_.boolVal(false);
      if (hasOspf && procNode_.count({neighbor, "ospf"}) != 0) {
        session_.reassign(viaOspf,
                          chosenFrom(e, dst, router, "ospf", neighbor));
      }
      session_.addHard(
          fwd == (viaStatic ||
                  (!staticValid && bgpValid && viaBgp) ||
                  (!staticValid && !bgpValid && ospfValid && viaOspf)));
    }
  }
}

void Encoder::buildForwardingLayer(std::size_t e, const TrafficClass& cls) {
  const Environment& env = environments_[e];
  const std::string key = classKey(e, cls);

  // dataFwd = controlFwd gated by packet filters (Appendix A, Fig. 17).
  for (const Link& link : topo_.links()) {
    for (const auto& [from, to] :
         {std::pair(link.a, link.b), std::pair(link.b, link.a)}) {
      const z3::expr fwd = session_.boolVar(mangle({"dFwd", from, to, key}));
      if (!env.linkUp(from, to)) {
        session_.addHard(!fwd);
        continue;
      }
      session_.addHard(
          fwd == (controlFwd(e, cls.dst, from, to) &&
                  packetAllow(from, to, "pfilterOut", cls) &&
                  packetAllow(to, from, "pfilterIn", cls)));
    }
  }

  // reach, made well-founded by one distance ranking per (environment,
  // destination) that every class to the destination shares. It is exact:
  // dataFwd is controlFwd gated by packet filters, and controlFwd has at
  // most one outgoing edge per router, so every class reaches along the
  // destination's one next-hop function, and its hop count to delivery
  // ranks them all at once.
  const int routerCount = static_cast<int>(topo_.routerNames().size());
  const std::string rankKey = layerKey(e, cls.dst);
  const bool newRanking = rankings_.insert(rankKey).second;
  for (const std::string& router : topo_.routerNames()) {
    session_.boolVar(mangle({"reach", router, key}));
    if (newRanking) {
      const z3::expr dist = session_.intVar(mangle({"dist", router, rankKey}));
      session_.addHard(dist >= 0 && dist <= session_.intVal(routerCount));
    }
  }
  for (const std::string& router : topo_.routerNames()) {
    const z3::expr r = reach(e, cls, router);
    if (sim_.deliversLocally(router, cls.dst)) {
      session_.addHard(r);
      continue;
    }
    z3::expr support = session_.boolVal(false);
    z3::expr ranked = session_.boolVal(false);
    const z3::expr dist = session_.var(mangle({"dist", router, rankKey}));
    for (const std::string& neighbor : topo_.neighbors(router)) {
      const z3::expr hop = dataFwd(e, cls, router, neighbor);
      const z3::expr nr = reach(e, cls, neighbor);
      const z3::expr ndist =
          session_.var(mangle({"dist", neighbor, rankKey}));
      session_.reassign(support, support || (hop && nr));
      session_.reassign(ranked, ranked || (hop && nr && dist > ndist));
    }
    // Exact definition: supported => reachable, reachable => supported with
    // strictly decreasing distance (rules out cyclic self-support).
    session_.addHard(z3::implies(support, r));
    session_.addHard(z3::implies(r, ranked));
  }
}

const std::map<std::string, z3::expr>& Encoder::onPathLayer(
    std::size_t e, const TrafficClass& cls, const std::string& g) {
  const std::string cacheKey = classKey(e, cls) + "|" + g;
  const auto it = onPathCache_.find(cacheKey);
  if (it != onPathCache_.end()) return it->second;

  std::map<std::string, z3::expr> vars;
  const int routerCount = static_cast<int>(topo_.routerNames().size());
  for (const std::string& router : topo_.routerNames()) {
    vars.emplace(router,
                 session_.boolVar(mangle({"onP", g, router, cacheKey})));
    const z3::expr pdist =
        session_.intVar(mangle({"pdist", g, router, cacheKey}));
    session_.addHard(pdist >= 0 && pdist <= session_.intVal(routerCount));
  }
  for (const std::string& router : topo_.routerNames()) {
    const z3::expr on = vars.at(router);
    if (router == g) {
      session_.addHard(on);
      continue;
    }
    z3::expr support = session_.boolVal(false);
    z3::expr ranked = session_.boolVal(false);
    const z3::expr pdist =
        session_.var(mangle({"pdist", g, router, cacheKey}));
    for (const std::string& pred : topo_.neighbors(router)) {
      const z3::expr hop = dataFwd(e, cls, pred, router);
      const z3::expr onPred = vars.at(pred);
      const z3::expr predDist =
          session_.var(mangle({"pdist", g, pred, cacheKey}));
      session_.reassign(support, support || (onPred && hop));
      session_.reassign(ranked,
                        ranked || (onPred && hop && pdist > predDist));
    }
    session_.addHard(z3::implies(support, on));
    session_.addHard(z3::implies(on, ranked));
  }
  return onPathCache_.emplace(cacheKey, std::move(vars)).first->second;
}

// --------------------------------------------------------------------------
// Policies (§6.2)
// --------------------------------------------------------------------------

void Encoder::encodePolicy(const Policy& policy, std::size_t envIndex) {
  const TrafficClass& cls = policy.cls;
  const auto sources = sim_.sourceRouters(cls);
  switch (policy.kind) {
    case PolicyKind::kReachability: {
      require(!sources.empty(),
              "reachability policy has no source attachment: " + policy.str());
      for (const std::string& g : sources) {
        session_.addHard(reach(0, cls, g));
      }
      break;
    }
    case PolicyKind::kBlocking: {
      for (const std::string& g : sources) {
        session_.addHard(!reach(0, cls, g));
      }
      break;
    }
    case PolicyKind::kWaypoint: {
      require(!sources.empty(),
              "waypoint policy has no source attachment: " + policy.str());
      for (const std::string& g : sources) {
        session_.addHard(reach(0, cls, g));
        const auto& onPath = onPathLayer(0, cls, g);
        for (const std::string& w : policy.waypoints) {
          require(onPath.count(w) != 0,
                  "waypoint router does not exist: " + w);
          session_.addHard(onPath.at(w));
        }
      }
      break;
    }
    case PolicyKind::kPathPreference: {
      require(policy.primaryPath.size() >= 2 &&
                  policy.alternatePath.size() >= 2,
              "path-preference policy needs two paths: " + policy.str());
      // Healthy environment: traffic pinned to the primary path.
      for (std::size_t i = 0; i + 1 < policy.primaryPath.size(); ++i) {
        session_.addHard(
            dataFwd(0, cls, policy.primaryPath[i], policy.primaryPath[i + 1]));
      }
      session_.addHard(reach(0, cls, policy.primaryPath.front()));
      // Failure environment: first primary link down, alternate path pinned.
      for (std::size_t i = 0; i + 1 < policy.alternatePath.size(); ++i) {
        session_.addHard(dataFwd(envIndex, cls, policy.alternatePath[i],
                                 policy.alternatePath[i + 1]));
      }
      session_.addHard(reach(envIndex, cls, policy.alternatePath.front()));
      break;
    }
    case PolicyKind::kIsolation: {
      const auto sources2 = sim_.sourceRouters(policy.otherCls);
      for (const Link& link : topo_.links()) {
        for (const auto& [from, to] :
             {std::pair(link.a, link.b), std::pair(link.b, link.a)}) {
          z3::expr used1 = session_.boolVal(false);
          for (const std::string& g : sources) {
            session_.reassign(used1,
                              used1 || (onPathLayer(0, cls, g).at(from) &&
                                        dataFwd(0, cls, from, to)));
          }
          z3::expr used2 = session_.boolVal(false);
          for (const std::string& g : sources2) {
            session_.reassign(
                used2, used2 || (onPathLayer(0, policy.otherCls, g).at(from) &&
                                 dataFwd(0, policy.otherCls, from, to)));
          }
          session_.addHard(!(used1 && used2));
        }
      }
      break;
    }
  }
}

// --------------------------------------------------------------------------
// Top-level orchestration
// --------------------------------------------------------------------------

void Encoder::encode(const PolicySet& policies) {
  require(!encoded_, "Encoder::encode called twice");
  encoded_ = true;

  for (const Policy& policy : policies) {
    if (policy.kind == PolicyKind::kPathPreference ||
        policy.kind == PolicyKind::kWaypoint ||
        policy.kind == PolicyKind::kIsolation) {
      lpNeeded_ = true;
    }
  }

  classes_ = trafficClasses(policies);
  dstClasses_ = destinationPrefixes(policies);

  // Environment 0: everything up. One extra environment per distinct failed
  // link demanded by path-preference policies.
  environments_.emplace_back();
  std::vector<std::size_t> policyEnv(policies.size(), 0);
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const Policy& policy = policies[i];
    if (policy.kind != PolicyKind::kPathPreference) continue;
    require(policy.primaryPath.size() >= 2,
            "path-preference primary path too short");
    const std::pair<std::string, std::string> down{policy.primaryPath[0],
                                                   policy.primaryPath[1]};
    std::size_t found = 0;
    for (std::size_t e = 1; e < environments_.size(); ++e) {
      if (!environments_[e].linkUp(down.first, down.second)) found = e;
    }
    if (found == 0) {
      environments_.push_back(
          Environment::withDownLink(down.first, down.second));
      found = environments_.size() - 1;
    }
    policyEnv[i] = found;
  }

  // Deltas under (or at) a node another delta removes are don't-cares once
  // the removal fires; force them off so patches never edit nodes they also
  // delete (modifying a removed rule, adding an adjacency to a removed
  // process, ...).
  {
    std::map<std::string, std::vector<const DeltaVar*>> removalsByRouter;
    for (const DeltaVar& delta : sketch_.deltas()) {
      if (deltaKindName(delta.kind).rfind("rm-", 0) == 0) {
        removalsByRouter[delta.router].push_back(&delta);
      }
    }
    for (const DeltaVar& delta : sketch_.deltas()) {
      const auto it = removalsByRouter.find(delta.router);
      if (it == removalsByRouter.end()) continue;
      for (const DeltaVar* removal : it->second) {
        if (removal == &delta) continue;
        const bool under =
            delta.nodePath == removal->nodePath ||
            delta.nodePath.rfind(removal->nodePath + "/", 0) == 0;
        if (!under) continue;
        session_.addHard(
            z3::implies(deltaActive(delta), !deltaActive(*removal)));
      }
    }
  }

  // Static-route consistency: at most one added static route per
  // (router, destination), and additions only when existing covering static
  // routes are removed.
  for (const std::string& router : topo_.routerNames()) {
    for (const Ipv4Prefix& dst : dstClasses_) {
      std::vector<z3::expr> adds;
      std::vector<z3::expr> existingPresent;
      for (const DeltaVar& delta : sketch_.deltas()) {
        if (delta.router != router || !delta.hasPrefix) continue;
        if (delta.kind == DeltaKind::kAddStaticRoute && delta.prefix == dst) {
          adds.push_back(deltaActive(delta));
        }
        if (delta.kind == DeltaKind::kRemoveOrigination &&
            delta.procType == "static" && delta.prefix.contains(dst)) {
          existingPresent.push_back(!deltaActive(delta));
        }
      }
      for (std::size_t i = 0; i < adds.size(); ++i) {
        for (std::size_t j = i + 1; j < adds.size(); ++j) {
          session_.addHard(!(adds[i] && adds[j]));
        }
        for (const z3::expr& present : existingPresent) {
          session_.addHard(z3::implies(adds[i], !present));
        }
      }
    }
  }

  // Routing layers. Environment 0 hosts every destination; failure
  // environments only the destinations of their policies.
  for (const Ipv4Prefix& dst : dstClasses_) buildRoutingLayer(0, dst);
  for (const TrafficClass& cls : classes_) buildForwardingLayer(0, cls);
  std::set<std::pair<std::size_t, std::string>> builtRouting;
  std::set<std::pair<std::size_t, std::string>> builtForwarding;
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const std::size_t e = policyEnv[i];
    if (e == 0) continue;
    const Ipv4Prefix dst = policies[i].cls.dst;
    if (builtRouting.insert({e, dst.str()}).second) {
      buildRoutingLayer(e, dst);
    }
    if (builtForwarding.insert({e, policies[i].cls.str()}).second) {
      buildForwardingLayer(e, policies[i].cls);
    }
  }

  for (std::size_t i = 0; i < policies.size(); ++i) {
    encodePolicy(policies[i], policyEnv[i]);
  }

  logInfo() << "encoded " << policies.size() << " policies, "
            << sketch_.deltas().size() << " deltas, "
            << environments_.size() << " environments, "
            << session_.numVars() << " variables";
}

}  // namespace aed
