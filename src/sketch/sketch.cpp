#include "sketch/sketch.hpp"

#include <algorithm>
#include <set>

#include "smt/session.hpp"
#include "util/error.hpp"

namespace aed {

namespace {

// Short, deterministic label for a process used in variable names.
std::string procLabel(const Node& proc) {
  return proc.attr("type") + "." + proc.name();
}

bool prefixRelevant(const Ipv4Prefix& rulePrefix,
                    const std::vector<Ipv4Prefix>& dstClasses) {
  return std::any_of(dstClasses.begin(), dstClasses.end(),
                     [&rulePrefix](const Ipv4Prefix& d) {
                       return rulePrefix.overlaps(d);
                     });
}

bool classRelevant(const Ipv4Prefix& ruleSrc, const Ipv4Prefix& ruleDst,
                   const std::vector<TrafficClass>& classes) {
  return std::any_of(classes.begin(), classes.end(),
                     [&ruleSrc, &ruleDst](const TrafficClass& cls) {
                       return ruleSrc.overlaps(cls.src) &&
                              ruleDst.overlaps(cls.dst);
                     });
}


// destinationScoped mode: a removal/modification is only offered when its
// effect is confined to one of the subproblem's destination classes.
bool scopedToDestinations(const SketchOptions& options,
                          const Ipv4Prefix& rulePrefix,
                          const std::vector<Ipv4Prefix>& dstClasses) {
  if (!options.destinationScoped) return true;
  return std::any_of(dstClasses.begin(), dstClasses.end(),
                     [&rulePrefix](const Ipv4Prefix& d) {
                       return d.contains(rulePrefix);
                     });
}

}  // namespace

void Sketch::add(DeltaVar delta) {
  require(byName_.count(delta.name) == 0,
          "duplicate delta variable: " + delta.name);
  byName_[delta.name] = deltas_.size();
  deltas_.push_back(std::move(delta));
}

const DeltaVar* Sketch::findByName(const std::string& name) const {
  const auto it = byName_.find(name);
  return it == byName_.end() ? nullptr : &deltas_[it->second];
}

Sketch buildSketch(const ConfigTree& tree, const Topology& topo,
                   const PolicySet& policies, const SketchOptions& options) {
  Sketch sketch;

  const std::vector<Ipv4Prefix> dstClasses = destinationPrefixes(policies);
  const std::vector<TrafficClass> classes = trafficClasses(policies);

  auto routers = tree.routers();
  std::sort(routers.begin(), routers.end(),
            [](const Node* a, const Node* b) { return a->name() < b->name(); });

  for (const Node* router : routers) {
    const std::string rname = router->name();

    // ---- routing processes (bgp/ospf) -------------------------------------
    std::set<std::string> presentTypes;
    for (const Node* proc : router->childrenOfKind(NodeKind::kRoutingProcess)) {
      const std::string type = proc->attr("type");
      presentTypes.insert(type);
      if (type == "static") {
        // Static routes are originations of the static process.
        for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
          const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
          if (!prefix) continue;
          if (options.pruneIrrelevant && !prefixRelevant(*prefix, dstClasses)) {
            continue;
          }
          if (!options.allowStaticRoutes) continue;
          if (!scopedToDestinations(options, *prefix, dstClasses)) continue;
          DeltaVar d;
          d.name = mangle({"rm", rname, "static", "Orig", prefix->str()});
          d.kind = DeltaKind::kRemoveOrigination;
          d.router = rname;
          d.nodePath = orig->path();
          d.procType = "static";
          d.hasPrefix = true;
          d.prefix = *prefix;
          sketch.add(std::move(d));
        }
        continue;
      }

      const std::string plabel = procLabel(*proc);
      if (!options.destinationScoped) {
        DeltaVar d;
        d.name = mangle({"rm", rname, plabel});
        d.kind = DeltaKind::kRemoveProcess;
        d.router = rname;
        d.nodePath = proc->path();
        d.procType = type;
        sketch.add(std::move(d));
      }

      // -- adjacencies: removals of current, additions towards physical
      //    neighbors lacking one.
      std::set<std::string> adjacentPeers;
      for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
        adjacentPeers.insert(adj->attr("peer"));
        if (options.destinationScoped) continue;
        DeltaVar d;
        d.name = mangle({"rm", rname, plabel, "Adj", adj->attr("peer")});
        d.kind = DeltaKind::kRemoveAdjacency;
        d.router = rname;
        d.nodePath = adj->path();
        d.procType = type;
        d.peer = adj->attr("peer");
        sketch.add(std::move(d));
      }
      // OSPF link costs are a routing metric the solver may retune (the
      // §8 (2n+1) treatment covers "cost and metric" values). A cost change
      // affects every destination, so it is unavailable in
      // destination-scoped subproblems.
      if (type == "ospf" && !options.destinationScoped) {
        for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
          DeltaVar d;
          d.name =
              mangle({"cost", rname, plabel, "Adj", adj->attr("peer")});
          d.kind = DeltaKind::kSetAdjacencyCost;
          d.router = rname;
          d.nodePath = adj->path();
          d.procType = type;
          d.peer = adj->attr("peer");
          sketch.add(std::move(d));
        }
      }
      if (options.allowAddAdjacency) {
        for (const std::string& neighbor : topo.neighbors(rname)) {
          if (adjacentPeers.count(neighbor) != 0) continue;
          // The peer needs a process of the same type; adjacencies towards
          // routers lacking one can never form a session.
          const Node* peerNode = tree.router(neighbor);
          bool peerHasType = false;
          for (const Node* pproc :
               peerNode->childrenOfKind(NodeKind::kRoutingProcess)) {
            if (pproc->attr("type") == type) peerHasType = true;
          }
          if (!peerHasType) continue;
          DeltaVar d;
          d.name = mangle({"add", rname, plabel, "Adj", neighbor});
          d.kind = DeltaKind::kAddAdjacency;
          d.router = rname;
          d.nodePath = proc->path();
          d.procType = type;
          d.peer = neighbor;
          sketch.add(std::move(d));
        }
      }

      // -- originations.
      if (options.allowOriginationChanges) {
        std::vector<Ipv4Prefix> originated;
        for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
          const auto prefix = Ipv4Prefix::parse(orig->attr("prefix"));
          if (!prefix) continue;
          originated.push_back(*prefix);
          if (options.pruneIrrelevant && !prefixRelevant(*prefix, dstClasses)) {
            continue;
          }
          if (!scopedToDestinations(options, *prefix, dstClasses)) continue;
          DeltaVar d;
          d.name = mangle({"rm", rname, plabel, "Orig", prefix->str()});
          d.kind = DeltaKind::kRemoveOrigination;
          d.router = rname;
          d.nodePath = orig->path();
          d.procType = type;
          d.hasPrefix = true;
          d.prefix = *prefix;
          sketch.add(std::move(d));
        }
        // Potential originations: only at routers that can actually deliver
        // the destination (stub subnet / existing origination), since an
        // origination elsewhere only creates a blackhole; blocking policies
        // are better served by filters.
        for (const Ipv4Prefix& d : dstClasses) {
          const auto attach = topo.attachmentPoints(tree, d);
          if (std::find(attach.begin(), attach.end(), rname) == attach.end()) {
            continue;
          }
          const bool already =
              std::any_of(originated.begin(), originated.end(),
                          [&d](const Ipv4Prefix& p) { return p.contains(d); });
          if (already) continue;
          DeltaVar dv;
          dv.name = mangle({"add", rname, plabel, "Orig", d.str()});
          dv.kind = DeltaKind::kAddOrigination;
          dv.router = rname;
          dv.nodePath = proc->path();
          dv.procType = type;
          dv.hasPrefix = true;
          dv.prefix = d;
          sketch.add(std::move(dv));
        }
      }

      // -- redistributions.
      std::set<std::string> redistFrom;
      for (const Node* redist :
           proc->childrenOfKind(NodeKind::kRedistribution)) {
        redistFrom.insert(redist->attr("from"));
        if (options.destinationScoped) continue;
        DeltaVar d;
        d.name = mangle({"rm", rname, plabel, "Redist", redist->attr("from")});
        d.kind = DeltaKind::kRemoveRedistribution;
        d.router = rname;
        d.nodePath = redist->path();
        d.procType = type;
        d.fromProto = redist->attr("from");
        sketch.add(std::move(d));
      }
      for (const std::string& from :
           {std::string("bgp"), std::string("ospf"), std::string("static"),
            std::string("connected")}) {
        if (from == type || redistFrom.count(from) != 0) continue;
        // Only meaningful if the source protocol exists on this router.
        bool sourceExists = from == "connected";
        for (const Node* sproc :
             router->childrenOfKind(NodeKind::kRoutingProcess)) {
          if (sproc->attr("type") == from) sourceExists = true;
        }
        if (!sourceExists) continue;
        DeltaVar d;
        d.name = mangle({"add", rname, plabel, "Redist", from});
        d.kind = DeltaKind::kAddRedistribution;
        d.router = rname;
        d.nodePath = proc->path();
        d.procType = type;
        d.fromProto = from;
        sketch.add(std::move(d));
      }

      // -- route filters on import adjacencies. Rule deltas belong to the
      //    filter node (a filter shared by several adjacencies has ONE set
      //    of deltas; the paper replicates the *constraints* per neighbor,
      //    not the variables). Per-destination rule additions also attach
      //    to the filter; adjacencies without a filter get per-adjacency
      //    additions (the materializer creates the filter).
      if (options.allowRouteFilterChanges) {
        std::set<std::string> referencedFilters;
        for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
          if (adj->hasAttr("filterIn")) {
            referencedFilters.insert(adj->attr("filterIn"));
          }
        }
        for (const Node* filter :
             proc->childrenOfKind(NodeKind::kRouteFilter)) {
          if (referencedFilters.count(filter->name()) == 0) continue;
          for (const Node* rule :
               filter->childrenOfKind(NodeKind::kRouteFilterRule)) {
            const auto prefix = Ipv4Prefix::parse(rule->attr("prefix"));
            if (!prefix) continue;
            if (options.pruneIrrelevant &&
                !prefixRelevant(*prefix, dstClasses)) {
              continue;
            }
            if (!scopedToDestinations(options, *prefix, dstClasses)) {
              continue;
            }
            const std::string stem = mangle(
                {rname, plabel, "rFil", filter->name(), rule->attr("seq")});
            DeltaVar rm;
            rm.name = "rm_" + stem;
            rm.kind = DeltaKind::kRemoveRouteFilterRule;
            rm.router = rname;
            rm.nodePath = rule->path();
            rm.procType = type;
            sketch.add(std::move(rm));

            DeltaVar flip;
            flip.name = "flip_" + stem;
            flip.kind = DeltaKind::kFlipRouteFilterRule;
            flip.router = rname;
            flip.nodePath = rule->path();
            flip.procType = type;
            sketch.add(std::move(flip));

            if (type == "bgp") {
              DeltaVar lp;
              lp.name = "lp_" + stem;
              lp.kind = DeltaKind::kSetRouteFilterRuleLp;
              lp.router = rname;
              lp.nodePath = rule->path();
              lp.procType = type;
              sketch.add(std::move(lp));

              DeltaVar med;
              med.name = "med_" + stem;
              med.kind = DeltaKind::kSetRouteFilterRuleMed;
              med.router = rname;
              med.nodePath = rule->path();
              med.procType = type;
              sketch.add(std::move(med));
            }
          }
          for (const Ipv4Prefix& d : dstClasses) {
            DeltaVar add;
            add.name = mangle(
                {"add", rname, plabel, "rFil", filter->name(), d.str()});
            add.kind = DeltaKind::kAddRouteFilterRule;
            add.router = rname;
            add.nodePath = filter->path();
            add.procType = type;
            add.hasPrefix = true;
            add.prefix = d;
            sketch.add(std::move(add));
          }
        }
        for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
          const std::string peer = adj->attr("peer");
          const bool hasFilter =
              adj->hasAttr("filterIn") &&
              proc->findChild(NodeKind::kRouteFilter,
                              adj->attr("filterIn")) != nullptr;
          if (hasFilter) continue;
          for (const Ipv4Prefix& d : dstClasses) {
            DeltaVar add;
            add.name =
                mangle({"add", rname, plabel, "rFilNew", peer, d.str()});
            add.kind = DeltaKind::kAddRouteFilterRule;
            add.router = rname;
            add.nodePath = adj->path();
            add.procType = type;
            add.peer = peer;
            add.hasPrefix = true;
            add.prefix = d;
            sketch.add(std::move(add));
          }
        }
      }
    }

    // ---- potential static routes ------------------------------------------
    if (options.allowStaticRoutes) {
      for (const Ipv4Prefix& d : dstClasses) {
        for (const std::string& neighbor : topo.neighbors(rname)) {
          DeltaVar dv;
          dv.name = mangle({"add", rname, "static", d.str(), "via", neighbor});
          dv.kind = DeltaKind::kAddStaticRoute;
          dv.router = rname;
          dv.nodePath = router->path();
          dv.procType = "static";
          dv.peer = neighbor;
          dv.hasPrefix = true;
          dv.prefix = d;
          sketch.add(std::move(dv));
        }
      }
    }

    // ---- packet filters -----------------------------------------------------
    if (options.allowPacketFilterChanges) {
      // Existing filters: rule removals/flips + per-class additions.
      for (const Node* filter :
           router->childrenOfKind(NodeKind::kPacketFilter)) {
        for (const Node* rule :
             filter->childrenOfKind(NodeKind::kPacketFilterRule)) {
          const auto src = Ipv4Prefix::parse(rule->attr("srcPrefix"));
          const auto dst = Ipv4Prefix::parse(rule->attr("dstPrefix"));
          if (!src || !dst) continue;
          if (options.pruneIrrelevant && !classRelevant(*src, *dst, classes)) {
            continue;
          }
          if (!scopedToDestinations(options, *dst, dstClasses)) continue;
          const std::string stem =
              mangle({rname, "pFil", filter->name(), rule->attr("seq")});
          DeltaVar rm;
          rm.name = "rm_" + stem;
          rm.kind = DeltaKind::kRemovePacketFilterRule;
          rm.router = rname;
          rm.nodePath = rule->path();
          sketch.add(std::move(rm));

          DeltaVar flip;
          flip.name = "flip_" + stem;
          flip.kind = DeltaKind::kFlipPacketFilterRule;
          flip.router = rname;
          flip.nodePath = rule->path();
          sketch.add(std::move(flip));
        }
        for (const TrafficClass& cls : classes) {
          DeltaVar add;
          add.name = mangle({"add", rname, "pFil", filter->name(),
                             cls.src.str(), cls.dst.str()});
          add.kind = DeltaKind::kAddPacketFilterRule;
          add.router = rname;
          add.nodePath = filter->path();
          add.hasCls = true;
          add.cls = cls;
          sketch.add(std::move(add));
        }
      }
      // Potential new ingress filters on inter-router interfaces that have
      // none bound.
      for (const Node* iface : router->childrenOfKind(NodeKind::kInterface)) {
        if (iface->hasAttr("pfilterIn")) continue;
        if (!iface->hasAttr("address")) continue;
        // Only interfaces facing another router.
        const auto subnet = Ipv4Prefix::parse(iface->attr("address"));
        if (!subnet) continue;
        bool facesRouter = false;
        for (const Link& link : topo.links()) {
          if (link.subnet == *subnet &&
              (link.a == rname || link.b == rname)) {
            facesRouter = true;
          }
        }
        if (!facesRouter) continue;
        for (const TrafficClass& cls : classes) {
          DeltaVar add;
          add.name = mangle({"add", rname, "pFil", iface->name(),
                             cls.src.str(), cls.dst.str()});
          add.kind = DeltaKind::kAddPacketFilterRule;
          add.router = rname;
          add.nodePath = iface->path();
          add.hasCls = true;
          add.cls = cls;
          sketch.add(std::move(add));
        }
      }
    }
  }
  return sketch;
}

}  // namespace aed
