#include "sketch/delta.hpp"

#include "util/strings.hpp"

namespace aed {

std::string deltaKindName(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kRemoveProcess: return "rm-process";
    case DeltaKind::kRemoveAdjacency: return "rm-adjacency";
    case DeltaKind::kRemoveOrigination: return "rm-origination";
    case DeltaKind::kRemoveRedistribution: return "rm-redistribution";
    case DeltaKind::kRemoveRouteFilterRule: return "rm-rfilter-rule";
    case DeltaKind::kFlipRouteFilterRule: return "flip-rfilter-rule";
    case DeltaKind::kSetRouteFilterRuleLp: return "set-rfilter-lp";
    case DeltaKind::kSetRouteFilterRuleMed: return "set-rfilter-med";
    case DeltaKind::kSetAdjacencyCost: return "set-adjacency-cost";
    case DeltaKind::kRemovePacketFilterRule: return "rm-pfilter-rule";
    case DeltaKind::kFlipPacketFilterRule: return "flip-pfilter-rule";
    case DeltaKind::kAddAdjacency: return "add-adjacency";
    case DeltaKind::kAddOrigination: return "add-origination";
    case DeltaKind::kAddRedistribution: return "add-redistribution";
    case DeltaKind::kAddRouteFilterRule: return "add-rfilter-rule";
    case DeltaKind::kAddPacketFilterRule: return "add-pfilter-rule";
    case DeltaKind::kAddStaticRoute: return "add-static-route";
  }
  return "?";
}

bool isAddKind(DeltaKind kind) {
  switch (kind) {
    case DeltaKind::kAddAdjacency:
    case DeltaKind::kAddOrigination:
    case DeltaKind::kAddRedistribution:
    case DeltaKind::kAddRouteFilterRule:
    case DeltaKind::kAddPacketFilterRule:
    case DeltaKind::kAddStaticRoute:
      return true;
    default:
      return false;
  }
}

std::string DeltaVar::virtualPath() const {
  switch (kind) {
    case DeltaKind::kAddAdjacency:
      return nodePath + "/Adjacency[peer=" + peer + "]";
    case DeltaKind::kAddOrigination:
      return nodePath + "/Origination[prefix=" + prefix.str() + "]";
    case DeltaKind::kAddRedistribution:
      return nodePath + "/Redistribution[from=" + fromProto + "]";
    case DeltaKind::kAddStaticRoute:
      return nodePath + "/RoutingProcess[type=static,name=main]/Origination[prefix=" +
             prefix.str() + "]";
    case DeltaKind::kAddRouteFilterRule: {
      // nodePath is a RouteFilter (existing) or an Adjacency (a new filter
      // would be created next to it).
      const bool onFilter =
          nodePath.find("/RouteFilter[") != std::string::npos;
      const std::string base =
          onFilter ? nodePath
                   : nodePath + "/RouteFilter[name=rf_" + peer + "_aed]";
      return base + "/RouteFilterRule[seq=new:" + prefix.str() + "]";
    }
    case DeltaKind::kAddPacketFilterRule: {
      const bool onFilter =
          nodePath.find("/PacketFilter[") != std::string::npos;
      std::string base = nodePath;
      if (!onFilter) {
        // nodePath is an interface; the new filter hangs off the router.
        const auto cut = nodePath.rfind('/');
        const std::string routerPath = nodePath.substr(0, cut);
        const std::string ifaceSig = nodePath.substr(cut + 1);
        // Interface[name=X] -> pf_X_aed
        std::string ifaceName = ifaceSig;
        const auto eq = ifaceName.find("name=");
        if (eq != std::string::npos) {
          ifaceName = ifaceName.substr(eq + 5);
          if (!ifaceName.empty() && ifaceName.back() == ']') {
            ifaceName.pop_back();
          }
        }
        base = routerPath + "/PacketFilter[name=pf_" + ifaceName + "_aed]";
      }
      return base + "/PacketFilterRule[seq=new:" + cls.src.str() + ">" +
             cls.dst.str() + "]";
    }
    default:
      return nodePath;
  }
}

std::string DeltaVar::relativeKey(const std::string& subtreeRoot) const {
  const std::string vpath = virtualPath();
  if (!startsWith(vpath, subtreeRoot)) return "";
  std::string relative = vpath.substr(subtreeRoot.size());
  if (startsWith(relative, "/")) relative = relative.substr(1);
  return deltaKindName(kind) + "@" + relative;
}

}  // namespace aed
