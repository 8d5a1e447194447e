#include "topology/topology.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace aed {

Topology Topology::fromConfigs(const ConfigTree& tree) {
  Topology topo;
  std::map<Ipv4Prefix, std::vector<TopoInterface>> bySubnet;
  for (const Node* router : tree.routers()) {
    topo.routers_.push_back(router->name());
    for (const Node* iface : router->childrenOfKind(NodeKind::kInterface)) {
      if (!iface->hasAttr("address")) continue;
      const auto addrPrefix = Ipv4Prefix::parse(iface->attr("address"));
      require(addrPrefix.has_value(),
              "bad interface address on " + router->name());
      // The attr holds address/len; the subnet is the masked prefix and the
      // address is the full value.
      const auto rawAddr =
          Ipv4Address::parse(iface->attr("address").substr(
              0, iface->attr("address").find('/')));
      require(rawAddr.has_value(), "bad interface address");
      TopoInterface ti{router->name(), iface->name(), *addrPrefix, *rawAddr};
      bySubnet[*addrPrefix].push_back(ti);
      topo.interfaces_.push_back(ti);
    }
  }
  std::sort(topo.routers_.begin(), topo.routers_.end());

  for (const auto& [subnet, ifaces] : bySubnet) {
    // Collect the distinct routers on this subnet.
    std::vector<TopoInterface> byRouter = ifaces;
    std::sort(byRouter.begin(), byRouter.end(),
              [](const TopoInterface& x, const TopoInterface& y) {
                return x.router < y.router;
              });
    byRouter.erase(std::unique(byRouter.begin(), byRouter.end(),
                               [](const TopoInterface& x,
                                  const TopoInterface& y) {
                                 return x.router == y.router;
                               }),
                   byRouter.end());
    if (byRouter.size() == 1) {
      topo.stubs_[subnet] = byRouter[0].router;
    } else if (byRouter.size() == 2) {
      Link link;
      link.a = byRouter[0].router;
      link.b = byRouter[1].router;
      link.subnet = subnet;
      link.ifaceA = byRouter[0].name;
      link.ifaceB = byRouter[1].name;
      topo.linkIndex_[{link.a, link.b}] = topo.links_.size();
      topo.linkIndex_[{link.b, link.a}] = topo.links_.size();
      topo.links_.push_back(link);
    } else {
      throw AedError("subnet " + subnet.str() +
                     " shared by more than two routers; only point-to-point "
                     "links and stub subnets are modeled");
    }
  }
  for (const Link& link : topo.links_) {
    topo.neighborIndex_[link.a].push_back(link.b);
    topo.neighborIndex_[link.b].push_back(link.a);
  }
  for (auto& [router, list] : topo.neighborIndex_) {
    std::sort(list.begin(), list.end());
  }
  return topo;
}

bool Topology::connected(const std::string& a, const std::string& b) const {
  return linkIndex_.count({a, b}) != 0;
}

std::vector<std::string> Topology::neighbors(const std::string& router) const {
  return neighborsOf(router);
}

const std::vector<std::string>& Topology::neighborsOf(
    const std::string& router) const {
  static const std::vector<std::string> kEmpty;
  const auto it = neighborIndex_.find(router);
  return it == neighborIndex_.end() ? kEmpty : it->second;
}

std::optional<Link> Topology::linkBetween(const std::string& a,
                                          const std::string& b) const {
  const auto it = linkIndex_.find({a, b});
  if (it == linkIndex_.end()) return std::nullopt;
  return links_[it->second];
}

const Node* Topology::interfaceTowards(const ConfigTree& tree,
                                       const std::string& router,
                                       const std::string& neighbor) const {
  const auto it = linkIndex_.find({router, neighbor});
  const Node* node = it == linkIndex_.end() ? nullptr : tree.router(router);
  if (node == nullptr) return nullptr;
  const Link& link = links_[it->second];
  return node->findChild(NodeKind::kInterface,
                         link.a == router ? link.ifaceA : link.ifaceB);
}

std::vector<std::string> Topology::attachmentPoints(
    const ConfigTree& tree, const Ipv4Prefix& prefix) const {
  std::vector<std::string> out;
  // Stub subnets covering or covered by the prefix.
  for (const auto& [subnet, router] : stubs_) {
    if (subnet.overlaps(prefix)) out.push_back(router);
  }
  // Originations (non-static) that cover or equal the prefix.
  for (const Node* router : tree.routers()) {
    for (const Node* proc :
         router->childrenOfKind(NodeKind::kRoutingProcess)) {
      if (proc->attr("type") == "static") continue;
      for (const Node* orig : proc->childrenOfKind(NodeKind::kOrigination)) {
        const auto origPrefix = Ipv4Prefix::parse(orig->attr("prefix"));
        if (origPrefix && origPrefix->overlaps(prefix)) {
          out.push_back(router->name());
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::optional<Ipv4Address> Topology::addressOn(
    const std::string& router, const std::string& neighbor) const {
  const auto link = linkBetween(router, neighbor);
  if (!link) return std::nullopt;
  for (const TopoInterface& iface : interfaces_) {
    if (iface.router == router && iface.subnet == link->subnet) {
      return iface.address;
    }
  }
  return std::nullopt;
}

std::optional<Ipv4Address> Topology::peerAddress(
    const std::string& router, const std::string& neighbor) const {
  return addressOn(neighbor, router);
}

}  // namespace aed
