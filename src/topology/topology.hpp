// Physical topology derived from configurations.
//
// AED derives *potential* syntax-tree nodes from the physical topology
// (e.g. potential routing adjacencies exist only between physically
// connected routers, §5.1). The topology is itself implied by the
// configurations: two interfaces on different routers that share an IP
// subnet form a point-to-point link; a subnet seen on exactly one router is
// a host (stub) subnet attached to that router.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "util/ipv4.hpp"

namespace aed {

struct TopoInterface {
  std::string router;
  std::string name;
  Ipv4Prefix subnet;    // interface prefix as configured
  Ipv4Address address;  // configured address within the subnet
};

struct Link {
  std::string a;       // router names, a < b lexicographically
  std::string b;
  Ipv4Prefix subnet;   // the shared subnet
  std::string ifaceA;  // interface names on each side
  std::string ifaceB;
};

class Topology {
 public:
  /// Derives the topology from interface addresses in the tree.
  /// Throws AedError if a subnet is shared by more than two routers
  /// (the model is point-to-point links plus stub subnets).
  static Topology fromConfigs(const ConfigTree& tree);

  const std::vector<std::string>& routerNames() const { return routers_; }
  const std::vector<Link>& links() const { return links_; }

  bool connected(const std::string& a, const std::string& b) const;
  /// Neighbor router names of `router`, sorted.
  std::vector<std::string> neighbors(const std::string& router) const;
  /// Same, but returns a reference into a precomputed index (built once in
  /// fromConfigs) instead of rescanning every link per call — the form the
  /// simulation hot paths use. The reference stays valid for the topology's
  /// lifetime; routers with no links map to a shared empty vector.
  const std::vector<std::string>& neighborsOf(const std::string& router) const;
  /// The link between a and b, if any.
  std::optional<Link> linkBetween(const std::string& a,
                                  const std::string& b) const;
  /// The interface node of `router` in `tree` (the tree this topology was
  /// derived from) on its link towards `neighbor`; nullptr if not linked.
  const Node* interfaceTowards(const ConfigTree& tree,
                               const std::string& router,
                               const std::string& neighbor) const;

  /// Stub subnets (hosts) attached to each router: subnet -> router name.
  const std::map<Ipv4Prefix, std::string>& stubSubnets() const {
    return stubs_;
  }
  /// Routers that "own" a destination prefix: routers with a stub subnet or
  /// an origination covering/equal to the prefix. Empty if none.
  std::vector<std::string> attachmentPoints(const ConfigTree& tree,
                                            const Ipv4Prefix& prefix) const;

  /// The interface address of `router` on its link towards `neighbor`
  /// (used when synthesizing new adjacencies). Nullopt if not connected.
  std::optional<Ipv4Address> addressOn(const std::string& router,
                                       const std::string& neighbor) const;
  /// The peer's address on the shared link (the neighbor IP a new
  /// adjacency on `router` must name).
  std::optional<Ipv4Address> peerAddress(const std::string& router,
                                         const std::string& neighbor) const;

 private:
  std::vector<std::string> routers_;
  std::vector<Link> links_;
  std::map<std::pair<std::string, std::string>, std::size_t> linkIndex_;
  std::map<Ipv4Prefix, std::string> stubs_;
  std::vector<TopoInterface> interfaces_;
  std::map<std::string, std::vector<std::string>> neighborIndex_;
};

}  // namespace aed
