// Configuration syntax tree nodes (Figure 4 of the paper).
//
// AED models router configurations as a tree whose shape mirrors the five
// forwarding-relevant configuration elements: routing processes, routing
// adjacencies, originated prefixes, route filters, and packet filters. Each
// *leaf* corresponds to a single line of configuration, which makes the
// "lines changed" management metric exact, and each node carries string
// attributes that the objective language's XPath subset can match on.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aed {

enum class NodeKind {
  kNetwork,         // root: the whole network
  kRouter,          // attrs: name, role
  kInterface,       // attrs: name, address(prefix), pfilterIn, pfilterOut
  kRoutingProcess,  // attrs: type(bgp|ospf|static), name
  kAdjacency,       // attrs: peer, peerIp, filterIn
  kOrigination,     // attrs: prefix, [nexthop for static]
  kRedistribution,  // attrs: from(type of source process)
  kRouteFilter,     // attrs: name
  kRouteFilterRule, // attrs: seq, action(permit|deny), prefix|any, [lp]
  kPacketFilter,    // attrs: name
  kPacketFilterRule // attrs: seq, action, srcPrefix|any, dstPrefix|any
};

/// Node-kind name as used by the objective language (e.g. "Router",
/// "PacketFilter", "RoutingProcess").
std::string_view nodeKindName(NodeKind kind);

/// Inverse of nodeKindName; throws AedError on unknown names.
NodeKind nodeKindFromName(std::string_view name);

/// The signature (see Node::signature()) of a node of `kind` carrying
/// `attrs`; an absent identifying attribute reads as "". Lets a caller
/// predict the path of a node that a kAddNode edit will create.
std::string nodeSignature(NodeKind kind,
                          const std::map<std::string, std::string>& attrs);

/// A node in the configuration syntax tree. Nodes own their children;
/// parent pointers are non-owning back-references maintained by the tree.
class Node {
 public:
  explicit Node(NodeKind kind) : kind_(kind) {}

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  Node* parent() const { return parent_; }

  /// Attribute access. attr() returns "" for absent attributes, which the
  /// XPath matcher treats as non-matching.
  const std::string& attr(const std::string& key) const;
  bool hasAttr(const std::string& key) const;
  void setAttr(const std::string& key, std::string value);
  const std::map<std::string, std::string>& attrs() const { return attrs_; }

  /// Shorthand for the common "name" attribute.
  const std::string& name() const { return attr("name"); }

  /// Checked numeric attribute access for `seq`/`lp`/`med`/`cost`-style
  /// attributes. Throws AedError(ErrorCode::kParseError) naming the node
  /// path when the attribute is missing or not a valid integer, instead of
  /// letting std::stoi abort the process with std::invalid_argument.
  int intAttr(const std::string& key) const;
  /// Same, but returns `fallback` when the attribute is absent (a present
  /// but malformed value still throws).
  int intAttr(const std::string& key, int fallback) const;

  /// Appends a new child of `kind` and returns it.
  Node& addChild(NodeKind kind);
  /// Appends a deep copy of `other` (attributes + descendants).
  Node& addClone(const Node& other);
  /// Removes the child at `index`.
  void removeChild(std::size_t index);
  /// Removes the given child node; throws if not a child.
  void removeChild(const Node& child);
  /// Detaches the child at `index` without destroying it (its parent pointer
  /// is cleared). The apply journal uses this so a rolled-back removal
  /// reinserts the *same* node object, keeping the tree bit-identical and
  /// outstanding pointers into the subtree valid.
  std::unique_ptr<Node> detachChild(std::size_t index);
  /// Inserts a detached node as the child at `index` (existing children at
  /// and after `index` shift right). Inverse of detachChild.
  Node& insertChild(std::size_t index, std::unique_ptr<Node> child);
  /// Position of `child` among this node's children; throws if not a child.
  std::size_t childIndex(const Node& child) const;
  /// Erases an attribute; absent keys are ignored. The apply journal uses
  /// this to restore attributes that did not exist before a kSetAttr edit
  /// (attr() returning "" is not the same as the key being absent).
  void removeAttr(const std::string& key);

  const std::vector<std::unique_ptr<Node>>& children() const {
    return children_;
  }
  std::vector<Node*> childrenOfKind(NodeKind kind) const;
  /// First child of `kind` whose "name" attribute equals `name`; nullptr if
  /// absent.
  Node* findChild(NodeKind kind, std::string_view name) const;

  /// Pre-order traversal over this node and all descendants.
  template <typename F>
  void visit(F&& fn) {
    fn(*this);
    for (const auto& child : children_) child->visit(fn);
  }
  template <typename F>
  void visit(F&& fn) const {
    fn(static_cast<const Node&>(*this));
    for (const auto& child : children_) child->visit(fn);
  }

  /// A stable structural signature: kind plus identifying attributes, e.g.
  /// `RouteFilterRule[seq=10]`. Used to align nodes across routers for the
  /// EQUATE objective and across tree versions for diffing.
  std::string signature() const;
  /// Signature path from (but excluding) the Network root, e.g.
  /// `Router[name=B]/RoutingProcess[type=bgp,name=65000]/...`.
  std::string path() const;

 private:
  NodeKind kind_;
  Node* parent_ = nullptr;
  std::map<std::string, std::string> attrs_;
  std::vector<std::unique_ptr<Node>> children_;
};

}  // namespace aed
