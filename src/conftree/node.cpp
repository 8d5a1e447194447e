#include "conftree/node.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace aed {

std::string_view nodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kNetwork: return "Network";
    case NodeKind::kRouter: return "Router";
    case NodeKind::kInterface: return "Interface";
    case NodeKind::kRoutingProcess: return "RoutingProcess";
    case NodeKind::kAdjacency: return "Adjacency";
    case NodeKind::kOrigination: return "Origination";
    case NodeKind::kRedistribution: return "Redistribution";
    case NodeKind::kRouteFilter: return "RouteFilter";
    case NodeKind::kRouteFilterRule: return "RouteFilterRule";
    case NodeKind::kPacketFilter: return "PacketFilter";
    case NodeKind::kPacketFilterRule: return "PacketFilterRule";
  }
  return "?";
}

NodeKind nodeKindFromName(std::string_view name) {
  static const std::pair<std::string_view, NodeKind> kTable[] = {
      {"Network", NodeKind::kNetwork},
      {"Router", NodeKind::kRouter},
      {"Interface", NodeKind::kInterface},
      {"RoutingProcess", NodeKind::kRoutingProcess},
      {"Adjacency", NodeKind::kAdjacency},
      {"Origination", NodeKind::kOrigination},
      {"Redistribution", NodeKind::kRedistribution},
      {"RouteFilter", NodeKind::kRouteFilter},
      {"RouteFilterRule", NodeKind::kRouteFilterRule},
      {"PacketFilter", NodeKind::kPacketFilter},
      {"PacketFilterRule", NodeKind::kPacketFilterRule},
  };
  for (const auto& [kindName, kind] : kTable) {
    if (kindName == name) return kind;
  }
  throw AedError("unknown node kind: " + std::string(name));
}

std::string nodeSignature(NodeKind kind,
                          const std::map<std::string, std::string>& attrs) {
  const auto attr = [&attrs](const char* key) -> std::string {
    const auto it = attrs.find(key);
    return it == attrs.end() ? std::string() : it->second;
  };
  // Identifying attributes per kind; enough to be unique among siblings.
  std::string sig(nodeKindName(kind));
  std::vector<std::pair<std::string, std::string>> parts;
  switch (kind) {
    case NodeKind::kNetwork:
      break;
    case NodeKind::kRouter:
    case NodeKind::kInterface:
    case NodeKind::kRouteFilter:
    case NodeKind::kPacketFilter:
      parts.emplace_back("name", attr("name"));
      break;
    case NodeKind::kRoutingProcess:
      parts.emplace_back("type", attr("type"));
      parts.emplace_back("name", attr("name"));
      break;
    case NodeKind::kAdjacency:
      parts.emplace_back("peer", attr("peer"));
      break;
    case NodeKind::kOrigination:
      parts.emplace_back("prefix", attr("prefix"));
      break;
    case NodeKind::kRedistribution:
      parts.emplace_back("from", attr("from"));
      break;
    case NodeKind::kRouteFilterRule:
    case NodeKind::kPacketFilterRule:
      parts.emplace_back("seq", attr("seq"));
      break;
  }
  if (!parts.empty()) {
    sig += '[';
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) sig += ',';
      sig += parts[i].first + "=" + parts[i].second;
    }
    sig += ']';
  }
  return sig;
}

const std::string& Node::attr(const std::string& key) const {
  static const std::string kEmpty;
  const auto it = attrs_.find(key);
  return it == attrs_.end() ? kEmpty : it->second;
}

bool Node::hasAttr(const std::string& key) const {
  return attrs_.count(key) != 0;
}

void Node::setAttr(const std::string& key, std::string value) {
  attrs_[key] = std::move(value);
}

int Node::intAttr(const std::string& key) const {
  const auto it = attrs_.find(key);
  if (it == attrs_.end()) {
    throw AedError(ErrorCode::kParseError, "missing integer attribute '" +
                                               key + "' on node " + path());
  }
  return parseInt(it->second, "attribute '" + key + "' of node " + path());
}

int Node::intAttr(const std::string& key, int fallback) const {
  const auto it = attrs_.find(key);
  if (it == attrs_.end()) return fallback;
  return parseInt(it->second, "attribute '" + key + "' of node " + path());
}

Node& Node::addChild(NodeKind kind) {
  children_.push_back(std::make_unique<Node>(kind));
  Node& child = *children_.back();
  child.parent_ = this;
  return child;
}

Node& Node::addClone(const Node& other) {
  Node& copy = addChild(other.kind_);
  copy.attrs_ = other.attrs_;
  for (const auto& child : other.children_) copy.addClone(*child);
  return copy;
}

void Node::removeChild(std::size_t index) {
  require(index < children_.size(), "removeChild: index out of range");
  children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(index));
}

void Node::removeChild(const Node& child) {
  const auto it =
      std::find_if(children_.begin(), children_.end(),
                   [&child](const auto& c) { return c.get() == &child; });
  require(it != children_.end(), "removeChild: not a child of this node");
  children_.erase(it);
}

std::unique_ptr<Node> Node::detachChild(std::size_t index) {
  require(index < children_.size(), "detachChild: index out of range");
  std::unique_ptr<Node> child = std::move(children_[index]);
  children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(index));
  child->parent_ = nullptr;
  return child;
}

Node& Node::insertChild(std::size_t index, std::unique_ptr<Node> child) {
  require(child != nullptr, "insertChild: null child");
  require(index <= children_.size(), "insertChild: index out of range");
  child->parent_ = this;
  const auto it =
      children_.insert(children_.begin() + static_cast<std::ptrdiff_t>(index),
                       std::move(child));
  return **it;
}

std::size_t Node::childIndex(const Node& child) const {
  for (std::size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == &child) return i;
  }
  throw AedError("childIndex: not a child of this node");
}

void Node::removeAttr(const std::string& key) { attrs_.erase(key); }

std::vector<Node*> Node::childrenOfKind(NodeKind kind) const {
  std::vector<Node*> out;
  for (const auto& child : children_) {
    if (child->kind() == kind) out.push_back(child.get());
  }
  return out;
}

Node* Node::findChild(NodeKind kind, std::string_view name) const {
  for (const auto& child : children_) {
    if (child->kind() == kind && child->name() == name) return child.get();
  }
  return nullptr;
}

std::string Node::signature() const { return nodeSignature(kind_, attrs_); }

std::string Node::path() const {
  if (parent_ == nullptr || kind_ == NodeKind::kNetwork) return signature();
  if (parent_->kind() == NodeKind::kNetwork) return signature();
  return parent_->path() + "/" + signature();
}

}  // namespace aed
