#include "conftree/tree.hpp"

namespace aed {

Node& ConfigTree::addRouter(std::string name, std::string role) {
  Node& router = root_->addChild(NodeKind::kRouter);
  router.setAttr("name", std::move(name));
  if (!role.empty()) router.setAttr("role", std::move(role));
  return router;
}

Node* ConfigTree::router(std::string_view name) const {
  return root_->findChild(NodeKind::kRouter, name);
}

std::vector<Node*> ConfigTree::routers() const {
  return root_->childrenOfKind(NodeKind::kRouter);
}

std::vector<Node*> ConfigTree::collect(NodeKind kind) const {
  return collectIf([kind](const Node& n) { return n.kind() == kind; });
}

std::vector<Node*> ConfigTree::collectIf(
    const std::function<bool(const Node&)>& pred) const {
  std::vector<Node*> out;
  root_->visit([&out, &pred](const Node& node) {
    if (pred(node)) out.push_back(const_cast<Node*>(&node));
  });
  return out;
}

Node* ConfigTree::byPath(std::string_view path) const {
  Node* found = nullptr;
  root_->visit([&found, path](const Node& node) {
    if (found == nullptr && node.kind() != NodeKind::kNetwork &&
        node.path() == path) {
      found = const_cast<Node*>(&node);
    }
  });
  return found;
}

ConfigTree ConfigTree::clone() const {
  ConfigTree copy;
  for (const auto& child : root_->children()) {
    copy.root().addClone(*child);
  }
  return copy;
}

std::size_t ConfigTree::nodeCount() const {
  std::size_t count = 0;
  root_->visit([&count](const Node&) { ++count; });
  return count - 1;  // exclude the root itself
}

}  // namespace aed
