// The network-wide configuration tree and navigation helpers.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "conftree/node.hpp"

namespace aed {

/// Owns the Network root node. Provides network-level navigation used by the
/// sketch builder, objective selector, simulator and diff.
class ConfigTree {
 public:
  ConfigTree() : root_(std::make_unique<Node>(NodeKind::kNetwork)) {}

  ConfigTree(ConfigTree&&) = default;
  ConfigTree& operator=(ConfigTree&&) = default;

  Node& root() { return *root_; }
  const Node& root() const { return *root_; }

  /// Adds a router with the given name (and optional role) to the network.
  Node& addRouter(std::string name, std::string role = "");

  /// Router by name; nullptr if absent.
  Node* router(std::string_view name) const;
  std::vector<Node*> routers() const;

  /// All nodes of `kind`, pre-order.
  std::vector<Node*> collect(NodeKind kind) const;
  /// All nodes matching a predicate, pre-order.
  std::vector<Node*> collectIf(
      const std::function<bool(const Node&)>& pred) const;

  /// Node with the exact path() string; nullptr if absent. Paths are how
  /// patches refer to nodes across tree copies.
  Node* byPath(std::string_view path) const;

  /// Deep copy of the whole tree.
  ConfigTree clone() const;

  /// Total node count, excluding the root.
  std::size_t nodeCount() const;

 private:
  std::unique_ptr<Node> root_;
};

}  // namespace aed
