// Configuration patches: ordered lists of syntax-tree edits.
//
// AED's output is exactly this: a set of syntax-tree additions and removals
// (§4 "our key insight is to model configuration updates as a collection of
// syntax tree additions and removals"), plus attribute modifications for
// numeric action fields such as local-preference. Edits reference nodes by
// their path() string so a patch computed against one copy of a tree can be
// applied to another copy (or re-applied after review).
#pragma once

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "conftree/journal.hpp"
#include "conftree/tree.hpp"

namespace aed {

/// The router an edit path lies under: the name attribute of its first
/// component (`Router[name=X]/...` → "X"), or "" when the path does not
/// start at a router.
std::string routerOfPath(const std::string& path);

struct Edit {
  enum class Op { kAddNode, kRemoveNode, kSetAttr };

  Op op = Op::kAddNode;
  /// kRemoveNode/kSetAttr: path of the node itself.
  /// kAddNode: path of the parent under which the node is created.
  std::string targetPath;
  /// kAddNode only: kind of the created node.
  NodeKind kind = NodeKind::kNetwork;
  /// kAddNode: full attribute set of the new node.
  /// kSetAttr: the attributes to overwrite (new values).
  std::map<std::string, std::string> attrs;

  /// Human-readable one-line description.
  std::string describe() const;
};

class Patch {
 public:
  void add(Edit edit) { edits_.push_back(std::move(edit)); }
  const std::vector<Edit>& edits() const { return edits_; }
  bool empty() const { return edits_.empty(); }
  std::size_t size() const { return edits_.size(); }

  /// Called before each edit is applied; may throw to abort the apply (the
  /// deployment chaos tests inject stage-commit faults this way). The index
  /// is the edit's position within this patch.
  using EditHook = std::function<void(std::size_t index, const Edit& edit)>;

  /// Applies edits in order. Edits may reference nodes created by earlier
  /// edits in the same patch (e.g. rules added under a new filter).
  /// Throws AedError if a target path cannot be resolved.
  ///
  /// Strong exception safety: every mutation is recorded in an inverse-edit
  /// journal, and any failure — at edit 0 or edit k — rolls the tree back to
  /// a bit-identical pre-apply state before the exception propagates.
  void apply(ConfigTree& tree) const;

  /// Applies with an open journal the caller owns: on return the edits are
  /// applied but NOT committed — the caller decides between
  /// journal.commit() and journal.rollback() (the deployment engine commits
  /// a stage only after the intermediate state validates). If an edit
  /// throws, everything applied so far is rolled back before rethrowing and
  /// the journal is left empty. `hook`, when set, runs before each edit.
  void applyJournaled(ConfigTree& tree, ApplyJournal& journal,
                      const EditHook& hook = nullptr) const;

  /// Convenience: clones `tree`, applies, returns the updated copy.
  ConfigTree applied(const ConfigTree& tree) const;

  /// Multi-line human-readable description.
  std::string describe() const;

  /// Concatenates another patch's edits after this one's.
  void append(const Patch& other);

 private:
  std::vector<Edit> edits_;
};

}  // namespace aed
