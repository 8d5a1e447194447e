#include "conftree/patch.hpp"

#include "util/error.hpp"

namespace aed {

std::string routerOfPath(const std::string& path) {
  const std::string prefix = "Router[name=";
  if (path.rfind(prefix, 0) != 0) return "";
  const auto end = path.find(']');
  if (end == std::string::npos) return "";
  return path.substr(prefix.size(), end - prefix.size());
}

std::string Edit::describe() const {
  switch (op) {
    case Op::kAddNode: {
      std::string out = "add " + std::string(nodeKindName(kind)) + " under " +
                        targetPath + " {";
      bool first = true;
      for (const auto& [key, value] : attrs) {
        if (!first) out += ", ";
        first = false;
        out += key + "=" + value;
      }
      return out + "}";
    }
    case Op::kRemoveNode:
      return "remove " + targetPath;
    case Op::kSetAttr: {
      std::string out = "set " + targetPath + " {";
      bool first = true;
      for (const auto& [key, value] : attrs) {
        if (!first) out += ", ";
        first = false;
        out += key + "=" + value;
      }
      return out + "}";
    }
  }
  return "?";
}

void Patch::apply(ConfigTree& tree) const {
  ApplyJournal journal;
  applyJournaled(tree, journal);
  journal.commit();
}

void Patch::applyJournaled(ConfigTree& tree, ApplyJournal& journal,
                           const EditHook& hook) const {
  try {
    for (std::size_t i = 0; i < edits_.size(); ++i) {
      const Edit& edit = edits_[i];
      if (hook) hook(i, edit);
      Node* target = tree.byPath(edit.targetPath);
      require(target != nullptr, ErrorCode::kApplyFailed,
              "patch target not found: " + edit.targetPath);
      switch (edit.op) {
        case Edit::Op::kAddNode: {
          Node& created = target->addChild(edit.kind);
          for (const auto& [key, value] : edit.attrs) {
            created.setAttr(key, value);
          }
          journal.recordAdd(*target, target->children().size() - 1);
          break;
        }
        case Edit::Op::kRemoveNode: {
          Node* parent = target->parent();
          require(parent != nullptr, ErrorCode::kApplyFailed,
                  "cannot remove the root");
          const std::size_t index = parent->childIndex(*target);
          journal.recordRemove(*parent, index, parent->detachChild(index));
          break;
        }
        case Edit::Op::kSetAttr: {
          std::map<std::string, std::string> previousValues;
          std::vector<std::string> previouslyAbsent;
          for (const auto& [key, value] : edit.attrs) {
            if (target->hasAttr(key)) {
              previousValues.emplace(key, target->attr(key));
            } else {
              previouslyAbsent.push_back(key);
            }
            target->setAttr(key, value);
          }
          journal.recordSetAttrs(*target, std::move(previousValues),
                                 std::move(previouslyAbsent));
          break;
        }
      }
    }
  } catch (...) {
    journal.rollback();
    throw;
  }
}

ConfigTree Patch::applied(const ConfigTree& tree) const {
  ConfigTree copy = tree.clone();
  apply(copy);
  return copy;
}

std::string Patch::describe() const {
  std::string out;
  for (const Edit& edit : edits_) {
    out += edit.describe();
    out += '\n';
  }
  return out;
}

void Patch::append(const Patch& other) {
  edits_.insert(edits_.end(), other.edits_.begin(), other.edits_.end());
}

}  // namespace aed
