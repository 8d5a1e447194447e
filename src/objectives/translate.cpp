#include "objectives/translate.hpp"

#include <map>
#include <optional>
#include <set>

#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

// A desugared objective group: the subtree roots sharing a GROUPBY value and
// the deltas under each root.
struct Group {
  std::string key;  // GROUPBY attribute value ("" without GROUPBY)
  // root path -> deltas under it.
  std::map<std::string, std::vector<const DeltaVar*>> roots;
};

std::map<std::string, Group> collectGroups(const Sketch& sketch,
                                           const Objective& objective) {
  std::map<std::string, Group> groups;
  for (const DeltaVar& delta : sketch.deltas()) {
    const auto root = objective.xpath.rootOf(delta.virtualPath());
    if (!root) continue;
    const std::string key =
        objective.groupBy.empty()
            ? ""
            : XPath::rootAttr(*root, objective.groupBy);
    Group& group = groups[key];
    group.key = key;
    group.roots[*root].push_back(&delta);
  }
  return groups;
}

// One desugared objective: its report label and the group its soft
// constraint ranges over (none when the objective selects no delta).
struct Desugared {
  const Objective* objective;
  std::string label;
  std::optional<Group> group;
};

std::vector<Desugared> desugar(const Sketch& sketch,
                               const std::vector<Objective>& objectives) {
  std::vector<Desugared> out;
  for (const Objective& objective : objectives) {
    auto groups = collectGroups(sketch, objective);
    if (groups.empty()) {
      out.push_back({&objective, objective.label + " [no matches]", {}});
      continue;
    }
    for (auto& [key, group] : groups) {
      std::string label = objective.label;
      if (!objective.groupBy.empty()) {
        label += " [" + objective.groupBy + "=" + key + "]";
      }
      out.push_back({&objective, std::move(label), std::move(group)});
    }
  }
  return out;
}

z3::expr noModifyConstraint(Encoder& encoder, const Group& group) {
  SmtSession& session = encoder.session();
  z3::expr any = session.boolVal(false);
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      session.reassign(any, any || encoder.deltaActive(*delta));
    }
  }
  return !any;
}

z3::expr eliminateConstraint(Encoder& encoder, const Group& group) {
  SmtSession& session = encoder.session();
  z3::expr out = session.boolVal(true);
  // No additions; every node that has a removal delta must be removed.
  // (Modification deltas — flips, lp changes — are irrelevant once the node
  // is gone; nodes whose removal deltas were pruned cannot be eliminated
  // through this objective.)
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      if (isAddKind(delta->kind)) {
        session.reassign(out, out && !encoder.deltaActive(*delta));
      } else if (deltaKindName(delta->kind).rfind("rm-", 0) == 0) {
        session.reassign(out, out && encoder.deltaActive(*delta));
      }
    }
  }
  return out;
}

z3::expr equateConstraint(Encoder& encoder, const Group& group) {
  // Align deltas across the group's subtrees by their position relative to
  // the subtree root; corresponding deltas must take equal values, deltas
  // without a counterpart in every subtree must stay inactive.
  SmtSession& session = encoder.session();
  z3::expr out = session.boolVal(true);
  if (group.roots.size() < 2) return out;  // single clone: trivially equal

  struct Entry {
    const DeltaVar* delta;
    std::string root;
  };
  std::map<std::string, std::vector<Entry>> byKey;
  for (const auto& [root, deltas] : group.roots) {
    for (const DeltaVar* delta : deltas) {
      byKey[delta->relativeKey(root)].push_back(Entry{delta, root});
    }
  }
  const std::size_t cloneCount = group.roots.size();
  for (const auto& [key, entries] : byKey) {
    if (entries.size() < cloneCount) {
      // Asymmetric position: at least one clone lacks this node; keeping the
      // clones identical means not touching it anywhere.
      for (const Entry& entry : entries) {
        session.reassign(out, out && !encoder.deltaActive(*entry.delta));
      }
      continue;
    }
    const Entry& first = entries.front();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      const Entry& other = entries[i];
      session.reassign(out, out && (encoder.deltaActive(*first.delta) ==
                                    encoder.deltaActive(*other.delta)));
      // Value-level equality so clones receive the *same* change, not just
      // "a" change.
      const auto lp1 = encoder.lpValueExpr(*first.delta);
      const auto lp2 = encoder.lpValueExpr(*other.delta);
      if (lp1 && lp2) session.reassign(out, out && (*lp1 == *lp2));
      if (first.delta->kind == DeltaKind::kAddRouteFilterRule ||
          first.delta->kind == DeltaKind::kAddPacketFilterRule) {
        session.reassign(out, out && (encoder.addAllowVar(*first.delta) ==
                                      encoder.addAllowVar(*other.delta)));
      }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> objectiveLabels(
    const Sketch& sketch, const std::vector<Objective>& objectives) {
  std::vector<std::string> labels;
  for (Desugared& one : desugar(sketch, objectives)) {
    labels.push_back(std::move(one.label));
  }
  return labels;
}

void addObjectives(Encoder& encoder, const std::vector<Objective>& objectives) {
  SmtSession& session = encoder.session();
  const std::vector<Desugared> desugared =
      desugar(encoder.sketch(), objectives);
  for (const Desugared& one : desugared) {
    const Objective& objective = *one.objective;
    if (!one.group) {
      // Nothing selected: the objective is vacuously satisfied; register a
      // trivially-true soft constraint so reports stay complete.
      session.addSoft(session.boolVal(true), objective.weight, one.label);
      continue;
    }
    z3::expr constraint = session.boolVal(true);
    switch (objective.restriction) {
      case Restriction::kNoModify:
        session.reassign(constraint, noModifyConstraint(encoder, *one.group));
        break;
      case Restriction::kEliminate:
        session.reassign(constraint, eliminateConstraint(encoder, *one.group));
        break;
      case Restriction::kEquate:
        session.reassign(constraint, equateConstraint(encoder, *one.group));
        break;
    }
    session.addSoft(constraint, objective.weight, one.label);
  }
  logInfo() << "registered " << desugared.size()
            << " desugared objective soft constraints";
}

void addPerDeltaMinimality(Encoder& encoder) {
  for (const DeltaVar& delta : encoder.sketch().deltas()) {
    encoder.session().addSoft(!encoder.deltaActive(delta), 1,
                              "min-change:" + delta.name,
                              SmtSession::SoftKind::kMinimality);
  }
}

}  // namespace aed
