#include "apply/plan.hpp"

#include <algorithm>
#include <list>
#include <map>
#include <optional>

#include "conftree/node.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "util/deadline.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace aed {

namespace {

// Destination prefix an edit can be attributed to, or nullopt when the edit
// is not destination-local (adjacencies, redistributions, renames, ...).
std::optional<std::string> destKeyOf(const Edit& edit, const ConfigTree& base) {
  const auto fromAttrs =
      [&edit](const char* key) -> std::optional<std::string> {
    const auto it = edit.attrs.find(key);
    if (it == edit.attrs.end()) return std::nullopt;
    return it->second;
  };
  if (edit.op == Edit::Op::kAddNode) {
    switch (edit.kind) {
      case NodeKind::kOrigination:
      case NodeKind::kRouteFilterRule:
        return fromAttrs("prefix");
      case NodeKind::kPacketFilterRule:
        return fromAttrs("dstPrefix");
      default:
        return std::nullopt;
    }
  }
  const Node* node = base.byPath(edit.targetPath);
  if (node == nullptr) return std::nullopt;  // targets a node another edit adds
  const auto fromNode = [&](const char* key) -> std::optional<std::string> {
    if (!node->hasAttr(key)) return std::nullopt;
    // A kSetAttr that *changes* the destination attribute matters to both
    // its old and new value — too entangled to split, stay conservative.
    const auto it = edit.attrs.find(key);
    if (it != edit.attrs.end() && it->second != node->attr(key)) {
      return std::nullopt;
    }
    return node->attr(key);
  };
  switch (node->kind()) {
    case NodeKind::kOrigination:
    case NodeKind::kRouteFilterRule:
      return fromNode("prefix");
    case NodeKind::kPacketFilterRule:
      return fromNode("dstPrefix");
    default:
      return std::nullopt;
  }
}

struct Unit {
  std::string label;
  std::set<std::string> routers;
  Patch patch;
};

// Splits one router's edits into per-destination units. Returns empty when
// splitting is impossible (an unattributable edit, fewer than two
// destinations, or structural dependencies collapsing everything into one
// group).
std::vector<Unit> trySplitByDestination(const std::string& router,
                                        const std::vector<const Edit*>& edits,
                                        const ConfigTree& base) {
  std::vector<std::string> keys(edits.size());
  for (std::size_t i = 0; i < edits.size(); ++i) {
    const auto key = destKeyOf(*edits[i], base);
    if (!key) return {};
    keys[i] = *key;
  }
  // Union groups that structurally depend on each other: an edit whose
  // target path extends a node path another group's kAddNode creates.
  std::map<std::string, std::string> parent;  // destKey -> representative
  for (const std::string& key : keys) parent.emplace(key, key);
  const std::function<std::string(const std::string&)> find =
      [&](const std::string& key) -> std::string {
    std::string current = key;
    while (parent.at(current) != current) current = parent.at(current);
    return current;
  };
  for (std::size_t a = 0; a < edits.size(); ++a) {
    if (edits[a]->op != Edit::Op::kAddNode) continue;
    const std::string created =
        edits[a]->targetPath + "/" +
        nodeSignature(edits[a]->kind, edits[a]->attrs);
    for (std::size_t b = 0; b < edits.size(); ++b) {
      if (keys[a] == keys[b]) continue;
      if (edits[b]->targetPath == created ||
          startsWith(edits[b]->targetPath, created + "/")) {
        parent[find(keys[b])] = find(keys[a]);
      }
    }
  }
  std::map<std::string, Unit> groups;  // representative -> unit (sorted)
  for (std::size_t i = 0; i < edits.size(); ++i) {
    Unit& unit = groups[find(keys[i])];
    unit.patch.add(*edits[i]);
  }
  if (groups.size() < 2) return {};
  std::vector<Unit> units;
  for (auto& [key, unit] : groups) {
    unit.label = "router " + router + " · dst " + key;
    unit.routers = {router};
    units.push_back(std::move(unit));
  }
  return units;
}

// Partitions the merged patch into atomic rollout units: one per touched
// router, split per destination where possible. Edit order within a unit
// follows the merged patch, so intra-unit dependencies (a rule under a
// freshly created filter) stay satisfied.
std::vector<Unit> partitionUnits(const Patch& merged, const ConfigTree& base) {
  std::map<std::string, std::vector<const Edit*>> byRouter;
  for (const Edit& edit : merged.edits()) {
    byRouter[routerOfPath(edit.targetPath)].push_back(&edit);
  }
  std::vector<Unit> units;
  for (const auto& [router, edits] : byRouter) {
    if (!router.empty()) {
      std::vector<Unit> split = trySplitByDestination(router, edits, base);
      if (!split.empty()) {
        for (Unit& unit : split) units.push_back(std::move(unit));
        continue;
      }
    }
    Unit unit;
    unit.label = router.empty() ? "network" : "router " + router;
    if (!router.empty()) unit.routers = {router};
    for (const Edit* edit : edits) unit.patch.add(*edit);
    units.push_back(std::move(unit));
  }
  return units;
}

// `policies` minus the ones named in `violated` (Policy has no operator==;
// str() is a faithful identity).
PolicySet minus(const PolicySet& policies, const PolicySet& violated) {
  std::set<std::string> violatedKeys;
  for (const Policy& policy : violated) violatedKeys.insert(policy.str());
  PolicySet held;
  for (const Policy& policy : policies) {
    if (violatedKeys.count(policy.str()) == 0) held.push_back(policy);
  }
  return held;
}

}  // namespace

const char* stageStatusName(StageStatus status) {
  switch (status) {
    case StageStatus::kPlanned: return "planned";
    case StageStatus::kCommitted: return "committed";
    case StageStatus::kRolledBack: return "rolled_back";
    case StageStatus::kSkipped: return "skipped";
  }
  return "planned";
}

PolicySet regressionGuard(const ConfigTree& base, const ConfigTree& updated,
                          const PolicySet& policies,
                          const DeployOptions& options) {
  const PolicySet heldBefore = minus(
      policies, SimulationEngine(base, options.workers).violations(policies));
  return minus(heldBefore, SimulationEngine(updated, options.workers)
                               .violations(heldBefore));
}

DeploymentPlan planStagedRollout(const ConfigTree& base, const Patch& merged,
                                 const PolicySet& policies,
                                 const DeployOptions& options) {
  AED_SPAN("deploy.plan");
  const auto start = Deadline::Clock::now();
  DeploymentPlan plan;
  if (merged.empty()) {
    plan.guard = regressionGuard(base, base, policies, options);
    plan.planSeconds = secondsSince(start);
    return plan;
  }

  const ConfigTree final_ = merged.applied(base);
  plan.guard = regressionGuard(base, final_, policies, options);

  std::vector<Unit> units = partitionUnits(merged, base);

  // Greedy commit loop with simulation-checked reordering: each candidate
  // state is checked by an engine built for it.
  const auto holdsGuard = [&plan, &options](const ConfigTree& candidate) {
    return SimulationEngine(candidate, options.workers)
        .violations(plan.guard)
        .empty();
  };
  ConfigTree current = base.clone();

  const auto pushStage = [&plan](Unit& unit, bool validated,
                                 std::string detail = {}) {
    DeploymentStage stage;
    stage.index = plan.stages.size();
    stage.label = std::move(unit.label);
    stage.patch = std::move(unit.patch);
    stage.routers = std::move(unit.routers);
    stage.validated = validated;
    stage.detail = std::move(detail);
    plan.stages.push_back(std::move(stage));
  };

  std::list<std::size_t> remaining;
  for (std::size_t i = 0; i < units.size(); ++i) remaining.push_back(i);

  while (!remaining.empty()) {
    bool progressed = false;
    std::size_t position = 0;
    for (auto it = remaining.begin(); it != remaining.end();
         ++it, ++position) {
      Unit& unit = units[*it];
      ConfigTree candidate = current.clone();
      ++plan.candidatesTried;
      try {
        unit.patch.apply(candidate);
      } catch (const AedError&) {
        continue;  // structurally inapplicable here; maybe later
      }
      if (!holdsGuard(candidate)) continue;
      if (position != 0) ++plan.reorderings;
      pushStage(unit, /*validated=*/true);
      current = std::move(candidate);
      remaining.erase(it);
      progressed = true;
      break;
    }
    if (progressed) continue;

    // No remaining unit is individually transient-safe (the classic case:
    // two classes swapping disjoint paths under an isolation policy).
    Unit rest;
    std::size_t mergedUnits = 0;
    for (const std::size_t idx : remaining) {
      rest.patch.append(units[idx].patch);
      rest.routers.insert(units[idx].routers.begin(),
                          units[idx].routers.end());
      ++mergedUnits;
    }
    rest.label = "one-shot (" + std::to_string(mergedUnits) + " units)";
    bool validated = false;
    std::string detail;
    ConfigTree candidate = current.clone();
    ++plan.candidatesTried;
    try {
      rest.patch.apply(candidate);
      validated = holdsGuard(candidate);
      if (!validated) detail = "final state regresses the guard (internal)";
    } catch (const AedError& e) {
      detail = e.what();
    }
    logWarn() << "staged rollout: no transient-safe order for "
              << mergedUnits << " remaining units; one-shot fallback";
    plan.oneShot = true;
    pushStage(rest, validated, std::move(detail));
    break;
  }

  plan.planSeconds = secondsSince(start);
  return plan;
}

std::string DeploymentPlan::describe() const {
  std::string out = "deployment plan: " + std::to_string(stages.size()) +
                    " stages, guarding " + std::to_string(guard.size()) +
                    " policies, " + std::to_string(candidatesTried) +
                    " intermediate states simulated, " +
                    std::to_string(reorderings) + " reorderings";
  if (oneShot) out += ", one-shot fallback";
  out += "\n";
  for (const DeploymentStage& stage : stages) {
    out += "  stage " + std::to_string(stage.index) + " [" +
           stageStatusName(stage.status) + "] " + stage.label + " — " +
           std::to_string(stage.patch.size()) + " edits, " +
           (stage.validated ? "validated" : "NOT validated");
    if (!stage.detail.empty()) out += " — " + stage.detail;
    out += "\n";
  }
  if (executed) {
    out += "deployment: " + std::to_string(committedStages) + "/" +
           std::to_string(stages.size()) + " stages committed";
    if (aborted) {
      out += "; ABORTED [" + std::string(errorCodeName(code)) + "]: " + error;
    }
    out += "\n";
  }
  return out;
}

}  // namespace aed
