// Symbolic configuration sketch derivation (§5).
//
// buildSketch() walks the configuration tree and, guided by the physical
// topology and the policy set, enumerates every delta variable the MaxSMT
// problem will range over. The §8 "pruning irrelevant configuration"
// optimization lives here: when enabled, rules and originations whose
// prefixes cannot intersect any policy's traffic are skipped entirely
// (no delta variable, and the encoder also omits their conditionals).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "conftree/tree.hpp"
#include "policy/policy.hpp"
#include "sketch/delta.hpp"
#include "topology/topology.hpp"

namespace aed {

struct SketchOptions {
  /// §8 optimization 1: skip conditionals/deltas not overlapping any policy
  /// traffic class.
  bool pruneIrrelevant = true;

  /// Destination-scoped mode, used by the per-destination decomposition
  /// (§8 optimization 2): only offer deltas whose effect is confined to this
  /// subproblem's destination prefixes, so parallel subproblems cannot
  /// conflict (the §6.2 example: repairing P3 must add a class-specific
  /// permit rule rather than delete the broad deny rule P1 relies on).
  /// Concretely: no process/adjacency/redistribution removals, and rule or
  /// origination removals/flips/lp-changes only when the rule's (dst) prefix
  /// is contained in one of the subproblem's destination classes.
  bool destinationScoped = false;

  // Which families of potential nodes to offer the solver. Redistribution
  // additions are always offered, and process, adjacency and redistribution
  // removals whenever the sketch is not destination-scoped.
  bool allowAddAdjacency = true;
  bool allowOriginationChanges = true;
  bool allowStaticRoutes = true;
  bool allowRouteFilterChanges = true;
  bool allowPacketFilterChanges = true;
};

class Sketch {
 public:
  const std::vector<DeltaVar>& deltas() const { return deltas_; }
  const DeltaVar* findByName(const std::string& name) const;

 private:
  friend Sketch buildSketch(const ConfigTree&, const Topology&,
                            const PolicySet&, const SketchOptions&);
  void add(DeltaVar delta);

  std::vector<DeltaVar> deltas_;
  std::map<std::string, std::size_t> byName_;
};

Sketch buildSketch(const ConfigTree& tree, const Topology& topo,
                   const PolicySet& policies,
                   const SketchOptions& options = {});

}  // namespace aed
