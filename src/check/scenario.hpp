// Deterministic fuzz scenarios: one 64-bit seed → one complete
// synthesize→apply→simulate workload.
//
// The correctness-tooling subsystem (src/check) validates AED's core claim —
// synthesized patches satisfy every forwarding policy while touching few
// devices — by running whole pipelines over generated inputs and asserting
// cross-engine invariants (see invariants.hpp). A Scenario is the unit of
// work: a concrete network, a post-update policy set, an optional explicit
// patch, and an optional injected fault. Scenarios come from two places:
//
//   * makeScenario(seed, profile): drives aed::gen (datacenter / zoo
//     topologies, reachability updates, waypoint and path-preference
//     policies, withdrawn-subnet repair workloads) from a single seed via
//     aed::Rng — same seed, same scenario, on every machine.
//   * parseRepro (repro.hpp): a self-contained text file, usually emitted by
//     the shrinker after a fuzz-found failure.
//
// Scenarios hold *concrete* trees (not generator parameters) so the
// delta-debugging shrinker can remove individual routers, links, and
// policies and re-check — a dimension seed-level mutation cannot express.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "conftree/patch.hpp"
#include "conftree/tree.hpp"
#include "core/aed.hpp"
#include "policy/policy.hpp"

namespace aed::check {

/// Size envelope for generated scenarios. The smoke profile keeps networks
/// tiny so a CI sweep covers hundreds of seeds in under a minute; the
/// nightly profile allows the larger shapes where convergence and
/// decomposition bugs hide.
struct ScenarioProfile {
  int maxRacks = 3;    // datacenter: racks in [2, maxRacks]
  int maxAggs = 2;     // datacenter: aggs in [1, maxAggs]
  int maxSpines = 1;   // datacenter: spines in [0 or 1, maxSpines]
  int maxZooRouters = 7;  // zoo: routers in [4, maxZooRouters]
  int maxAddedPolicies = 2;   // reachability additions in [1, max]
  int maxBasePolicies = 6;    // inferred base policies kept (subsampled)
  double withdrawnSubnetChance = 0.15;  // repair-heavy variant probability
  double zooChance = 0.3;               // zoo (vs datacenter) probability

  static ScenarioProfile smoke() { return {}; }
  static ScenarioProfile nightly() {
    ScenarioProfile p;
    p.maxRacks = 5;
    p.maxAggs = 3;
    p.maxSpines = 2;
    p.maxZooRouters = 14;
    p.maxAddedPolicies = 4;
    p.maxBasePolicies = 16;
    return p;
  }
};

/// One concrete fuzz workload. Copyable only through clone() (the tree is
/// move-only), which the shrinker uses to build reduction candidates.
struct Scenario {
  std::uint64_t seed = 0;
  /// Human-readable generation summary ("dc racks=3 aggs=2 ...", or
  /// "repro <file>").
  std::string label;
  ConfigTree tree;
  /// Full post-update policy set (base + additions).
  PolicySet policies;
  /// Explicit patch. When set, apply-layer invariants (journal rollback,
  /// staged-vs-one-shot) use it directly instead of synthesizing one —
  /// repro replays stay fast and solver-free, and the shrinker gains an
  /// edits dimension. Generated scenarios leave it unset; the shrinker
  /// concretizes it before minimizing an apply-layer failure.
  std::optional<Patch> patch;
  /// Deterministic fault to inject into the pipeline (kNone for generated
  /// scenarios; set by `aed_check --inject` and recorded in repro files so
  /// a fault-triggered failure replays identically).
  FaultInjection fault;

  Scenario clone() const;

  /// Engine options every invariant run uses: bounded repair, two-worker
  /// parallel solves, and the fault when it strikes synthesis.
  AedOptions options() const;
};

/// Builds the scenario for `seed` under `profile`. Deterministic: identical
/// output (printed configs, policies) for identical inputs on any platform.
Scenario makeScenario(std::uint64_t seed, const ScenarioProfile& profile = {});

}  // namespace aed::check
