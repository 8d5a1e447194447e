#include "check/invariants.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <map>
#include <sstream>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/journal.hpp"
#include "conftree/printer.hpp"
#include "core/subsolver.hpp"
#include "encode/encoder.hpp"
#include "objectives/objective.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace aed::check {

namespace {

struct InvariantInfo {
  Invariant invariant;
  const char* name;
};

constexpr InvariantInfo kInvariantTable[] = {
    {Invariant::kSynthSound, "synth-sound"},
    {Invariant::kSimDifferential, "sim-differential"},
    {Invariant::kJournalRollback, "journal-rollback"},
    {Invariant::kStagedVsOneShot, "staged-oneshot"},
    {Invariant::kIncrementalEquiv, "incremental-equiv"},
    {Invariant::kResynthNoOp, "resynth-noop"},
    {Invariant::kPolicyOrder, "policy-order"},
    {Invariant::kRouterOrder, "router-order"},
    {Invariant::kOptimumEqual, "optimum-equal"},
    {Invariant::kFrozenAlign, "frozen-align"},
};

std::vector<std::string> policyStrings(const PolicySet& policies) {
  std::vector<std::string> out;
  out.reserve(policies.size());
  for (const Policy& policy : policies) out.push_back(policy.str());
  return out;
}

std::vector<std::string> sortedPolicyStrings(const PolicySet& policies) {
  std::vector<std::string> out = policyStrings(policies);
  std::sort(out.begin(), out.end());
  return out;
}

std::string summarize(const std::vector<std::string>& items,
                      std::size_t limit = 4) {
  std::string out;
  for (std::size_t i = 0; i < items.size() && i < limit; ++i) {
    if (i > 0) out += "; ";
    out += items[i];
  }
  if (items.size() > limit) {
    out += "; ... (" + std::to_string(items.size() - limit) + " more)";
  }
  return out.empty() ? std::string("<none>") : out;
}

/// First element-wise difference between two verdict lists, for diagnostics.
std::string firstDifference(const std::vector<std::string>& lhs,
                            const std::vector<std::string>& rhs) {
  const std::size_t n = std::min(lhs.size(), rhs.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (lhs[i] != rhs[i]) {
      return "at index " + std::to_string(i) + ": '" + lhs[i] + "' vs '" +
             rhs[i] + "'";
    }
  }
  return "sizes " + std::to_string(lhs.size()) + " vs " +
         std::to_string(rhs.size()) + " (lhs: " + summarize(lhs) +
         " | rhs: " + summarize(rhs) + ")";
}

template <typename T>
void shuffle(std::vector<T>& items, Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.index(i)]);
  }
}

/// The oracle of the optimum-equal invariant: the optimal cost z3::optimize
/// finds for `problem`, -1 when the hard constraints are unsatisfiable, or
/// nullopt with `why` when it cannot decide. Z3 4.8.x's default MaxSAT
/// engine (maxres) can report a bogus unsat on hard constraints that mix
/// booleans with integer arithmetic, so an unsat is cross-checked by a plain
/// solver, and on divergence the wmax engine retries.
std::optional<long long> optimizeCost(const SmtSession::Problem& problem,
                                      std::string& why) {
  z3::context& ctx = problem.hard.ctx();
  z3::optimize optimize(ctx);
  for (const z3::expr& hard : problem.hard) optimize.add(hard);
  for (const auto& [soft, weight] : problem.softs) {
    optimize.add_soft(soft, weight);
  }
  z3::check_result status = optimize.check();
  if (status == z3::unsat) {
    z3::solver plain(ctx);
    for (const z3::expr& hard : problem.hard) plain.add(hard);
    const z3::check_result cross = plain.check();
    if (cross == z3::unsat) return -1;
    if (cross != z3::sat) {
      why = "optimize answered unsat and the plain cross-check unknown";
      return std::nullopt;
    }
    z3::params params(ctx);
    params.set("maxsat_engine", ctx.str_symbol("wmax"));
    optimize.set(params);
    status = optimize.check();
    if (status != z3::sat) {
      why = "optimize answered a bogus unsat and the wmax retry did not "
            "answer sat";
      return std::nullopt;
    }
  }
  if (status != z3::sat) {
    why = "optimize answered unknown";
    return std::nullopt;
  }
  const z3::model model = optimize.get_model();
  long long cost = 0;
  for (const auto& [soft, weight] : problem.softs) {
    if (!model.eval(soft, true).is_true()) cost += weight;
  }
  return cost;
}

class Checker {
 public:
  Checker(const Scenario& scenario, InvariantMask selected)
      : scenario_(scenario), selected_(selected) {}

  CheckOutcome run() {
    const auto start = std::chrono::steady_clock::now();
    checkBaseSimulation();
    if (want(Invariant::kOptimumEqual)) {
      guarded(Invariant::kOptimumEqual, [&] { checkOptimumEqual(); });
    }
    if (want(Invariant::kFrozenAlign)) {
      guarded(Invariant::kFrozenAlign, [&] { checkFrozenAlign(); });
    }
    obtainPatch();
    checkPatchInvariants();
    out_.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    return std::move(out_);
  }

 private:
  bool want(Invariant inv) const { return (selected_ & mask(inv)) != 0; }

  void fail(Invariant inv, std::string category, std::string detail) {
    out_.failures.push_back({inv, std::move(category), std::move(detail)});
  }

  /// Evaluates one invariant body; an escaping exception is itself a
  /// violation (the engines must not throw on inputs synthesis accepted).
  template <typename Fn>
  void guarded(Invariant inv, Fn&& body) {
    out_.checked |= mask(inv);
    try {
      body();
    } catch (const std::exception& e) {
      fail(inv, "exception", e.what());
    } catch (...) {
      fail(inv, "exception", "non-standard exception");
    }
  }

  void skip(Invariant inv) {
    if (want(inv)) out_.skipped |= mask(inv);
  }

  // ---- base-tree invariants (no synthesis required) ----

  void checkBaseSimulation() {
    const Simulator serial(scenario_.tree);

    if (want(Invariant::kSimDifferential)) {
      guarded(Invariant::kSimDifferential, [&] {
        SimulationEngine engine(scenario_.tree);
        const auto serialViolations =
            policyStrings(serial.violations(scenario_.policies));
        const auto engineViolations =
            policyStrings(engine.violations(scenario_.policies));
        if (serialViolations != engineViolations) {
          fail(Invariant::kSimDifferential, "violations",
               "base tree: " +
                   firstDifference(serialViolations, engineViolations));
        }
      });
    }

    if (want(Invariant::kPolicyOrder)) {
      guarded(Invariant::kPolicyOrder, [&] {
        Rng rng(scenario_.seed ^ 0x9E3779B97F4A7C15ULL);
        PolicySet permuted = scenario_.policies;
        shuffle(permuted, rng);
        const auto original =
            sortedPolicyStrings(serial.violations(scenario_.policies));
        const auto reordered = sortedPolicyStrings(serial.violations(permuted));
        if (original != reordered) {
          fail(Invariant::kPolicyOrder, "serial",
               firstDifference(original, reordered));
          return;
        }
        SimulationEngine engine(scenario_.tree);
        const auto engineReordered =
            sortedPolicyStrings(engine.violations(permuted));
        if (original != engineReordered) {
          fail(Invariant::kPolicyOrder, "engine",
               firstDifference(original, engineReordered));
        }
      });
    }

    if (want(Invariant::kRouterOrder)) {
      guarded(Invariant::kRouterOrder, [&] {
        Rng rng(scenario_.seed ^ 0xD1B54A32D192ED03ULL);
        const auto& children = scenario_.tree.root().children();
        std::vector<std::size_t> order(children.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        shuffle(order, rng);
        ConfigTree permutedTree;
        for (std::size_t index : order) {
          permutedTree.root().addClone(*children[index]);
        }
        if (printNetworkConfig(permutedTree) !=
            printNetworkConfig(scenario_.tree)) {
          fail(Invariant::kRouterOrder, "printer",
               "printed configuration depends on router declaration order");
          return;
        }
        const auto original = policyStrings(serial.violations(scenario_.policies));
        const Simulator permutedSerial(permutedTree);
        const auto permuted =
            policyStrings(permutedSerial.violations(scenario_.policies));
        if (original != permuted) {
          fail(Invariant::kRouterOrder, "serial",
               firstDifference(original, permuted));
          return;
        }
        SimulationEngine permutedEngine(permutedTree);
        const auto permutedByEngine =
            policyStrings(permutedEngine.violations(scenario_.policies));
        if (original != permutedByEngine) {
          fail(Invariant::kRouterOrder, "engine",
               firstDifference(original, permutedByEngine));
        }
      });
    }
  }

  /// Solves every destination group of the input on its own
  /// SubproblemSolver, partitioned and scoped as synthesize() does it, once
  /// without objectives and once under min-devices, and requires the cost
  /// the session's search proved optimal to equal z3::optimize's over the
  /// session's own problem. A group the oracle cannot decide is skipped
  /// with its reason, and then the invariant does not count as passed.
  void checkOptimumEqual() {
    AedOptions options = scenario_.options();
    const auto groups = groupByDestination(scenario_.policies);
    if (groups.size() > 1) options.sketch.destinationScoped = true;
    const Topology topo = Topology::fromConfigs(scenario_.tree);
    const std::vector<Objective> minDevices = objectivesMinDevices();
    bool skipped = false;
    for (const auto& [dst, group] : groups) {
      for (const bool withObjectives : {false, true}) {
        const std::string what =
            "destination " + dst.str() +
            (withObjectives ? " under min-devices" : " without objectives");
        SubproblemSolver solver(scenario_.tree, topo, group,
                                withObjectives ? minDevices
                                               : std::vector<Objective>{},
                                options);
        const SubResult sub = solver.solve({}, Deadline::unlimited());
        const SmtSession& session = solver.session();
        const SmtSession::Problem problem = session.problem();
        std::string why;
        const std::optional<long long> expected = optimizeCost(problem, why);
        if (!expected) {
          out_.skipReasons.push_back("optimum-equal: " + what + ": " + why);
          skipped = true;
          continue;
        }
        long long found = -1;
        if (sub.rung == SolveRung::kFull) {
          found = 0;
          for (const auto& [soft, weight] : problem.softs) {
            if (!session.evalBool(soft)) found += weight;
          }
        } else if (sub.rung != SolveRung::kUnsat) {
          fail(Invariant::kOptimumEqual, "not-optimal",
               what + ": the search ended at rung " +
                   solveRungName(sub.rung) + ": " + sub.rungReason);
          return;
        }
        if (found != *expected) {
          fail(Invariant::kOptimumEqual, "cost",
               what + ": the search proved cost " + std::to_string(found) +
                   ", z3::optimize finds " + std::to_string(*expected) +
                   " (-1: unsat; " + sub.rungReason + ")");
          return;
        }
      }
    }
    if (skipped) {
      out_.checked &= ~mask(Invariant::kOptimumEqual);
      out_.skipped |= mask(Invariant::kOptimumEqual);
    }
  }

  /// Encodes every destination group of the input, partitioned and scoped
  /// as synthesize() does it, freezes every delta to inactive and checks:
  /// the model is then the network as configured, so it must be
  /// satisfiable exactly when the serial Simulator finds none of the
  /// group's policies violated. A check Z3 cannot decide is skipped with
  /// its reason, and then the invariant does not count as passed.
  void checkFrozenAlign() {
    AedOptions options = scenario_.options();
    const auto groups = groupByDestination(scenario_.policies);
    if (groups.size() > 1) options.sketch.destinationScoped = true;
    const Topology topo = Topology::fromConfigs(scenario_.tree);
    const Simulator serial(scenario_.tree);
    bool skipped = false;
    for (const auto& [dst, group] : groups) {
      const Sketch sketch =
          buildSketch(scenario_.tree, topo, group, options.sketch);
      SmtSession session;
      Encoder encoder(session, scenario_.tree, topo, sketch, options.encoder);
      encoder.encode(group);
      for (const DeltaVar& delta : sketch.deltas()) {
        session.addHard(!encoder.deltaActive(delta));
      }
      const SmtSession::Result frozen = session.check();
      if (frozen.rung == SolveRung::kGaveUp) {
        out_.skipReasons.push_back("frozen-align: destination " + dst.str() +
                                   ": " + frozen.rungReason);
        skipped = true;
        continue;
      }
      const PolicySet violated = serial.violations(group);
      if (frozen.sat() != violated.empty()) {
        fail(Invariant::kFrozenAlign, frozen.sat() ? "accepts" : "rejects",
             "destination " + dst.str() + ": the frozen encoding is " +
                 (frozen.sat() ? "sat" : "unsat") +
                 " and the simulator finds " +
                 std::to_string(violated.size()) + " of " +
                 std::to_string(group.size()) +
                 " policies violated: " + summarize(policyStrings(violated)));
        return;
      }
    }
    if (skipped) {
      out_.checked &= ~mask(Invariant::kFrozenAlign);
      out_.skipped |= mask(Invariant::kFrozenAlign);
    }
  }

  // ---- patch acquisition (explicit, or one synthesis run) ----

  bool needsPatch() const {
    return want(Invariant::kSynthSound) || want(Invariant::kJournalRollback) ||
           want(Invariant::kStagedVsOneShot) ||
           want(Invariant::kIncrementalEquiv) ||
           want(Invariant::kResynthNoOp) || want(Invariant::kSimDifferential);
  }

  void obtainPatch() {
    if (!needsPatch()) return;

    if (scenario_.patch.has_value()) {
      patch_ = *scenario_.patch;
      out_.synthesized = true;
      out_.patchEdits = patch_->size();
      // An embedded patch that no longer applies is still exercised by the
      // rollback invariant; the others are skipped below via !updated_.
      try {
        updated_ = patch_->applied(scenario_.tree);
      } catch (const AedError& e) {
        out_.note = "embedded patch inapplicable: " + std::string(e.what());
      }
      return;
    }

    AedResult result;
    try {
      result = synthesize(scenario_.tree, scenario_.policies, {},
                          scenario_.options());
    } catch (const std::exception& e) {
      // As guarded() treats an invariant body that throws.
      out_.note = "synthesis threw: " + std::string(e.what());
      if (want(Invariant::kSynthSound)) {
        out_.checked |= mask(Invariant::kSynthSound);
        fail(Invariant::kSynthSound, "exception", e.what());
      }
      return;
    }
    if (result.success && !result.degraded) {
      patch_ = std::move(result.patch);
      updated_ = std::move(result.updated);
      out_.synthesized = true;
      out_.patchEdits = patch_->size();
      return;
    }
    if (!result.success && result.errorCode == ErrorCode::kUnsat) {
      out_.note = "unsat";
      unsat_ = true;
      return;
    }
    if (result.degraded) {
      out_.note = "degraded";
      return;
    }
    out_.note =
        "synthesis failed [" + std::string(errorCodeName(result.errorCode)) +
        "]: " + result.error;
    if (want(Invariant::kSynthSound)) {
      out_.checked |= mask(Invariant::kSynthSound);
      fail(Invariant::kSynthSound, "synthesis", out_.note);
    }
  }

  // ---- patch-dependent invariants ----

  void checkPatchInvariants() {
    if (want(Invariant::kIncrementalEquiv) && unsat_ && !scenario_.patch) {
      // A fresh solve must agree the policies conflict.
      guarded(Invariant::kIncrementalEquiv, [&] {
        AedOptions fresh = scenario_.options();
        fresh.incrementalResolve = false;
        const AedResult result =
            synthesize(scenario_.tree, scenario_.policies, {}, fresh);
        if (result.success || result.errorCode != ErrorCode::kUnsat) {
          fail(Invariant::kIncrementalEquiv, "unsat-divergence",
               "incremental solve reported unsat but fresh solve returned [" +
                   std::string(errorCodeName(result.errorCode)) + "] " +
                   result.error);
        }
      });
    }

    if (!patch_.has_value()) {
      skip(Invariant::kJournalRollback);
      skip(Invariant::kStagedVsOneShot);
      skip(Invariant::kSynthSound);
      skip(Invariant::kResynthNoOp);
      if (!unsat_) skip(Invariant::kIncrementalEquiv);
      return;
    }
    const Patch& patch = *patch_;

    if (want(Invariant::kJournalRollback)) {
      guarded(Invariant::kJournalRollback, [&] { checkJournalRollback(patch); });
    }

    if (!updated_.has_value()) {
      skip(Invariant::kStagedVsOneShot);
      skip(Invariant::kSynthSound);
      skip(Invariant::kResynthNoOp);
      skip(Invariant::kIncrementalEquiv);
      return;
    }
    const ConfigTree& updated = *updated_;

    if (want(Invariant::kSynthSound)) {
      guarded(Invariant::kSynthSound, [&] {
        const Simulator after(updated);
        const PolicySet violated = after.violations(scenario_.policies);
        if (!violated.empty()) {
          fail(Invariant::kSynthSound, "violations",
               std::to_string(violated.size()) +
                   " policies violated on the patched network: " +
                   summarize(policyStrings(violated)));
        }
      });
    }

    if (want(Invariant::kSimDifferential)) {
      guarded(Invariant::kSimDifferential, [&] {
        const Simulator serial(updated);
        SimulationEngine engine(updated);
        const auto serialViolations =
            policyStrings(serial.violations(scenario_.policies));
        const auto engineViolations =
            policyStrings(engine.violations(scenario_.policies));
        if (serialViolations != engineViolations) {
          fail(Invariant::kSimDifferential, "violations",
               "patched tree: " +
                   firstDifference(serialViolations, engineViolations));
        }
      });
    }

    if (want(Invariant::kStagedVsOneShot)) {
      guarded(Invariant::kStagedVsOneShot, [&] { checkStagedDeployment(patch); });
    }

    if (want(Invariant::kResynthNoOp)) {
      guarded(Invariant::kResynthNoOp, [&] { checkResynthNoOp(updated); });
    }

    if (want(Invariant::kIncrementalEquiv) && !scenario_.patch) {
      guarded(Invariant::kIncrementalEquiv, [&] {
        AedOptions fresh = scenario_.options();
        fresh.incrementalResolve = false;
        const AedResult result =
            synthesize(scenario_.tree, scenario_.policies, {}, fresh);
        if (!result.success) {
          fail(Invariant::kIncrementalEquiv, "fresh-failed",
               "fresh solve failed where the incremental solve succeeded [" +
                   std::string(errorCodeName(result.errorCode)) +
                   "]: " + result.error);
          return;
        }
        const Simulator after(result.updated);
        const PolicySet violated = after.violations(scenario_.policies);
        if (!violated.empty()) {
          fail(Invariant::kIncrementalEquiv, "violations",
               "fresh-solve result violates " +
                   std::to_string(violated.size()) + " policies: " +
                   summarize(policyStrings(violated)));
        }
      });
    } else if (want(Invariant::kIncrementalEquiv) && scenario_.patch) {
      skip(Invariant::kIncrementalEquiv);
    }
  }

  /// Solves every destination group of the patched network on its own
  /// SubproblemSolver, partitioned and scoped as synthesize() does it under
  /// the scenario's options. The patched network meets every policy, so
  /// each group's optimum is the empty patch. synthesize() relies on
  /// exactly that to answer such groups without a solver, so the check
  /// goes to the encoder and Z3 directly.
  void checkResynthNoOp(const ConfigTree& updated) {
    AedOptions options = scenario_.options();
    const auto groups = groupByDestination(scenario_.policies);
    if (groups.size() > 1) options.sketch.destinationScoped = true;
    const Topology topo = Topology::fromConfigs(updated);
    for (const auto& [dst, group] : groups) {
      SubproblemSolver solver(updated, topo, group, {}, options);
      const SubResult sub = solver.solve({}, Deadline::unlimited());
      if (sub.outcome != SubOutcome::kOk) {
        fail(Invariant::kResynthNoOp, "resynth-failed",
             "re-solving destination " + dst.str() +
                 " on the patched network gave " +
                 subOutcomeName(sub.outcome) + ": " + sub.detail);
        return;
      }
      if (!sub.patch.empty()) {
        fail(Invariant::kResynthNoOp, "non-noop",
             "re-solving destination " + dst.str() +
                 " on the patched network produced a patch of " +
                 std::to_string(sub.patch.size()) +
                 " edits: " + sub.patch.describe());
        return;
      }
    }
  }

  void checkJournalRollback(const Patch& patch) {
    const std::string preText = printNetworkConfig(scenario_.tree);

    // Full apply, then an explicit rollback: the round trip must be
    // bit-identical. (If the patch cannot apply at all, strong exception
    // safety must already have restored the tree.)
    {
      ConfigTree work = scenario_.tree.clone();
      ApplyJournal journal;
      try {
        patch.applyJournaled(work, journal);
        journal.rollback();
      } catch (const AedError&) {
        // applyJournaled rolled back before rethrowing.
      }
      if (printNetworkConfig(work) != preText) {
        fail(Invariant::kJournalRollback, "round-trip",
             "apply + rollback drifted from the pre-apply tree");
        return;
      }
    }

    // Abort at every edit index: the RAII journal must restore the exact
    // pre-apply tree no matter where the apply stops.
    for (std::size_t k = 0; k < patch.size(); ++k) {
      ConfigTree work = scenario_.tree.clone();
      bool aborted = false;
      try {
        ApplyJournal journal;
        patch.applyJournaled(work, journal,
                             [&](std::size_t index, const Edit&) {
                               if (index == k) {
                                 throw AedError(ErrorCode::kApplyFailed,
                                                "aed_check: injected abort at "
                                                "edit " +
                                                    std::to_string(k));
                               }
                             });
      } catch (const AedError&) {
        aborted = true;
      }
      if (!aborted) {
        fail(Invariant::kJournalRollback, "no-abort",
             "injected abort at edit " + std::to_string(k) +
                 " did not propagate");
        return;
      }
      if (printNetworkConfig(work) != preText) {
        fail(Invariant::kJournalRollback, "rollback",
             "abort at edit " + std::to_string(k) + "/" +
                 std::to_string(patch.size()) +
                 " left the tree different from the pre-apply state");
        return;
      }
    }
  }

  void checkStagedDeployment(const Patch& patch) {
    const ConfigTree merged = patch.applied(scenario_.tree);
    DeploymentPlan plan =
        planStagedRollout(scenario_.tree, patch, scenario_.policies);

    ConfigTree work = scenario_.tree.clone();
    const bool committed = executeDeployment(work, plan, {}, scenario_.fault);
    if (!committed) {
      std::ostringstream detail;
      detail << "staged deployment aborted after " << plan.committedStages
             << "/" << plan.stages.size() << " stages [";
      detail << errorCodeName(plan.code) << "]: " << plan.error;
      fail(Invariant::kStagedVsOneShot, "aborted", detail.str());
      return;
    }
    if (printNetworkConfig(work) != printNetworkConfig(merged)) {
      fail(Invariant::kStagedVsOneShot, "mismatch",
           "clean staged execution and one-shot merged apply produced "
           "different networks");
    }
  }

  const Scenario& scenario_;
  InvariantMask selected_;
  CheckOutcome out_;
  std::optional<Patch> patch_;
  std::optional<ConfigTree> updated_;
  bool unsat_ = false;
};

}  // namespace

const char* invariantName(Invariant inv) {
  for (const InvariantInfo& info : kInvariantTable) {
    if (info.invariant == inv) return info.name;
  }
  return "?";
}

std::optional<Invariant> invariantFromName(std::string_view name) {
  for (const InvariantInfo& info : kInvariantTable) {
    if (name == info.name) return info.invariant;
  }
  return std::nullopt;
}

const std::vector<Invariant>& allInvariants() {
  static const std::vector<Invariant> all = [] {
    std::vector<Invariant> out;
    for (const InvariantInfo& info : kInvariantTable) {
      out.push_back(info.invariant);
    }
    return out;
  }();
  return all;
}

CheckOutcome checkScenario(const Scenario& scenario, InvariantMask selected) {
  return Checker(scenario, selected).run();
}

}  // namespace aed::check
