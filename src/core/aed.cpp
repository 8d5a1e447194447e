#include "core/aed.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/subsolver.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace aed {

namespace {

/// Did the subproblem yield a usable (hard-constraint-satisfying) patch?
bool usable(const SubResult& sub) {
  return sub.outcome == SubOutcome::kOk || sub.outcome == SubOutcome::kDegraded;
}

SubResult failedSubResult(SubOutcome outcome, ErrorCode code,
                          const std::string& detail) {
  SubResult result;
  result.outcome = outcome;
  result.code = code;
  result.detail = detail;
  return result;
}

/// Infrastructure failures (timeouts, solver exceptions, fault injection,
/// cancellation) are recorded in their subproblem's slot, so one poisoned
/// destination never discards sibling work. Every other AedError is
/// deterministic (malformed policies, invariant violations) and fails the
/// run.
bool isolatable(ErrorCode code) {
  return code == ErrorCode::kSubproblemFailed || code == ErrorCode::kTimeout ||
         code == ErrorCode::kSolverUnknown || code == ErrorCode::kCancelled;
}

// Latency/effort histograms (§12). The handles are resolved once (a
// function-local static over the leaked global registry), so the record
// path is pure relaxed atomics. All are recorded on the coordinating thread
// at the post-join merge points, like every other engine metric.
struct EngineHistograms {
  MetricsRegistry::Histogram checkSeconds =
      MetricsRegistry::global().histogram("smt.check_seconds");
  MetricsRegistry::Histogram subproblemSeconds =
      MetricsRegistry::global().histogram("aed.subproblem_seconds");
  MetricsRegistry::Histogram roundSeconds =
      MetricsRegistry::global().histogram("aed.round_seconds");
  MetricsRegistry::Histogram conflicts =
      MetricsRegistry::global().histogram("smt.conflicts");
  MetricsRegistry::Histogram decisions =
      MetricsRegistry::global().histogram("smt.decisions");
};
const EngineHistograms& histograms() {
  static const EngineHistograms handles;
  return handles;
}

/// Renders the per-subproblem states (outcome, rung, solver effort) as a
/// JSON array for the flight dump's "subproblems" section.
std::string subproblemsJson(const AedResult& result) {
  std::string out = "[";
  bool first = true;
  for (const SubproblemReport& report : result.subproblems) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"index\": " + std::to_string(report.index) +
           ", \"destination\": \"" + jsonEscape(report.destination) +
           "\", \"outcome\": \"" + subOutcomeName(report.outcome) +
           "\", \"code\": \"" + errorCodeName(report.code) +
           "\", \"rung\": \"" + solveRungName(report.rung) +
           "\", \"seconds\": " + std::to_string(report.seconds) +
           ", \"conflicts\": " + std::to_string(report.solverStats.conflicts) +
           ", \"decisions\": " + std::to_string(report.solverStats.decisions) +
           ", \"vars\": " + std::to_string(report.solverStats.vars) +
           ", \"assertions\": " +
           std::to_string(report.solverStats.assertions) +
           ", \"detail\": \"" + jsonEscape(report.detail) + "\"}";
  }
  out += "\n  ]";
  return out;
}

/// Mirrors one phase breakdown into the unified counter registry under
/// `prefix` ("aed.phase.first_round" → "aed.phase.first_round.solve_seconds").
void publishPhase(MetricsRegistry& metrics, const std::string& prefix,
                  const PhaseBreakdown& phases) {
  metrics.add(prefix + ".sketch_seconds", phases.sketchSeconds);
  metrics.add(prefix + ".encode_seconds", phases.encodeSeconds);
  metrics.add(prefix + ".solve_seconds", phases.solveSeconds);
  metrics.add(prefix + ".extract_seconds", phases.extractSeconds);
  metrics.add(prefix + ".simulate_seconds", phases.simulateSeconds);
}

/// Mirrors the finished run's AedStats (and the absorbed SimCacheStats) into
/// the registry. Called once per synthesize() call — success, failed,
/// cancelled, or thrown — from SynthesisRun::finish() on the coordinating
/// thread, after every worker has been joined: workers only ever report
/// through their own SubResult slot, so the merge here cannot race (see
/// DESIGN.md §10).
void publishStats(const AedResult& result) {
  MetricsRegistry& metrics = MetricsRegistry::global();
  const AedStats& stats = result.stats;
  metrics.add("aed.runs", 1.0);
  if (!result.success) metrics.add("aed.runs_failed", 1.0);
  if (result.degraded) metrics.add("aed.runs_degraded", 1.0);
  metrics.add("aed.total_seconds", stats.totalSeconds);
  metrics.add("aed.subproblems", static_cast<double>(stats.subproblems));
  metrics.add("aed.subproblems_degraded",
              static_cast<double>(stats.degradedSubproblems));
  metrics.add("aed.subproblems_failed",
              static_cast<double>(stats.failedSubproblems));
  metrics.add("aed.repair_rounds", static_cast<double>(stats.repairRounds));
  metrics.add("aed.warm_start_solves",
              static_cast<double>(stats.warmStartSolves));
  metrics.add("aed.delta_count", static_cast<double>(stats.deltaCount));
  metrics.add("aed.sum_subproblem_seconds", stats.sumSubproblemSeconds);
  publishPhase(metrics, "aed.phase.first_round", stats.firstRound);
  publishPhase(metrics, "aed.phase.repair", stats.repair);

  const SimCacheStats& sim = stats.simulate;
  metrics.add("sim.route_hits", static_cast<double>(sim.routeHits));
  metrics.add("sim.route_misses", static_cast<double>(sim.routeMisses));
  metrics.add("sim.parallel_batches",
              static_cast<double>(sim.parallelBatches));
  metrics.add("sim.parallel_tasks", static_cast<double>(sim.parallelTasks));

  // Ladder-rung outcome counters (§12), e.g. smt.rung.warm_start, registered
  // even at zero so the snapshot is complete (a missing known stat fails
  // tests/obs_test.cpp).
  for (std::size_t r = 1; r < stats.rungCounts.size(); ++r) {
    std::string name =
        std::string("smt.rung.") + solveRungName(static_cast<SolveRung>(r));
    std::replace(name.begin(), name.end(), '-', '_');
    metrics.add(name, static_cast<double>(stats.rungCounts[r]));
  }

  // Touch the engine histograms so they exist in every post-run snapshot,
  // recorded or not.
  histograms();
}

/// One synthesize() call. The run's state is members and its phases are
/// methods; synthesize() runs execute() inside its only try/catch and then
/// finish(), exactly once, however execute() ended.
class SynthesisRun {
 public:
  SynthesisRun(const ConfigTree& tree, const PolicySet& policies,
               const std::vector<Objective>& objectives,
               const AedOptions& options)
      : tree_(tree),
        policies_(policies),
        objectives_(objectives),
        options_(options),
        effective_(options),
        deadline_(options.timeBudgetMs != 0
                      ? Deadline::after(options.timeBudgetMs)
                      : Deadline::unlimited()),
        workers_(resolveWorkers(options.workers)) {
    result_.updated = tree.clone();
  }
  // Pool tasks hold `this`.
  SynthesisRun(const SynthesisRun&) = delete;
  SynthesisRun& operator=(const SynthesisRun&) = delete;

  /// Runs the phases. Returns with the result successful, or failed through
  /// fail(); deterministic AedErrors propagate.
  void execute();

  /// The run's single exit: frees the solvers, then fills the
  /// per-subproblem report and the stats, stamps totalSeconds, publishes the
  /// metrics and writes the flight dump of a bad exit. `thrown` says
  /// execute() left by exception.
  AedResult finish(bool thrown);

 private:
  void partition();
  void solveRound(int round, const std::vector<std::size_t>& pending);
  void solveOne(std::size_t i, std::uint64_t perSubproblemMs);
  bool checkOutcomes();
  PolicySet mergeAndValidate(int round);
  PolicySet injectedRejection(int round) const;
  bool blame(int round, const PolicySet& violated);
  void deploy();

  /// Marks the run failed; returns false so a phase can `return fail(...)`.
  bool fail(ErrorCode code, std::string message) {
    result_.error = std::move(message);
    result_.errorCode = code;
    return false;
  }
  bool cancelled() const {
    return options_.cancel != nullptr && options_.cancel->stopRequested();
  }
  /// Phase timing, split by round kind: round 0 is where every subproblem
  /// pays sketch + encode; with incrementalResolve the repair bucket's
  /// sketch/encode stay ~0 because the persistent solvers keep their
  /// encodings.
  PhaseBreakdown& phaseBucket(int round) {
    return round == 0 ? result_.stats.firstRound : result_.stats.repair;
  }

  // Declared first: the clock starts before anything else runs, and the
  // run's span closes last, after finish().
  const Deadline::Clock::time_point start_ = Deadline::Clock::now();
  Span span_{"aed.synthesize"};

  const ConfigTree& tree_;
  const PolicySet& policies_;
  const std::vector<Objective>& objectives_;
  const AedOptions& options_;
  AedOptions effective_;  // plus destination-scoped sketches when decomposed
  const Deadline deadline_;
  const std::size_t workers_;
  Topology topo_;

  // One slot per destination group (subproblem), in destination order. A
  // pool worker writes only its own group's subResults_ and solvers_ slots.
  std::vector<PolicySet> groups_;
  std::vector<std::string> destinations_;
  std::vector<SubResult> subResults_;      // the group's latest solve
  std::vector<double> subSeconds_;         // solve seconds summed across rounds
  std::vector<SolverStats> solverTotals_;  // effort summed across rounds
  // One persistent solver per group, alive until no repair round can pick
  // it: a repair round pushes only the new blocked-delta clauses into the
  // live z3::optimize instead of re-encoding (see core/subsolver.hpp). Each
  // owns its own z3::context. solveOne() frees a solver on its worker right
  // after a solve that leaves blame() no way to re-solve its group, which
  // with incrementalResolve off is every solve (the fresh-per-round
  // baseline bench_incremental compares against); finish() frees the rest.
  std::vector<std::unique_ptr<SubproblemSolver>> solvers_;
  std::vector<bool> needsSolve_;  // coordinating thread only
  std::vector<std::vector<std::string>> blocked_;  // grows across rounds

  AedResult result_;
};

void SynthesisRun::execute() {
  {
    AED_SPAN("aed.topology");
    topo_ = Topology::fromConfigs(tree_);
  }
  partition();
  for (int round = 0; round <= options_.maxRepairIterations; ++round) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (needsSolve_[i]) pending.push_back(i);
    }
    if (pending.empty()) break;

    Span roundSpan("aed.round");
    if (roundSpan.active()) {
      roundSpan.setDetail("round=" + std::to_string(round) +
                          " pending=" + std::to_string(pending.size()));
    }
    // Round duration (solve + validate), recorded however the iteration
    // exits (success break, failure return, or rethrow).
    struct RoundTimer {
      Deadline::Clock::time_point start = Deadline::Clock::now();
      ~RoundTimer() { histograms().roundSeconds.record(secondsSince(start)); }
    } roundTimer;

    solveRound(round, pending);
    if (!checkOutcomes()) return;
    const PolicySet violated = mergeAndValidate(round);
    if (violated.empty()) break;
    if (!blame(round, violated)) return;
  }
  deploy();
  result_.success = true;
}

void SynthesisRun::partition() {
  AED_SPAN("aed.partition");
  if (options_.perDestination) {
    for (auto& [dst, set] : groupByDestination(policies_)) {
      groups_.push_back(std::move(set));
      destinations_.push_back(dst.str());
    }
    // Confine each subproblem to destination-local changes so parallel
    // solutions cannot conflict (§8; see SketchOptions::destinationScoped).
    if (groups_.size() > 1) effective_.sketch.destinationScoped = true;
  } else if (!policies_.empty()) {
    groups_.push_back(policies_);
    destinations_.push_back("*");
  }
  result_.stats.subproblems = groups_.size();
  subResults_.resize(groups_.size());
  subSeconds_.resize(groups_.size());
  solverTotals_.resize(groups_.size());
  solvers_.resize(groups_.size());
  needsSolve_.assign(groups_.size(), true);
}

void SynthesisRun::solveRound(int round,
                              const std::vector<std::size_t>& pending) {
  Progress::setPhase(round == 0 ? "solve" : "repair");
  Progress::setRound(static_cast<std::size_t>(round));
  Progress::setWork(pending.size());

  // Split the remaining global budget across the queued subproblems: each
  // of the ceil(pending/workers) sequential batches gets an equal share.
  std::uint64_t perSubproblemMs = Deadline::kForeverMs;
  if (!deadline_.isUnlimited()) {
    const std::size_t lanes = std::min(workers_, pending.size());
    const std::size_t batches = (pending.size() + lanes - 1) / lanes;
    perSubproblemMs =
        std::max<std::uint64_t>(1, deadline_.remainingMillis() / batches);
  }

  // solveOne() isolates expected failures itself, so anything escaping it
  // is fatal to the run. It is rethrown only after every sibling has been
  // collected: a throwing solve must not abandon in-flight siblings or
  // skip their results. Without a pool, deferred futures run each solve
  // on this thread as it is collected.
  std::exception_ptr fatal;
  {
    std::optional<ThreadPool> pool;
    if (options_.perDestination && pending.size() > 1 && workers_ > 1) {
      pool.emplace(std::min(workers_, pending.size()));
    }
    std::vector<std::future<void>> solves;
    for (const std::size_t i : pending) {
      const auto task = [this, i, perSubproblemMs] {
        solveOne(i, perSubproblemMs);
      };
      solves.push_back(pool ? pool->submit(task)
                            : std::async(std::launch::deferred, task));
    }
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const std::size_t i = pending[k];
      try {
        solves[k].get();
      } catch (const AedError& e) {
        if (!fatal) fatal = std::current_exception();
        subResults_[i] =
            failedSubResult(SubOutcome::kError, e.code(), e.what());
      } catch (const std::exception& e) {
        if (!fatal) fatal = std::current_exception();
        subResults_[i] = failedSubResult(SubOutcome::kError,
                                         ErrorCode::kInternal, e.what());
      }
    }
  }
  for (const std::size_t i : pending) needsSolve_[i] = false;

  // Merged before the fatal rethrow below, so the work the siblings
  // completed this round stays attributable when the run unwinds.
  AedStats& stats = result_.stats;
  PhaseBreakdown& bucket = phaseBucket(round);
  const EngineHistograms& hist = histograms();
  for (const std::size_t i : pending) {
    const SubResult& sub = subResults_[i];
    bucket.sketchSeconds += sub.phases.sketchSeconds;
    bucket.encodeSeconds += sub.phases.encodeSeconds;
    bucket.solveSeconds += sub.phases.solveSeconds;
    bucket.extractSeconds += sub.phases.extractSeconds;
    subSeconds_[i] += sub.seconds;
    stats.sumSubproblemSeconds += sub.seconds;
    stats.maxSubproblemSeconds =
        std::max(stats.maxSubproblemSeconds, sub.seconds);
    if (sub.warmStart) ++stats.warmStartSolves;
    // §12 introspection, merged post-join on this thread: per-solve
    // latency/effort distributions and ladder-rung outcomes.
    hist.subproblemSeconds.record(sub.seconds);
    if (sub.rung != SolveRung::kNone) {
      hist.checkSeconds.record(sub.phases.solveSeconds);
      hist.conflicts.record(static_cast<double>(sub.solverStats.conflicts));
      hist.decisions.record(static_cast<double>(sub.solverStats.decisions));
      ++stats.rungCounts[static_cast<std::size_t>(sub.rung)];
      solverTotals_[i].accumulate(sub.solverStats);
    }
  }
  if (fatal) std::rethrow_exception(fatal);
}

void SynthesisRun::solveOne(std::size_t i, std::uint64_t perSubproblemMs) {
  // On a pool worker the submitting thread's span context is installed, so
  // this span parents under the round span whichever thread runs it.
  Span span("aed.subproblem");
  if (span.active()) span.setDetail("dst=" + destinations_[i]);
  try {
    const FaultInjection& fault = options_.faultInjection;
    const bool injected = fault.kind != FaultInjection::Kind::kNone &&
                          fault.subproblem >= 0 &&
                          static_cast<std::size_t>(fault.subproblem) == i;
    if (injected && fault.kind == FaultInjection::Kind::kThrow) {
      throw AedError(ErrorCode::kSubproblemFailed,
                     "fault injection: subproblem " + std::to_string(i) +
                         " threw");
    }
    if (injected && fault.kind == FaultInjection::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delayMs));
    }
    if (cancelled()) {
      subResults_[i] = failedSubResult(SubOutcome::kCancelled,
                                       ErrorCode::kCancelled,
                                       "cancelled before solving");
      return;
    }
    const Deadline deadline =
        deadline_.isUnlimited()
            ? deadline_
            : Deadline::after(perSubproblemMs).min(deadline_);
    if (solvers_[i] == nullptr) {
      solvers_[i] = std::make_unique<SubproblemSolver>(
          tree_, topo_, groups_[i], objectives_, effective_);
    }
    subResults_[i] = solvers_[i]->solve(
        blocked_, deadline,
        injected && fault.kind == FaultInjection::Kind::kUnknown);
  } catch (const AedError& e) {
    if (!isolatable(e.code())) throw;
    const SubOutcome outcome = e.code() == ErrorCode::kTimeout
                                   ? SubOutcome::kTimedOut
                               : e.code() == ErrorCode::kCancelled
                                   ? SubOutcome::kCancelled
                                   : SubOutcome::kError;
    subResults_[i] = failedSubResult(outcome, e.code(), e.what());
  } catch (const std::exception& e) {
    // Covers z3::exception: solver infrastructure trouble, isolated.
    subResults_[i] = failedSubResult(
        SubOutcome::kError, ErrorCode::kSubproblemFailed, e.what());
  }
  // blame() re-solves only a group with a usable patch and active deltas,
  // and only on a persistent solver. Any other group's solver (a throwing
  // one included) is dead, and freeing a solved Z3 context takes longer
  // than encoding it, so it is freed here, while sibling subproblems still
  // solve.
  const SubResult& sub = subResults_[i];
  if (!effective_.incrementalResolve || !usable(sub) ||
      sub.activeDeltas.empty()) {
    solvers_[i].reset();
  }
  Progress::incrDone();
}

/// Fails the run on unsat anywhere, or when no subproblem produced a usable
/// patch; otherwise logs the failed ones, whose patches the merge skips.
bool SynthesisRun::checkOutcomes() {
  // Unsat is fatal for the whole run: the policies conflict (§11 "SMT
  // output for special cases"), and a partial patch would silently drop a
  // policy the operator asked for.
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (subResults_[i].outcome == SubOutcome::kUnsat) {
      return fail(ErrorCode::kUnsat,
                  "unsatisfiable: the policies cannot all be implemented "
                  "(subproblem " +
                      std::to_string(i) + ", " +
                      std::to_string(groups_[i].size()) + " policies)");
    }
  }

  // Fault isolation: infrastructure failures (timeout, exception, solver
  // unknown, cancellation) are reported per subproblem; the survivors'
  // patches are still merged. Only when nothing survived is the whole run
  // a failure.
  if (std::none_of(subResults_.begin(), subResults_.end(), usable)) {
    const auto firstWith = [this](SubOutcome outcome) -> const SubResult* {
      for (const SubResult& sub : subResults_) {
        if (sub.outcome == outcome) return &sub;
      }
      return nullptr;
    };
    if (firstWith(SubOutcome::kCancelled) != nullptr) {
      return fail(ErrorCode::kCancelled, "cancelled by the caller");
    }
    if (firstWith(SubOutcome::kTimedOut) != nullptr) {
      return fail(ErrorCode::kTimeout,
                  "time budget exhausted before any subproblem was solved");
    }
    const SubResult* errored = firstWith(SubOutcome::kError);
    return fail(errored != nullptr ? errored->code : ErrorCode::kInternal,
                "all subproblems failed" +
                    (errored != nullptr && !errored->detail.empty()
                         ? " (first: " + errored->detail + ")"
                         : std::string()));
  }
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (!usable(subResults_[i])) {
      logWarn() << "subproblem " << i << " (" << destinations_[i]
                << ") failed: " << subOutcomeName(subResults_[i].outcome)
                << (subResults_[i].detail.empty()
                        ? ""
                        : " — " + subResults_[i].detail);
    }
  }
  return true;
}

/// Merges the surviving patches and validates the patched tree against the
/// simulator. Policies owned by failed subproblems are left out: they are
/// already reported as unsatisfied. Returns the violated policies; when
/// there are none, the merged patch becomes the result.
PolicySet SynthesisRun::mergeAndValidate(int round) {
  std::vector<Patch> patches;
  PolicySet survivingPolicies;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (!usable(subResults_[i])) continue;
    patches.push_back(subResults_[i].patch);
    survivingPolicies.insert(survivingPolicies.end(), groups_[i].begin(),
                             groups_[i].end());
  }
  Patch merged;
  ConfigTree updated;
  {
    AED_SPAN("aed.merge_apply");
    merged = mergePatches(patches);
    updated = merged.applied(tree_);
  }

  PolicySet violated;
  if (options_.validateWithSimulator) {
    const auto simulateStart = Deadline::Clock::now();
    {
      AED_SPAN("aed.validate");
      Progress::setPhase("validate");
      const SimulationEngine engine(updated, workers_);
      violated = engine.violations(survivingPolicies);
      result_.stats.simulate.accumulate(engine.cacheStats());
    }
    phaseBucket(round).simulateSeconds += secondsSince(simulateStart);
    if (violated.empty()) violated = injectedRejection(round);
  }
  if (violated.empty()) {
    result_.patch = std::move(merged);
    result_.updated = std::move(updated);
  }
  return violated;
}

/// Deterministic fault injection for repair-heavy scenarios: the first
/// rejectRounds passing verdicts become failures, so blocking and the
/// incremental re-solve run for real (tests and bench_incremental). Only
/// policies whose subproblem made changes can be rejected: an empty patch
/// has no delta set to block, so rejecting its policies would fabricate a
/// model/simulator divergence.
PolicySet SynthesisRun::injectedRejection(int round) const {
  const FaultInjection& fault = options_.faultInjection;
  if (fault.kind != FaultInjection::Kind::kRejectValidation ||
      round >= fault.rejectRounds) {
    return {};
  }
  PolicySet rejectable;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (!usable(subResults_[i]) || subResults_[i].activeDeltas.empty()) {
      continue;
    }
    rejectable.insert(rejectable.end(), groups_[i].begin(), groups_[i].end());
  }
  if (!rejectable.empty()) {
    logWarn() << "fault injection: rejecting the round-" << round
              << " validation verdict";
  }
  return rejectable;
}

/// Counts a repair round and blocks the active delta sets of the groups
/// blamed for `violated`, marking them for re-solve. Fails the run when no
/// repair round is left, on cancellation, when the budget is spent, or when
/// no group can be blamed.
bool SynthesisRun::blame(int round, const PolicySet& violated) {
  ++result_.stats.repairRounds;
  if (round == options_.maxRepairIterations) {
    return fail(ErrorCode::kValidationFailed,
                "validation failed after repair rounds: " +
                    std::to_string(violated.size()) +
                    " policies still violated (first: " + violated[0].str() +
                    ")");
  }
  if (cancelled()) {
    return fail(ErrorCode::kCancelled, "cancelled during repair");
  }
  if (deadline_.expired()) {
    return fail(ErrorCode::kTimeout,
                "time budget exhausted during repair: " +
                    std::to_string(violated.size()) +
                    " policies still violated");
  }
  logWarn() << "patch failed simulation for " << violated.size()
            << " policies; blocking and re-solving";
  // A group's active delta set is pushed at most once per round, even when
  // it owns several violated policies: duplicate blocking clauses would
  // bloat every solver (incremental ones keep them forever).
  std::set<std::size_t> blamedGroups;
  // Blocks every surviving group with a non-empty delta set that `pick`
  // selects; false when there was none.
  const auto blockWhere = [&](const auto& pick) {
    bool any = false;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      const SubResult& sub = subResults_[i];
      if (!usable(sub) || sub.activeDeltas.empty() || !pick(i)) continue;
      needsSolve_[i] = true;
      if (blamedGroups.insert(i).second) blocked_.push_back(sub.activeDeltas);
      any = true;
    }
    return any;
  };
  for (const Policy& policy : violated) {
    const auto owns = [&](std::size_t i) {
      return std::any_of(
          groups_[i].begin(), groups_[i].end(),
          [&policy](const Policy& p) { return p.cls.dst == policy.cls.dst; });
    };
    // When the owning subproblem made no changes, another group's deltas
    // broke this policy: block every non-empty surviving group.
    const bool blamed =
        blockWhere(owns) || blockWhere([](std::size_t) { return true; });
    if (!blamed) {
      return fail(ErrorCode::kInternal,
                  "model/simulator divergence with an empty patch for " +
                      policy.str());
    }
  }
  return true;
}

/// Staged deployment (AedOptions::stagedDeployment): plans a policy-safe
/// rollout of the patch and executes it against a scratch clone of the
/// input tree, with any configured stage fault injected. An aborted
/// deployment degrades the result (the patch itself is still valid), and
/// result.updated keeps its meaning: the tree after the *full* patch.
void SynthesisRun::deploy() {
  if (!options_.stagedDeployment || result_.patch.empty()) return;
  AED_SPAN("aed.deploy");
  Progress::setPhase("deploy");
  DeployOptions deployOptions = options_.deploy;
  if (deployOptions.workers == 0) deployOptions.workers = options_.workers;
  result_.deployment =
      planStagedRollout(tree_, result_.patch, policies_, deployOptions);
  ConfigTree staged = tree_.clone();
  if (!executeDeployment(staged, result_.deployment, deployOptions,
                         deployFault(options_.faultInjection))) {
    result_.degraded = true;
    logWarn() << "staged deployment aborted ["
              << errorCodeName(result_.deployment.code)
              << "]: " << result_.deployment.error;
  }
}

AedResult SynthesisRun::finish(bool thrown) {
  {
    AED_SPAN("aed.teardown");
    // The solvers still alive are independent Z3 contexts: free them side
    // by side, on one thread each up to workers_.
    std::vector<std::function<void()>> frees;
    for (std::unique_ptr<SubproblemSolver>& solver : solvers_) {
      if (solver != nullptr) frees.emplace_back([&solver] { solver.reset(); });
    }
    const std::size_t lanes = std::min(workers_, frees.size());
    if (lanes > 1) {
      ThreadPool(lanes).runAll(std::move(frees));
    } else {
      for (const std::function<void()>& task : frees) task();
    }
  }
  if (thrown && result_.errorCode == ErrorCode::kNone) {
    result_.errorCode = ErrorCode::kInternal;
  }

  // subResults_ stays empty when the run threw before partitioning.
  AedStats& stats = result_.stats;
  std::set<std::string> violatedLabels;
  for (std::size_t i = 0; i < subResults_.size(); ++i) {
    const SubResult& sub = subResults_[i];
    result_.subproblems.push_back({.index = i,
                                   .destination = destinations_[i],
                                   .policyCount = groups_[i].size(),
                                   .outcome = sub.outcome,
                                   .code = sub.code,
                                   .detail = sub.detail,
                                   .seconds = subSeconds_[i],
                                   .rung = sub.rung,
                                   .rungReason = sub.rungReason,
                                   .solverStats = solverTotals_[i]});

    if (sub.outcome == SubOutcome::kDegraded) {
      ++stats.degradedSubproblems;
    } else if (sub.outcome != SubOutcome::kOk) {
      ++stats.failedSubproblems;
    }
    if (sub.outcome != SubOutcome::kOk) result_.degraded = true;
    violatedLabels.insert(sub.violated.begin(), sub.violated.end());
    stats.deltaCount += sub.deltaCount;
  }
  std::set<std::string> satisfiedLabels;
  for (const SubResult& sub : subResults_) {
    for (const std::string& label : sub.satisfied) {
      if (violatedLabels.count(label) == 0) satisfiedLabels.insert(label);
    }
  }
  result_.satisfiedObjectives.assign(satisfiedLabels.begin(),
                                     satisfiedLabels.end());
  result_.violatedObjectives.assign(violatedLabels.begin(),
                                    violatedLabels.end());
  stats.totalSeconds = secondsSince(start_);
  publishStats(result_);
  Progress::setPhase(result_.success
                         ? (result_.degraded ? "degraded" : "done")
                         : "failed");

  // Post-mortem (§12): any non-clean exit — failed, thrown, cancelled, or
  // degraded — leaves a flight dump behind when a dump destination is
  // configured.
  if (!result_.success || result_.degraded) {
    FlightRecorder::DumpContext dump;
    dump.reason =
        !result_.success ? "synthesize-failed" : "synthesize-degraded";
    dump.errorCode = errorCodeName(result_.errorCode);
    dump.detail = result_.error;
    dump.sections.emplace_back("subproblems", subproblemsJson(result_));
    FlightRecorder::maybeDump(dump);
  }
  return std::move(result_);
}

}  // namespace

const char* subOutcomeName(SubOutcome outcome) {
  switch (outcome) {
    case SubOutcome::kOk: return "ok";
    case SubOutcome::kDegraded: return "degraded";
    case SubOutcome::kTimedOut: return "timed_out";
    case SubOutcome::kUnsat: return "unsat";
    case SubOutcome::kError: return "error";
    case SubOutcome::kCancelled: return "cancelled";
  }
  return "error";
}

DeployFaultInjection deployFault(const FaultInjection& fault) {
  DeployFaultInjection deploy;
  if (fault.kind == FaultInjection::Kind::kStageCommitFailure) {
    deploy.kind = DeployFaultInjection::Kind::kStageCommitFailure;
    deploy.stage = fault.applyStage;
    deploy.atEdit = fault.applyEdit;
  } else if (fault.kind == FaultInjection::Kind::kStageValidationTimeout) {
    deploy.kind = DeployFaultInjection::Kind::kValidationTimeout;
    deploy.stage = fault.applyStage;
  }
  return deploy;
}

Patch mergePatches(const std::vector<Patch>& patches) {
  Patch merged;
  std::set<std::string> seen;            // dedupe identical edits
  std::set<std::pair<std::string, int>> usedSeqs;

  const auto editKey = [](const Edit& edit) {
    std::string key = std::to_string(static_cast<int>(edit.op)) + "|" +
                      edit.targetPath + "|" +
                      std::string(nodeKindName(edit.kind));
    for (const auto& [k, v] : edit.attrs) key += "|" + k + "=" + v;
    return key;
  };

  // Deterministic collision renumbering: the nearest free *positive*
  // sequence number, searching downward first (a prepended rule should stay
  // in front of the rules it was solved against), then upward. Sequence
  // numbers must stay >= 1 — the config dialect has no zero/negative seq,
  // and the simulator's seq-sorted evaluation would order them wrongly.
  const auto renumber = [&usedSeqs](const std::string& path, int seq) {
    int down = seq > 1 ? seq - 1 : 0;  // 0: no positive slot below seq
    while (down >= 1 && usedSeqs.count({path, down}) != 0) --down;
    if (down >= 1) return down;
    int up = seq >= 1 ? seq + 1 : 1;
    while (usedSeqs.count({path, up}) != 0) ++up;
    return up;
  };

  for (const Patch& patch : patches) {
    for (const Edit& edit : patch.edits()) {
      Edit copy = edit;
      const bool isRuleAdd =
          copy.op == Edit::Op::kAddNode &&
          (copy.kind == NodeKind::kRouteFilterRule ||
           copy.kind == NodeKind::kPacketFilterRule) &&
          copy.attrs.count("seq") != 0;
      if (isRuleAdd) {
        int seq = parseInt(copy.attrs.at("seq"),
                           "seq of merged rule addition at " + copy.targetPath);
        if (seq < 1 || (usedSeqs.count({copy.targetPath, seq}) != 0 &&
                        seen.count(editKey(copy)) == 0)) {
          seq = renumber(copy.targetPath, seq);
          copy.attrs["seq"] = std::to_string(seq);
        }
        usedSeqs.insert({copy.targetPath, seq});
      }
      const std::string key = editKey(copy);
      if (seen.insert(key).second) merged.add(std::move(copy));
    }
  }
  return merged;
}

AedResult synthesize(const ConfigTree& tree, const PolicySet& policies,
                     const std::vector<Objective>& objectives,
                     const AedOptions& options) {
  SynthesisRun run(tree, policies, objectives, options);
  // Deterministic AedErrors still reach the caller (the resilience
  // contract), but only after finish() has made the run attributable.
  std::exception_ptr thrown;
  try {
    run.execute();
  } catch (...) {
    thrown = std::current_exception();
  }
  AedResult result = run.finish(thrown != nullptr);
  if (thrown) std::rethrow_exception(thrown);
  return result;
}

}  // namespace aed
