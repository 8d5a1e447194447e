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
#include "objectives/translate.hpp"
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
  /// metrics and writes the flight dump of a bad exit. `thrown` is the
  /// exception execute() left by, if any: it becomes the run's error.
  AedResult finish(const std::exception_ptr& thrown);

 private:
  /// One destination group (subproblem) and all the run keeps for it. A
  /// pool worker writes only its own group's `latest` and `solver`.
  struct Group {
    PolicySet policies;
    SubResult latest;  // the group's latest solve
    // Kept across rounds, so a repair round only pushes the group's new
    // blocked sets into the live solver (core/subsolver.hpp). None for a
    // group the input satisfies (checkInput()); with incrementalResolve off
    // each solve replaces it. finish() frees the ones still alive.
    std::unique_ptr<SubproblemSolver> solver;
    // blame()'s sets for this group, one per round it was blamed.
    std::vector<std::vector<std::string>> blocked;
    bool inputSatisfied = false;  // checkInput(), before round 0
    bool needsSolve = true;       // coordinating thread only
    // For finish(): the latest verdict, with seconds and Z3 effort summed
    // across rounds; an error until the group's first solve lands.
    SubproblemReport report;
  };

  void partition();
  void checkInput();
  void solveRound(int round, const std::vector<std::size_t>& pending);
  void solveOne(std::size_t i, std::uint64_t perSubproblemMs);
  SubResult unchangedResult(const Group& group) const;
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
  /// The group a solve-time fault (kThrow, kDelay, kUnknown) poisons.
  bool poisoned(std::size_t i) const {
    using Kind = FaultInjection::Kind;
    const FaultInjection& fault = options_.faultInjection;
    return (fault.kind == Kind::kThrow || fault.kind == Kind::kDelay ||
            fault.kind == Kind::kUnknown) &&
           fault.subproblem >= 0 &&
           static_cast<std::size_t>(fault.subproblem) == i;
  }
  /// solveOne() answers the group with unchangedResult(), building no
  /// solver; a poisoned group keeps its solver so the fault runs for real.
  bool answeredUnchanged(std::size_t i) const {
    return groups_[i].inputSatisfied && !poisoned(i);
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
  AedOptions options_;  // plus destination-scoped sketches (partition())
  const Deadline deadline_;
  const std::size_t workers_;
  Topology topo_;

  std::vector<Group> groups_;  // in destination order
  AedResult result_;
};

void SynthesisRun::execute() {
  {
    AED_SPAN("aed.topology");
    topo_ = Topology::fromConfigs(tree_);
  }
  partition();
  checkInput();
  for (int round = 0; round <= options_.maxRepairIterations; ++round) {
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      if (groups_[i].needsSolve) pending.push_back(i);
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
  const auto add = [this](std::string destination, PolicySet policies) {
    Group& group = groups_.emplace_back();
    group.report.index = groups_.size() - 1;
    group.report.destination = std::move(destination);
    group.report.policyCount = policies.size();
    group.report.outcome = group.latest.outcome;
    group.policies = std::move(policies);
  };
  if (options_.perDestination) {
    for (auto& [dst, set] : groupByDestination(policies_)) {
      add(dst.str(), std::move(set));
    }
    // Confine each subproblem to destination-local changes so parallel
    // solutions cannot conflict (§8; see SketchOptions::destinationScoped).
    if (groups_.size() > 1) options_.sketch.destinationScoped = true;
  } else if (!policies_.empty()) {
    add("*", policies_);
  }
  result_.stats.subproblems = groups_.size();
}

/// Marks the groups whose policies the unchanged network already meets,
/// when that decides their MaxSMT answer. Every delta carries a unit
/// minimality soft constraint, and a NOMODIFY soft constraint holds when
/// nothing changes, so such a group's optimum costs 0 and its only delta
/// assignment is "all inactive": the empty patch. ELIMINATE and EQUATE can
/// cost something on the unchanged network, and without the minimality
/// softs (the NetComplete baseline) the optimum need not be the empty
/// patch, so those runs solve every group.
void SynthesisRun::checkInput() {
  const bool noModifyOnly = std::all_of(
      objectives_.begin(), objectives_.end(), [](const Objective& objective) {
        return objective.restriction == Restriction::kNoModify;
      });
  if (groups_.empty() || !options_.defaultMinimality || !noModifyOnly) {
    return;
  }
  AED_SPAN("aed.input_check");
  const SimulationEngine engine(tree_);
  for (Group& group : groups_) {
    group.inputSatisfied = engine.violations(group.policies).empty();
  }
}

void SynthesisRun::solveRound(int round,
                              const std::vector<std::size_t>& pending) {
  Progress::setPhase(round == 0 ? "solve" : "repair");
  Progress::setRound(static_cast<std::size_t>(round));
  Progress::setWork(pending.size());

  // Split the remaining global budget across the queued subproblems that
  // build a solver: each of the ceil(solving/workers) sequential batches
  // gets an equal share.
  std::uint64_t perSubproblemMs = Deadline::kForeverMs;
  const auto solving = static_cast<std::size_t>(
      std::count_if(pending.begin(), pending.end(),
                    [this](std::size_t i) { return !answeredUnchanged(i); }));
  if (!deadline_.isUnlimited() && solving > 0) {
    const std::size_t lanes = std::min(workers_, solving);
    const std::size_t batches = (solving + lanes - 1) / lanes;
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
        groups_[i].latest =
            failedSubResult(SubOutcome::kError, e.code(), e.what());
      } catch (const std::exception& e) {
        if (!fatal) fatal = std::current_exception();
        groups_[i].latest = failedSubResult(SubOutcome::kError,
                                            ErrorCode::kInternal, e.what());
      }
    }
  }

  // Merged before the fatal rethrow below, so the work the siblings
  // completed this round stays attributable when the run unwinds.
  AedStats& stats = result_.stats;
  PhaseBreakdown& bucket = phaseBucket(round);
  const EngineHistograms& hist = histograms();
  for (const std::size_t i : pending) {
    Group& group = groups_[i];
    group.needsSolve = false;
    const SubResult& sub = group.latest;
    SubproblemReport& report = group.report;
    report.outcome = sub.outcome;
    report.code = sub.code;
    report.detail = sub.detail;
    report.rung = sub.rung;
    report.rungReason = sub.rungReason;
    report.seconds += sub.seconds;
    bucket.sketchSeconds += sub.phases.sketchSeconds;
    bucket.encodeSeconds += sub.phases.encodeSeconds;
    bucket.solveSeconds += sub.phases.solveSeconds;
    bucket.extractSeconds += sub.phases.extractSeconds;
    stats.sumSubproblemSeconds += sub.seconds;
    stats.maxSubproblemSeconds =
        std::max(stats.maxSubproblemSeconds, sub.seconds);
    if (sub.rung == SolveRung::kWarmStart) ++stats.warmStartSolves;
    // §12 introspection, merged post-join on this thread: per-solve
    // latency/effort distributions and ladder-rung outcomes.
    hist.subproblemSeconds.record(sub.seconds);
    if (sub.rung != SolveRung::kNone) {
      hist.checkSeconds.record(sub.phases.solveSeconds);
      hist.conflicts.record(static_cast<double>(sub.solverStats.conflicts));
      hist.decisions.record(static_cast<double>(sub.solverStats.decisions));
      ++stats.rungCounts[static_cast<std::size_t>(sub.rung)];
      report.solverStats.accumulate(sub.solverStats);
    }
  }
  if (fatal) std::rethrow_exception(fatal);
}

void SynthesisRun::solveOne(std::size_t i, std::uint64_t perSubproblemMs) {
  Group& group = groups_[i];
  // On a pool worker the submitting thread's span context is installed, so
  // this span parents under the round span whichever thread runs it.
  Span span("aed.subproblem");
  if (span.active()) {
    span.setDetail("dst=" + group.report.destination +
                   (answeredUnchanged(i) ? " input_satisfied" : ""));
  }
  try {
    const FaultInjection& fault = options_.faultInjection;
    const bool injected = poisoned(i);
    if (injected && fault.kind == FaultInjection::Kind::kThrow) {
      throw AedError(ErrorCode::kSubproblemFailed,
                     "fault injection: subproblem " + std::to_string(i) +
                         " threw");
    }
    if (injected && fault.kind == FaultInjection::Kind::kDelay) {
      std::this_thread::sleep_for(std::chrono::milliseconds(fault.delayMs));
    }
    if (cancelled()) {
      group.latest = failedSubResult(SubOutcome::kCancelled,
                                     ErrorCode::kCancelled,
                                     "cancelled before solving");
      return;
    }
    if (answeredUnchanged(i)) {
      group.latest = unchangedResult(group);
    } else {
      const Deadline deadline =
          deadline_.isUnlimited()
              ? deadline_
              : Deadline::after(perSubproblemMs).min(deadline_);
      // Without incrementalResolve every solve starts from a fresh solver;
      // replacing the group's previous one frees it.
      if (group.solver == nullptr || !options_.incrementalResolve) {
        group.solver = std::make_unique<SubproblemSolver>(
            tree_, topo_, group.policies, objectives_, options_);
      }
      group.latest = group.solver->solve(
          group.blocked, deadline,
          injected && fault.kind == FaultInjection::Kind::kUnknown);
    }
  } catch (const AedError& e) {
    if (!isolatable(e.code())) throw;
    const SubOutcome outcome = e.code() == ErrorCode::kTimeout
                                   ? SubOutcome::kTimedOut
                               : e.code() == ErrorCode::kCancelled
                                   ? SubOutcome::kCancelled
                                   : SubOutcome::kError;
    group.latest = failedSubResult(outcome, e.code(), e.what());
  } catch (const std::exception& e) {
    // Covers z3::exception: solver infrastructure trouble, isolated.
    group.latest = failedSubResult(SubOutcome::kError,
                                   ErrorCode::kSubproblemFailed, e.what());
  }
  Progress::incrDone();
}

/// The answer for a group the input already satisfies (checkInput()): the
/// empty patch, no active deltas, every objective met. Only the sketch is
/// built, for the group's delta count and objective labels.
SubResult SynthesisRun::unchangedResult(const Group& group) const {
  const auto start = Deadline::Clock::now();
  SubResult result;
  result.outcome = SubOutcome::kOk;
  result.sat = true;
  const Sketch sketch =
      buildSketch(tree_, topo_, group.policies, options_.sketch);
  result.phases.sketchSeconds = secondsSince(start);
  result.deltaCount = sketch.deltas().size();
  result.satisfied = objectiveLabels(sketch, objectives_);
  result.rungReason =
      "input satisfied: the unchanged network meets every policy of this "
      "group, so the empty patch is the optimum and no solver was built";
  result.seconds = secondsSince(start);
  return result;
}

/// Fails the run on unsat anywhere, or when no subproblem produced a usable
/// patch; otherwise logs the failed ones, whose patches the merge skips.
bool SynthesisRun::checkOutcomes() {
  // Unsat is fatal for the whole run: the policies conflict (§11 "SMT
  // output for special cases"), and a partial patch would silently drop a
  // policy the operator asked for.
  for (const Group& group : groups_) {
    if (group.latest.outcome == SubOutcome::kUnsat) {
      return fail(ErrorCode::kUnsat,
                  "unsatisfiable: the policies cannot all be implemented "
                  "(subproblem " +
                      std::to_string(group.report.index) + ", " +
                      std::to_string(group.policies.size()) + " policies)");
    }
  }

  // Fault isolation: infrastructure failures (timeout, exception, solver
  // unknown, cancellation) are reported per subproblem; the survivors'
  // patches are still merged. Only when nothing survived is the whole run
  // a failure.
  if (std::none_of(groups_.begin(), groups_.end(),
                   [](const Group& group) { return usable(group.latest); })) {
    const auto firstWith = [this](SubOutcome outcome) -> const SubResult* {
      for (const Group& group : groups_) {
        if (group.latest.outcome == outcome) return &group.latest;
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
  for (const Group& group : groups_) {
    const SubResult& sub = group.latest;
    if (!usable(sub)) {
      logWarn() << "subproblem " << group.report.index << " ("
                << group.report.destination
                << ") failed: " << subOutcomeName(sub.outcome)
                << (sub.detail.empty() ? "" : " — " + sub.detail);
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
  for (const Group& group : groups_) {
    if (!usable(group.latest)) continue;
    patches.push_back(group.latest.patch);
    survivingPolicies.insert(survivingPolicies.end(), group.policies.begin(),
                             group.policies.end());
  }
  Patch merged;
  ConfigTree updated;
  {
    AED_SPAN("aed.merge_apply");
    merged = mergePatches(patches);
    updated = merged.applied(tree_);
  }

  PolicySet violated;
  const auto simulateStart = Deadline::Clock::now();
  {
    AED_SPAN("aed.validate");
    Progress::setPhase("validate");
    const SimulationEngine engine(updated);
    violated = engine.violations(survivingPolicies);
    result_.stats.simulate.accumulate(engine.cacheStats());
  }
  phaseBucket(round).simulateSeconds += secondsSince(simulateStart);
  if (violated.empty()) violated = injectedRejection(round);
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
  for (const Group& group : groups_) {
    if (!usable(group.latest) || group.latest.activeDeltas.empty()) continue;
    rejectable.insert(rejectable.end(), group.policies.begin(),
                      group.policies.end());
  }
  if (!rejectable.empty()) {
    logWarn() << "fault injection: rejecting the round-" << round
              << " validation verdict";
  }
  return rejectable;
}

/// Counts a repair round and blocks, in each group blamed for `violated`,
/// that group's active delta set, marking it for re-solve. Fails the run
/// when no repair round is left, on cancellation, when the budget is spent,
/// or when no group can be blamed.
bool SynthesisRun::blame(int round, const PolicySet& violated) {
  Span span("aed.blame");
  if (span.active()) {
    span.setDetail("violated=" + std::to_string(violated.size()));
  }
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
  // solveRound() left every group's needsSolve clear, so a set flag marks
  // a group blamed this round. Its active delta set is blocked once per
  // round, even when it owns several violated policies: a duplicate clause
  // would bloat its solver, which keeps every clause.
  bool fallback = false;
  const auto describe = [&] {
    if (!span.active()) return;
    std::string blamed;
    std::size_t count = 0;
    for (const Group& group : groups_) {
      if (!group.needsSolve) continue;
      if (count++ > 0) blamed += ',';
      blamed += std::to_string(group.report.index);
    }
    span.setDetail("violated=" + std::to_string(violated.size()) +
                   " groups=" + (blamed.empty() ? "-" : blamed) +
                   " fallback=" + (fallback ? "yes" : "no") +
                   " blocked=" + std::to_string(count));
  };
  // Blocks, in its own list, the active delta set of every surviving group
  // with a non-empty set that `pick` selects; false when there was none.
  const auto blockWhere = [&](const auto& pick) {
    bool any = false;
    for (Group& group : groups_) {
      const SubResult& sub = group.latest;
      if (!usable(sub) || sub.activeDeltas.empty() || !pick(group)) continue;
      if (!group.needsSolve) group.blocked.push_back(sub.activeDeltas);
      group.needsSolve = true;
      any = true;
    }
    return any;
  };
  for (const Policy& policy : violated) {
    const auto owns = [&policy](const Group& group) {
      return std::any_of(
          group.policies.begin(), group.policies.end(),
          [&policy](const Policy& p) { return p.cls.dst == policy.cls.dst; });
    };
    // When the owning subproblem made no changes, another group's deltas
    // broke this policy: block every non-empty surviving group.
    bool blamed = blockWhere(owns);
    if (!blamed) {
      fallback = true;
      blamed = blockWhere([](const Group&) { return true; });
    }
    if (!blamed) {
      describe();
      return fail(ErrorCode::kInternal,
                  "model/simulator divergence with an empty patch for " +
                      policy.str());
    }
  }
  describe();
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
  result_.deployment = planStagedRollout(tree_, result_.patch, policies_);
  ConfigTree staged = tree_.clone();
  if (!executeDeployment(staged, result_.deployment, {},
                         options_.faultInjection)) {
    result_.degraded = true;
    logWarn() << "staged deployment aborted ["
              << errorCodeName(result_.deployment.code)
              << "]: " << result_.deployment.error;
  }
}

AedResult SynthesisRun::finish(const std::exception_ptr& thrown) {
  {
    AED_SPAN("aed.teardown");
    // The only place a solver is freed, apart from a fresh-mode solve
    // replacing its group's previous one. The solvers are independent Z3
    // contexts, each freed in a few milliseconds: free them side by side,
    // on one thread each up to workers_.
    std::vector<std::function<void()>> frees;
    for (Group& group : groups_) {
      if (group.solver != nullptr) {
        frees.emplace_back([&group] { group.solver.reset(); });
      }
    }
    const std::size_t lanes = std::min(workers_, frees.size());
    if (lanes > 1) {
      ThreadPool(lanes).runAll(std::move(frees));
    } else {
      for (const std::function<void()>& task : frees) task();
    }
  }
  if (thrown) {
    try {
      std::rethrow_exception(thrown);
    } catch (const AedError& e) {
      fail(e.code(), e.what());
    } catch (const std::exception& e) {
      fail(ErrorCode::kInternal, e.what());
    } catch (...) {
      fail(ErrorCode::kInternal, "unknown exception");
    }
  }
  // The report: per-subproblem records, stats, metrics and the flight dump.
  AED_SPAN("aed.report");

  // groups_ stays empty when the run threw before partitioning.
  AedStats& stats = result_.stats;
  std::set<std::string> violatedLabels;
  for (Group& group : groups_) {
    const SubResult& sub = group.latest;
    if (sub.outcome == SubOutcome::kDegraded) {
      ++stats.degradedSubproblems;
    } else if (sub.outcome != SubOutcome::kOk) {
      ++stats.failedSubproblems;
    }
    if (sub.outcome != SubOutcome::kOk) result_.degraded = true;
    violatedLabels.insert(sub.violated.begin(), sub.violated.end());
    stats.deltaCount += sub.deltaCount;
    result_.subproblems.push_back(std::move(group.report));
  }
  std::set<std::string> satisfiedLabels;
  for (const Group& group : groups_) {
    for (const std::string& label : group.latest.satisfied) {
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
  AedResult result = run.finish(thrown);
  if (thrown) std::rethrow_exception(thrown);
  return result;
}

}  // namespace aed
