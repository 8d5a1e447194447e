#include "core/subsolver.hpp"

#include <utility>

#include "obs/trace.hpp"
#include "objectives/translate.hpp"
#include "smt/session.hpp"

namespace aed {

namespace {

/// User objectives are scaled by this factor so they dominate the unit-weight
/// per-delta minimality pressure. Matches the paper's "equal weight by
/// default" within the user's objectives.
constexpr unsigned kObjectiveWeightScale = 1000;

}  // namespace

SubproblemSolver::SubproblemSolver(const ConfigTree& tree,
                                   const Topology& topo, PolicySet policies,
                                   std::vector<Objective> objectives,
                                   const AedOptions& options)
    : tree_(tree),
      topo_(topo),
      policies_(std::move(policies)),
      objectives_(std::move(objectives)),
      options_(options) {}

SubproblemSolver::~SubproblemSolver() {
  // Freeing a solved Z3 context takes longer than encoding it; the span
  // shows which thread paid for it and under which phase.
  AED_SPAN("subsolver.free");
  encoder_.reset();  // references the sketch and the session
  sketch_.reset();
  session_.reset();
}

void SubproblemSolver::ensureEncoded(SubResult& result) {
  if (encoder_ != nullptr) return;

  auto phaseStart = Deadline::Clock::now();
  {
    AED_SPAN("subsolver.sketch");
    sketch_.emplace(buildSketch(tree_, topo_, policies_, options_.sketch));
  }
  result.phases.sketchSeconds = secondsSince(phaseStart);

  session_ = std::make_unique<SmtSession>();
  if (options_.randomPhaseSeed != 0) {
    session_->randomizePhase(options_.randomPhaseSeed);
  }

  phaseStart = Deadline::Clock::now();
  AED_SPAN("subsolver.encode");
  encoder_ = std::make_unique<Encoder>(*session_, tree_, topo_, *sketch_,
                                       options_.encoder);
  encoder_->encode(policies_);

  // User objectives (scaled), then the default minimality pressure. Softs
  // are added once; repair rounds re-optimize the same objective system.
  std::vector<Objective> scaled = objectives_;
  for (Objective& objective : scaled) {
    objective.weight *= kObjectiveWeightScale;
  }
  addObjectives(*encoder_, scaled);
  if (options_.defaultMinimality) {
    addPerDeltaMinimality(*encoder_);
  }
  result.phases.encodeSeconds = secondsSince(phaseStart);

  blockedApplied_ = 0;
}

SubResult SubproblemSolver::solve(
    const std::vector<std::vector<std::string>>& blockedDeltaSets,
    const Deadline& deadline, bool injectUnknown) {
  const auto start = Deadline::Clock::now();
  SubResult result;

  ensureEncoded(result);
  result.deltaCount = sketch_->deltas().size();

  session_->setDeadline(deadline);
  if (injectUnknown) session_->injectUnknown(1);

  // Push only the blocked-delta clauses the live solver has not seen yet.
  // The shared list grows monotonically across repair rounds, so earlier
  // clauses are already asserted (and permanent — see the header).
  for (; blockedApplied_ < blockedDeltaSets.size(); ++blockedApplied_) {
    const std::vector<std::string>& blockedSet =
        blockedDeltaSets[blockedApplied_];
    z3::expr all = session_->boolVal(true);
    bool any = false;
    for (const std::string& name : blockedSet) {
      const DeltaVar* delta = sketch_->findByName(name);
      if (delta == nullptr) continue;  // another subproblem's delta
      all = all && encoder_->deltaActive(*delta);
      any = true;
    }
    if (any) session_->addHard(!all);
  }

  auto phaseStart = Deadline::Clock::now();
  SmtSession::Result check;
  {
    Span span("subsolver.solve");
    check = session_->check();
    if (span.active()) {
      span.setDetail("status=" + check.status +
                     (check.warmStart ? " warm_start" : ""));
    }
  }
  result.phases.solveSeconds = secondsSince(phaseStart);
  result.sat = check.sat;
  result.warmStart = check.warmStart;
  result.rung = check.rung;
  result.rungReason = std::move(check.rungReason);
  result.solverStats = check.stats;
  ++rounds_;

  if (!check.sat) {
    if (check.code == ErrorCode::kUnsat) {
      result.outcome = SubOutcome::kUnsat;
      result.code = ErrorCode::kUnsat;
      result.detail = "hard constraints unsatisfiable";
    } else if (check.code == ErrorCode::kTimeout) {
      result.outcome = SubOutcome::kTimedOut;
      result.code = ErrorCode::kTimeout;
      result.detail =
          "wall-clock budget exhausted (status " + check.status + ")";
    } else {
      result.outcome = SubOutcome::kError;
      result.code = ErrorCode::kSolverUnknown;
      result.detail = "solver answered " + check.status;
    }
    result.seconds = secondsSince(start);
    return result;
  }

  switch (check.degradation) {
    case SmtSession::Degradation::kNone:
      result.outcome = SubOutcome::kOk;
      break;
    case SmtSession::Degradation::kNoMinimality:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: minimality softs dropped";
      break;
    case SmtSession::Degradation::kHardOnly:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: hard constraints only";
      break;
  }

  phaseStart = Deadline::Clock::now();
  AED_SPAN("subsolver.extract");
  result.patch = encoder_->extractPatch();
  for (const DeltaVar& delta : sketch_->deltas()) {
    if (session_->evalBool(encoder_->deltaActive(delta))) {
      result.activeDeltas.push_back(delta.name);
    }
  }
  result.phases.extractSeconds = secondsSince(phaseStart);

  // Only user objectives are reported; the per-delta minimality softs are an
  // internal mechanism.
  for (const std::string& label : check.satisfiedObjectives) {
    if (label.rfind("min-change:", 0) != 0) result.satisfied.push_back(label);
  }
  for (const std::string& label : check.violatedObjectives) {
    if (label.rfind("min-change:", 0) != 0) result.violated.push_back(label);
  }
  result.seconds = secondsSince(start);
  return result;
}

}  // namespace aed
