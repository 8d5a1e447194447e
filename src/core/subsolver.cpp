#include "core/subsolver.hpp"

#include <cstdint>
#include <limits>
#include <utility>

#include "obs/trace.hpp"
#include "objectives/translate.hpp"
#include "smt/session.hpp"

namespace aed {

namespace {

/// User objectives are scaled by this factor so they dominate the unit-weight
/// per-delta minimality pressure. Matches the paper's "equal weight by
/// default" within the user's objectives.
constexpr std::uint64_t kObjectiveWeightScale = 1000;

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

SmtSession::SolverKind SubproblemSolver::solverKind(
    const AedOptions& options, const std::vector<Objective>& objectives) {
  return options.defaultMinimality || !objectives.empty()
             ? SmtSession::SolverKind::kKernel
             : SmtSession::SolverKind::kCombined;
}

SubproblemSolver::~SubproblemSolver() {
  // The span shows which thread paid for the free and under which phase.
  AED_SPAN("subsolver.free");
  encoder_.reset();  // references the sketch and the session
  sketch_.reset();
  session_.reset();
}

void SubproblemSolver::ensureEncoded(SubResult& result) {
  if (encoder_ != nullptr) return;

  // Scaled in 64 bits: a weight that does not fit a 32-bit pseudo-boolean
  // coefficient is refused, never wrapped (the session refuses a group whose
  // summed soft weight does not fit either).
  std::vector<Objective> scaled = objectives_;
  for (Objective& objective : scaled) {
    const std::uint64_t weight =
        std::uint64_t{objective.weight} * kObjectiveWeightScale;
    require(weight <= std::numeric_limits<int>::max(),
            ErrorCode::kInvalidInput,
            "objective '" + objective.label + "': WEIGHT " +
                std::to_string(objective.weight) + " scaled by " +
                std::to_string(kObjectiveWeightScale) + " exceeds " +
                std::to_string(std::numeric_limits<int>::max()));
    objective.weight = static_cast<unsigned>(weight);
  }

  auto phaseStart = Deadline::Clock::now();
  {
    AED_SPAN("subsolver.sketch");
    sketch_.emplace(buildSketch(tree_, topo_, policies_, options_.sketch));
  }
  result.phases.sketchSeconds = secondsSince(phaseStart);

  // The encode phase includes building the session and its Z3 context.
  phaseStart = Deadline::Clock::now();
  AED_SPAN("subsolver.encode");
  session_ = std::make_unique<SmtSession>(solverKind(options_, objectives_));
  if (options_.randomPhaseSeed != 0) {
    session_->randomizePhase(options_.randomPhaseSeed);
  }
  encoder_ = std::make_unique<Encoder>(*session_, tree_, topo_, *sketch_,
                                       options_.encoder);
  encoder_->encode(policies_);

  // User objectives (scaled), then the default minimality pressure. Softs
  // are added once; repair rounds re-optimize the same objective system.
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

  // Push only the blocked sets the live solver has not seen yet. The
  // group's list grows monotonically across repair rounds, so earlier
  // clauses are already asserted (and permanent — see the header).
  for (; blockedApplied_ < blockedDeltaSets.size(); ++blockedApplied_) {
    z3::expr all = session_->boolVal(true);
    for (const std::string& name : blockedDeltaSets[blockedApplied_]) {
      const DeltaVar* delta = sketch_->findByName(name);
      require(delta != nullptr,
              "blocked delta '" + name + "' is not in this subproblem");
      session_->reassign(all, all && encoder_->deltaActive(*delta));
    }
    session_->addHard(!all);
  }

  auto phaseStart = Deadline::Clock::now();
  SmtSession::Result check;
  {
    Span span("subsolver.solve");
    check = session_->check();
    if (span.active()) {
      span.setDetail(std::string("rung=") + solveRungName(check.rung));
    }
  }
  result.phases.solveSeconds = secondsSince(phaseStart);
  result.sat = check.sat();
  result.rung = check.rung;
  result.rungReason = std::move(check.rungReason);
  result.solverStats = check.stats;
  ++rounds_;

  switch (check.rung) {
    case SolveRung::kWarmStart:
    case SolveRung::kFull:
      result.outcome = SubOutcome::kOk;
      break;
    case SolveRung::kNoMinimality:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: minimality softs dropped";
      break;
    case SolveRung::kHardOnly:
      result.outcome = SubOutcome::kDegraded;
      result.detail = "degraded: hard constraints only";
      break;
    case SolveRung::kUnsat:
      result.outcome = SubOutcome::kUnsat;
      result.code = ErrorCode::kUnsat;
      result.detail = "hard constraints unsatisfiable";
      break;
    case SolveRung::kNone:  // check() always names a rung
    case SolveRung::kGaveUp:
      if (check.code == ErrorCode::kTimeout) {
        result.outcome = SubOutcome::kTimedOut;
        result.code = ErrorCode::kTimeout;
        result.detail = "wall-clock budget exhausted (status timeout)";
      } else {
        result.outcome = SubOutcome::kError;
        result.code = ErrorCode::kSolverUnknown;
        result.detail = "solver answered unknown";
      }
      break;
  }
  if (!result.sat) {
    result.seconds = secondsSince(start);
    return result;
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

  result.satisfied = std::move(check.satisfiedObjectives);
  result.violated = std::move(check.violatedObjectives);
  result.seconds = secondsSince(start);
  return result;
}

}  // namespace aed
