#include "apply/deploy.hpp"

#include <string>

#include "conftree/journal.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

MetricsRegistry::Histogram& histStageValidateSeconds() {
  static MetricsRegistry::Histogram hist =
      MetricsRegistry::global().histogram("deploy.stage_validate_seconds");
  return hist;
}

/// Pre-rendered JSON array of per-stage outcomes for the flight dump.
std::string stagesJson(const DeploymentPlan& plan) {
  std::string out = "[";
  bool first = true;
  for (const DeploymentStage& stage : plan.stages) {
    if (!first) out += ",";
    first = false;
    out += "{\"index\":" + std::to_string(stage.index);
    out += ",\"label\":\"" + jsonEscape(stage.label) + "\"";
    out += ",\"status\":\"";
    out += stageStatusName(stage.status);
    out += "\",\"apply_seconds\":" + std::to_string(stage.applySeconds);
    out += ",\"validate_seconds\":" + std::to_string(stage.validateSeconds);
    out += ",\"detail\":\"" + jsonEscape(stage.detail) + "\"}";
  }
  out += "]";
  return out;
}

}  // namespace

bool executeDeployment(ConfigTree& tree, DeploymentPlan& plan,
                       const DeployOptions&,
                       const FaultInjection& fault) {
  Span span("deploy.execute");
  if (span.active()) {
    span.setDetail("stages=" + std::to_string(plan.stages.size()));
  }
  const auto start = Deadline::Clock::now();
  // Touch the stage-validation histogram so it appears in every snapshot
  // that involves a deployment, even when no stage reaches validation.
  histStageValidateSeconds();
  plan.executed = true;
  plan.aborted = false;
  plan.committedStages = 0;
  plan.code = ErrorCode::kNone;
  plan.error.clear();

  const auto abort = [&plan](DeploymentStage& stage, ErrorCode code,
                             std::string detail) {
    stage.status = StageStatus::kRolledBack;
    stage.detail = detail;
    plan.aborted = true;
    plan.code = code;
    plan.error = "stage " + std::to_string(stage.index) + " (" + stage.label +
                 "): " + std::move(detail);
    logWarn() << "deployment aborted at stage " << stage.index << " ["
              << errorCodeName(code) << "]: " << stage.detail;
  };

  Progress::setPhase("deploy");
  Progress::setWork(plan.stages.size());

  for (DeploymentStage& stage : plan.stages) {
    if (plan.aborted) {
      stage.status = StageStatus::kSkipped;
      continue;
    }
    Span stageSpan("deploy.stage");
    if (stageSpan.active()) stageSpan.setDetail(stage.label);

    // Apply through the journal; a fault mid-stage (injected or organic)
    // rolls back inside applyJournaled before the exception reaches us.
    const auto applyStart = Deadline::Clock::now();
    ApplyJournal journal;
    Patch::EditHook hook;
    if (fault.kind == FaultInjection::Kind::kStageCommitFailure &&
        fault.applyStage == stage.index) {
      const std::size_t failAt = fault.applyEdit;
      hook = [failAt](std::size_t index, const Edit&) {
        if (index == failAt) {
          throw AedError(ErrorCode::kApplyFailed,
                         "injected stage-commit fault at edit " +
                             std::to_string(index));
        }
      };
    }
    try {
      stage.patch.applyJournaled(tree, journal, hook);
    } catch (const AedError& e) {
      stage.applySeconds = secondsSince(applyStart);
      abort(stage, e.code() == ErrorCode::kNone ? ErrorCode::kApplyFailed
                                                : e.code(),
            e.what());
      continue;
    }
    stage.applySeconds = secondsSince(applyStart);

    // Validate the intermediate state before committing the journal.
    const auto validateStart = Deadline::Clock::now();
    if (fault.kind == FaultInjection::Kind::kStageValidationTimeout &&
        fault.applyStage == stage.index) {
      stage.validateSeconds = secondsSince(validateStart);
      histStageValidateSeconds().record(stage.validateSeconds);
      journal.rollback();
      abort(stage, ErrorCode::kTimeout, "injected validation timeout");
      continue;
    }
    const PolicySet violated = SimulationEngine(tree).violations(plan.guard);
    stage.validateSeconds = secondsSince(validateStart);
    histStageValidateSeconds().record(stage.validateSeconds);
    if (!violated.empty()) {
      journal.rollback();
      std::string detail =
          "guard regression: " + violated.front().str();
      if (violated.size() > 1) {
        detail += " (+" + std::to_string(violated.size() - 1) + " more)";
      }
      abort(stage, ErrorCode::kDeployAborted, std::move(detail));
      continue;
    }

    journal.commit();
    stage.status = StageStatus::kCommitted;
    ++plan.committedStages;
    Progress::incrDone();
  }

  plan.executeSeconds = secondsSince(start);

  // Mirror the stage outcomes into the unified registry (the per-stage
  // statuses in `plan` stay the compatibility surface). Single-threaded:
  // executeDeployment owns the whole commit loop.
  MetricsRegistry& metrics = MetricsRegistry::global();
  std::size_t rolledBack = 0;
  std::size_t skipped = 0;
  for (const DeploymentStage& stage : plan.stages) {
    if (stage.status == StageStatus::kRolledBack) ++rolledBack;
    if (stage.status == StageStatus::kSkipped) ++skipped;
  }
  metrics.add("deploy.executions", 1.0);
  metrics.add("deploy.stages_committed",
              static_cast<double>(plan.committedStages));
  metrics.add("deploy.stages_rolled_back", static_cast<double>(rolledBack));
  metrics.add("deploy.stages_skipped", static_cast<double>(skipped));
  if (plan.aborted) metrics.add("deploy.aborts", 1.0);
  metrics.add("deploy.execute_seconds", plan.executeSeconds);

  if (plan.aborted) {
    FlightRecorder::DumpContext ctx;
    ctx.reason = "deploy-abort";
    ctx.errorCode = errorCodeName(plan.code);
    ctx.detail = plan.error;
    ctx.sections.emplace_back("stages", stagesJson(plan));
    FlightRecorder::maybeDump(ctx);
  }

  return !plan.aborted;
}

}  // namespace aed
