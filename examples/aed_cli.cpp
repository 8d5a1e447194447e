// aed_cli: file-driven command-line front end.
//
// Usage:
//   aed_cli --configs <file> --policies <file> [--objectives <file>]
//           [--out <file>] [--sequential] [--verbose]
//           [--budget-ms <n>] [--staged-apply]
//           [--trace <file>] [--metrics] [--metrics-out <file>]
//           [--solver-stats] [--progress]
//   aed_cli --gen smoke|nightly [--seed <n>] [other flags as above]
//
// Reads the network configuration (the canonical dialect; all routers in
// one file), the post-update policy set (policy/parse.hpp format) and
// optional management objectives (§7.1 language), then prints the patch,
// the objective report, and — with --out — writes the updated
// configurations.
//
// --gen replaces --configs/--policies with a generator-backed workload: the
// deterministic fuzz-scenario generator (src/check/scenario.hpp) builds a
// network and policy update from --seed (default 1) under the named size
// profile — the exact scenario `aed_check` would check for that seed, which
// makes "run the full CLI pipeline on fuzz seed N" a one-liner.
//
// --budget-ms caps the whole run's solver wall clock; under pressure the
// engine degrades (down the MaxSMT degradation ladder) and the
// per-subproblem outcome report is printed so the operator sees exactly
// which destinations got which treatment.
//
// --staged-apply additionally plans a policy-safe staged rollout of the
// synthesized patch (per-router/per-destination stages, each intermediate
// state simulation-checked against the policies that held before the
// update), executes it transactionally, and prints the plan.
//
// --trace <file> records the run's hierarchical span tree (synthesize →
// round → subproblem → smt.check / validate → sim.violations → deploy
// stages) and writes Chrome trace-event JSON loadable by chrome://tracing
// or Perfetto. --metrics prints the unified counter registry after the run —
// including on failure, so degraded and thrown runs stay attributable.
//
// --metrics-out <file> exports the registry snapshot on every exit path:
// JSON when the path ends in ".json", Prometheus text exposition format
// otherwise (the AED_METRICS_OUT environment variable is a fallback when
// the flag is absent). --solver-stats prints the per-destination solver
// breakdown — which degradation-ladder rung answered and why, plus Z3
// conflicts/decisions/restarts and encoding sizes.
// --progress streams phase/round/subproblem completion to stderr while the
// run is in flight.
//
// Exit codes: 0 success, 1 usage error, 2 synthesis failure, 3 partial
// (patch returned but some subproblem degraded or failed).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>

#include "check/scenario.hpp"
#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "policy/parse.hpp"
#include "simulate/simulator.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw aed::AedError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int usage() {
  std::cerr << "usage: aed_cli --configs <file> --policies <file>\n"
               "               [--objectives <file>] [--out <file>]\n"
               "               [--sequential] [--verbose]\n"
               "               [--budget-ms <n>] [--staged-apply]\n"
               "               [--trace <file>] [--metrics]\n"
               "               [--metrics-out <file>] [--solver-stats]\n"
               "               [--progress]\n"
               "       aed_cli --gen smoke|nightly [--seed <n>] [flags]\n";
  return 1;
}

/// Writes the span tree / prints the counter table on every exit path, so a
/// failed synthesis still leaves its trace artifact behind.
struct ObsFlush {
  std::string tracePath;
  std::string metricsOutPath;
  bool printMetrics = false;
  ~ObsFlush() {
    if (!tracePath.empty()) {
      if (aed::Tracer::writeChromeTrace(tracePath)) {
        std::cout << "trace written to " << tracePath << "\n";
      } else {
        std::cerr << "error: cannot write trace file: " << tracePath << "\n";
      }
    }
    if (printMetrics) {
      const std::string table = aed::MetricsRegistry::global().summaryTable();
      std::cout << "metrics:\n"
                << (table.empty() ? std::string("  (none recorded)\n")
                                  : table);
    }
    if (!metricsOutPath.empty()) {
      if (aed::exportMetricsFile(metricsOutPath)) {
        std::cout << "metrics snapshot written to " << metricsOutPath << "\n";
      } else {
        std::cerr << "error: cannot write metrics file: " << metricsOutPath
                  << "\n";
      }
    }
  }
};

/// Per-destination solver breakdown (--solver-stats): which ladder rung
/// answered, why, and what it cost the solver.
void printSolverStats(const aed::AedResult& result) {
  std::cout << "solver stats (per subproblem):\n";
  for (const aed::SubproblemReport& report : result.subproblems) {
    const aed::SolverStats& stats = report.solverStats;
    std::cout << "  subproblem " << report.index << " (" << report.destination
              << "): rung " << aed::solveRungName(report.rung) << ", "
              << stats.checks << " checks, " << stats.conflicts
              << " conflicts, " << stats.decisions << " decisions, "
              << stats.restarts << " restarts, " << stats.vars << " vars, "
              << stats.assertions << " assertions\n";
    if (!report.rungReason.empty()) {
      std::cout << "    why: " << report.rungReason << "\n";
    }
  }
  std::cout << "  rung totals:";
  for (std::size_t i = 0; i < result.stats.rungCounts.size(); ++i) {
    if (result.stats.rungCounts[i] == 0) continue;
    std::cout << " " << aed::solveRungName(static_cast<aed::SolveRung>(i))
              << "=" << result.stats.rungCounts[i];
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace aed;
  std::string configsPath, policiesPath, objectivesPath, outPath, genProfile;
  std::uint64_t seed = 1;
  ObsFlush obs;
  AedOptions options;
  bool solverStats = false;
  bool progress = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw AedError("missing value for " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--configs") configsPath = value();
      else if (arg == "--policies") policiesPath = value();
      else if (arg == "--objectives") objectivesPath = value();
      else if (arg == "--out") outPath = value();
      else if (arg == "--sequential") options.perDestination = false;
      else if (arg == "--budget-ms") {
        options.timeBudgetMs = parseU64(value(), arg);
      }
      else if (arg == "--staged-apply") options.stagedDeployment = true;
      else if (arg == "--trace") {
        obs.tracePath = value();
        Tracer::enable();
      }
      else if (arg == "--metrics") obs.printMetrics = true;
      else if (arg == "--metrics-out") obs.metricsOutPath = value();
      else if (arg == "--solver-stats") solverStats = true;
      else if (arg == "--progress") progress = true;
      else if (arg == "--verbose") setLogLevel(LogLevel::kInfo);
      else if (arg == "--gen") {
        genProfile = value();
        if (genProfile != "smoke" && genProfile != "nightly") {
          throw AedError("unknown --gen profile (smoke|nightly): " +
                         genProfile);
        }
      }
      else if (arg == "--seed") seed = parseU64(value(), arg);
      else return usage();
    } catch (const AedError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }
  if (genProfile.empty() && (configsPath.empty() || policiesPath.empty())) {
    return usage();
  }
  if (obs.metricsOutPath.empty()) {
    if (const char* env = std::getenv("AED_METRICS_OUT");
        env != nullptr && *env != '\0') {
      obs.metricsOutPath = env;
    }
  }

  try {
    ConfigTree tree;
    PolicySet policies;
    if (!genProfile.empty()) {
      check::Scenario scenario = check::makeScenario(
          seed, genProfile == "nightly" ? check::ScenarioProfile::nightly()
                                        : check::ScenarioProfile::smoke());
      std::cout << "generated scenario (seed " << seed
                << "): " << scenario.label << "\n";
      tree = std::move(scenario.tree);
      policies = std::move(scenario.policies);
    } else {
      tree = parseNetworkConfig(readFile(configsPath));
      policies = parsePolicies(readFile(policiesPath));
    }
    std::vector<Objective> objectives;
    if (!objectivesPath.empty()) {
      objectives = parseObjectives(readFile(objectivesPath));
    }

    Simulator before(tree);
    std::cout << "routers: " << tree.routers().size()
              << ", policies: " << policies.size()
              << " (violated now: " << before.violations(policies).size()
              << "), objectives: " << objectives.size() << "\n";

    std::optional<ProgressReporter> reporter;
    if (progress) reporter.emplace();
    const AedResult result = synthesize(tree, policies, objectives, options);
    reporter.reset();
    if (!result.success) {
      std::cerr << "synthesis failed [" << errorCodeName(result.errorCode)
                << "]: " << result.error << "\n";
      for (const SubproblemReport& report : result.subproblems) {
        if (report.outcome == SubOutcome::kOk) continue;
        std::cerr << "  subproblem " << report.index << " ("
                  << report.destination
                  << "): " << subOutcomeName(report.outcome)
                  << (report.detail.empty() ? "" : " — " + report.detail)
                  << "\n";
      }
      if (solverStats) printSolverStats(result);
      return 2;
    }
    if (result.degraded) {
      std::cout << "note: partial/degraded result; per-subproblem outcomes:\n";
      for (const SubproblemReport& report : result.subproblems) {
        std::cout << "  subproblem " << report.index << " ("
                  << report.destination << ", " << report.policyCount
                  << " policies): " << subOutcomeName(report.outcome)
                  << (report.detail.empty() ? "" : " — " + report.detail)
                  << "\n";
      }
    }

    std::cout << "\npatch (" << result.patch.size() << " edits, "
              << result.stats.totalSeconds << "s, "
              << result.stats.subproblems << " subproblems):\n"
              << result.patch.describe();
    const auto printPhases = [](const char* label, const PhaseBreakdown& p) {
      std::cout << "  " << label << ": sketch " << p.sketchSeconds
                << "s, encode " << p.encodeSeconds << "s, solve "
                << p.solveSeconds << "s, extract " << p.extractSeconds
                << "s, simulate " << p.simulateSeconds << "s (total "
                << p.total() << "s)\n";
    };
    if (solverStats) printSolverStats(result);
    std::cout << "phase breakdown:\n";
    printPhases("first round", result.stats.firstRound);
    if (result.stats.repairRounds > 0) {
      std::cout << "  repair rounds: " << result.stats.repairRounds
                << ", warm-start re-solves: " << result.stats.warmStartSolves
                << "\n";
      printPhases("repair", result.stats.repair);
    }
    const SimCacheStats& sim = result.stats.simulate;
    if (sim.routeHits + sim.routeMisses > 0) {
      std::cout << "simulate cache: " << sim.routeHits << " hits / "
                << sim.routeMisses << " misses ("
                << static_cast<int>(sim.hitRate() * 100.0) << "% hit rate)\n";
    }
    if (options.stagedDeployment && !result.deployment.empty()) {
      std::cout << "\n" << result.deployment.describe();
      if (result.deployment.aborted) {
        std::cout << "deployment aborted; network left at the last committed "
                     "consistent state\n";
      }
    }
    const DiffStats diff = diffNetworks(tree, result.updated);
    std::cout << "\ndevices changed: " << diff.devicesChanged << "/"
              << diff.totalDevices << ", lines changed: "
              << diff.linesChanged() << "\n";
    if (!objectives.empty()) {
      std::cout << "objectives satisfied:\n";
      for (const std::string& label : result.satisfiedObjectives) {
        std::cout << "  + " << label << "\n";
      }
      for (const std::string& label : result.violatedObjectives) {
        std::cout << "  - " << label << " (violated)\n";
      }
    }
    if (!outPath.empty()) {
      std::ofstream out(outPath);
      if (!out) throw AedError("cannot write file: " + outPath);
      out << printNetworkConfig(result.updated);
      std::cout << "updated configurations written to " << outPath << "\n";
    }
    return result.degraded ? 3 : 0;
  } catch (const AedError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
