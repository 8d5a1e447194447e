#include "check/fuzz.hpp"

#include <bit>
#include <chrono>
#include <sstream>

#include "check/repro.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace aed::check {

std::string FuzzReport::toJson() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"seedStart\": " << seedStart << ",\n";
  out << "  \"seedsRun\": " << seedsRun << ",\n";
  out << "  \"invariantChecks\": " << invariantChecks << ",\n";
  out << "  \"skippedChecks\": " << skippedChecks << ",\n";
  out << "  \"synthesized\": " << synthesized << ",\n";
  out << "  \"unsatScenarios\": " << unsatScenarios << ",\n";
  out << "  \"seconds\": " << seconds << ",\n";
  out << "  \"budgetExhausted\": " << (budgetExhausted ? "true" : "false")
      << ",\n";
  out << "  \"checksByInvariant\": {";
  bool first = true;
  for (const auto& [name, count] : checksByInvariant) {
    if (!first) out << ",";
    first = false;
    out << "\n    \"" << jsonEscape(name) << "\": " << count;
  }
  out << (checksByInvariant.empty() ? "" : "\n  ") << "},\n";
  out << "  \"failures\": [";
  first = true;
  for (const FuzzFailure& failure : failures) {
    if (!first) out << ",";
    first = false;
    out << "\n    {\n";
    out << "      \"seed\": " << failure.seed << ",\n";
    out << "      \"invariant\": \""
        << jsonEscape(invariantName(failure.failure.invariant)) << "\",\n";
    out << "      \"category\": \"" << jsonEscape(failure.failure.category)
        << "\",\n";
    out << "      \"detail\": \"" << jsonEscape(failure.failure.detail)
        << "\",\n";
    out << "      \"label\": \"" << jsonEscape(failure.minimized.label)
        << "\",\n";
    out << "      \"reproFile\": \"" << jsonEscape(failure.reproFile)
        << "\",\n";
    out << "      \"flightDumpFile\": \""
        << jsonEscape(failure.flightDumpFile) << "\",\n";
    // Pre-rendered JSON array; embedded verbatim (empty -> []).
    out << "      \"metrics\": "
        << (failure.metricsJson.empty() ? "[]" : failure.metricsJson)
        << ",\n";
    out << "      \"shrink\": {\n";
    out << "        \"attempts\": " << failure.shrinkStats.attempts << ",\n";
    out << "        \"accepted\": " << failure.shrinkStats.accepted << ",\n";
    out << "        \"routers\": [" << failure.shrinkStats.routersBefore
        << ", " << failure.shrinkStats.routersAfter << "],\n";
    out << "        \"policies\": [" << failure.shrinkStats.policiesBefore
        << ", " << failure.shrinkStats.policiesAfter << "],\n";
    out << "        \"edits\": [" << failure.shrinkStats.editsBefore << ", "
        << failure.shrinkStats.editsAfter << "]\n";
    out << "      }\n";
    out << "    }";
  }
  out << (failures.empty() ? "" : "\n  ") << "],\n";
  out << "  \"metrics\": " << (metricsJson.empty() ? "[]" : metricsJson)
      << "\n";
  out << "}\n";
  return out.str();
}

FuzzReport runFuzz(const FuzzOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  const auto elapsed = [&]() {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto emit = [&](std::uint64_t seed, const std::string& message) {
    if (options.onEvent) options.onEvent(seed, message);
  };

  FuzzReport report;
  report.seedStart = options.seedStart;

  for (std::uint64_t i = 0; i < options.seedCount; ++i) {
    if (options.budgetSeconds > 0.0 && elapsed() >= options.budgetSeconds) {
      report.budgetExhausted = true;
      break;
    }
    const std::uint64_t seed = options.seedStart + i;

    Scenario scenario = makeScenario(seed, options.profile);
    scenario.fault = options.inject;

    InvariantMask selected = options.invariants;
    // The expensive further-solve invariants run on a deterministic subset
    // of the sweep (every Nth scenario), so a given seed always gets the
    // same treatment within a given sweep shape.
    const bool expensiveTurn =
        options.expensiveEvery != 0 && i % options.expensiveEvery == 0;
    if (!expensiveTurn) selected &= kCheapInvariants;

    const CheckOutcome outcome = checkScenario(scenario, selected);

    ++report.seedsRun;
    report.invariantChecks +=
        static_cast<std::size_t>(std::popcount(outcome.checked));
    report.skippedChecks +=
        static_cast<std::size_t>(std::popcount(outcome.skipped));
    if (outcome.synthesized) ++report.synthesized;
    if (outcome.note == "unsat") ++report.unsatScenarios;
    for (const std::string& reason : outcome.skipReasons) {
      emit(seed, "skipped " + reason);
    }
    for (const Invariant inv : allInvariants()) {
      if (outcome.checked & mask(inv)) {
        ++report.checksByInvariant[invariantName(inv)];
      }
    }
    if (outcome.passed()) continue;

    const InvariantFailure& first = outcome.failures.front();
    emit(seed, "FAIL " + std::string(invariantName(first.invariant)) + " (" +
                   first.category + "): " + first.detail);

    FuzzFailure record;
    record.seed = seed;
    // Snapshot the registry and render a flight dump right after the failing
    // check, while the rings still hold that scenario's spans and log tail.
    record.metricsJson =
        metricsToJsonArray(MetricsRegistry::global().snapshot());
    {
      FlightRecorder::DumpContext ctx;
      ctx.reason = "fuzz-failure";
      ctx.errorCode = std::string(invariantName(first.invariant));
      ctx.detail = first.category + ": " + first.detail;
      ctx.sections.emplace_back("seed", std::to_string(seed));
      record.flightDump = FlightRecorder::renderDump(ctx);
    }
    if (options.shrink) {
      ShrinkResult shrunk =
          shrinkScenario(scenario, first, options.shrinkOptions);
      emit(seed, "shrunk to " +
                     std::to_string(shrunk.stats.routersAfter) + " routers, " +
                     std::to_string(shrunk.stats.policiesAfter) +
                     " policies (" + std::to_string(shrunk.stats.attempts) +
                     " attempts)");
      record.failure = shrunk.failure;
      record.shrinkStats = shrunk.stats;
      record.minimized = std::move(shrunk.minimized);
    } else {
      record.failure = first;
      record.minimized = scenario.clone();
    }
    record.repro =
        writeRepro(record.minimized, selected, {record.failure});
    report.failures.push_back(std::move(record));
  }

  report.seconds = elapsed();
  report.metricsJson =
      metricsToJsonArray(MetricsRegistry::global().snapshot());
  return report;
}

}  // namespace aed::check
