// Shared helpers for the evaluation benches.
//
// Every bench binary regenerates one table/figure of the paper's §9. The
// default scale is sized so the whole bench suite completes in tens of
// minutes on a small machine; setting AED_BENCH_FULL=1 switches to the
// paper's own scale (topology-zoo sizes 30-160, policy bases up to 256).
// EXPERIMENTS.md records the mapping and the measured numbers.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <string>

#include "conftree/diff.hpp"
#include "core/aed.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "simulate/simulator.hpp"

namespace aedbench {

inline bool fullScale() {
  const char* env = std::getenv("AED_BENCH_FULL");
  return env != nullptr && std::string(env) == "1";
}

/// Registers the bench file's cases; bench/main.cpp, the one main() of every
/// bench binary, calls it before running them.
void registerCases();

/// Datacenter preset: turns a target router count into a leaf-spine shape
/// mirroring the paper's 2-24 router datacenter networks.
inline aed::DcParams dcPreset(int routers, std::uint64_t seed) {
  aed::DcParams params;
  if (routers <= 2) {
    params.racks = 2;
    params.aggs = 0;
    params.spines = 0;
  } else {
    params.aggs = std::max(1, routers / 4);
    params.spines = routers >= 8 ? std::max(1, routers / 8) : 0;
    params.racks = routers - params.aggs - params.spines;
  }
  params.blockedPairFraction = 0.4;
  params.seed = seed;
  return params;
}

inline aed::PolicySet concat(const aed::PolicyUpdate& update) {
  aed::PolicySet all = update.base;
  all.insert(all.end(), update.added.begin(), update.added.end());
  return all;
}

/// Standard counters for change metrics.
inline void reportChurn(benchmark::State& state, const aed::ConfigTree& before,
                        const aed::ConfigTree& after) {
  const aed::DiffStats diff = aed::diffNetworks(before, after);
  state.counters["devicesPct"] = diff.devicesChangedPct();
  state.counters["linesPct"] = diff.linesChangedPct();
  state.counters["devices"] = diff.devicesChanged;
  state.counters["lines"] = diff.linesChanged();
}

/// Asserts (at bench time) that every policy holds after an update; a bench
/// that silently measured a broken update would be meaningless.
inline void requireCorrect(const aed::ConfigTree& updated,
                           const aed::PolicySet& policies,
                           benchmark::State& state) {
  aed::Simulator sim(updated);
  if (!sim.violations(policies).empty()) {
    state.SkipWithError("update failed validation");
  }
}

}  // namespace aedbench
