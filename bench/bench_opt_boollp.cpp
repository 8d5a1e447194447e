// §9.3 "Using boolean variables": the (2n+1) boolean local-preference
// encoding vs raw integer deltas.
//
// The paper's setup uses path-preference policies that can only be
// satisfied by changing local preferences (they set a higher lp on the
// wrong path so the policy forces an lp update). We scale that idea to a
// ladder: source S reaches T over k parallel two-hop paths, each import at
// S carrying a distinct configured lp, and the policies demand that the
// currently *least* preferred paths become primary. With n distinct lp
// values configured, the boolean encoding searches (2n+1) rank slots per
// change; the integer encoding searches a bounded-but-huge integer range.
//
// Run: ./build/bench/bench_opt_boollp

#include <string>

#include "common.hpp"
#include "conftree/parser.hpp"
#include "objectives/objective.hpp"

namespace {

using namespace aed;
using aedbench::requireCorrect;

// Builds the ladder: S --(mid_i)-- T for i in [0,k), one host subnet on S
// and `dsts` host subnets on T. S's import from mid_i is filtered with
// lp = 100 + 10*i.
std::string ladderConfig(int k, int dsts) {
  std::string s;
  // Router S.
  s += "hostname S\ninterface hosts\n ip address 1.0.0.1/16\n";
  for (int i = 0; i < k; ++i) {
    s += "interface to_m" + std::to_string(i) + "\n ip address 10.0." +
         std::to_string(i) + ".1/30\n";
  }
  s += "router bgp 65000\n";
  for (int i = 0; i < k; ++i) {
    s += " neighbor 10.0." + std::to_string(i) + ".2 remote-router m" +
         std::to_string(i) + " filter-in rf_m" + std::to_string(i) + "\n";
  }
  s += " network 1.0.0.0/16\n";
  for (int i = 0; i < k; ++i) {
    s += " route-filter rf_m" + std::to_string(i) +
         " seq 10 permit any set local-preference " +
         std::to_string(100 + 10 * i) + "\n";
  }
  // Middle routers.
  for (int i = 0; i < k; ++i) {
    const std::string m = std::to_string(i);
    s += "hostname m" + m + "\n";
    s += "interface to_S\n ip address 10.0." + m + ".2/30\n";
    s += "interface to_T\n ip address 10.1." + m + ".1/30\n";
    s += "router bgp 6510" + m + "\n";
    s += " neighbor 10.0." + m + ".1 remote-router S\n";
    s += " neighbor 10.1." + m + ".2 remote-router T\n";
  }
  // Router T with `dsts` host subnets.
  s += "hostname T\n";
  for (int d = 0; d < dsts; ++d) {
    s += "interface hosts" + std::to_string(d) + "\n ip address 2." +
         std::to_string(d) + ".0.1/16\n";
  }
  for (int i = 0; i < k; ++i) {
    s += "interface to_m" + std::to_string(i) + "\n ip address 10.1." +
         std::to_string(i) + ".2/30\n";
  }
  s += "router bgp 65999\n";
  for (int i = 0; i < k; ++i) {
    s += " neighbor 10.1." + std::to_string(i) + ".1 remote-router m" +
         std::to_string(i) + "\n";
  }
  for (int d = 0; d < dsts; ++d) {
    s += " network 2." + std::to_string(d) + ".0.0/16\n";
  }
  return s;
}

void lpCase(benchmark::State& state, bool booleanLp, int k, int dsts) {
  const ConfigTree tree = parseNetworkConfig(ladderConfig(k, dsts));
  // Currently the highest-lp path (via m_{k-1}) carries everything; demand
  // that destination d prefer the path via m_d (the d-th least preferred),
  // falling back to the path via m_{d+1}.
  PolicySet policies;
  for (int d = 0; d < dsts; ++d) {
    const TrafficClass cls{
        *Ipv4Prefix::parse("1.0.0.0/16"),
        *Ipv4Prefix::parse("2." + std::to_string(d) + ".0.0/16")};
    policies.push_back(Policy::pathPreference(
        cls, {"S", "m" + std::to_string(d), "T"},
        {"S", "m" + std::to_string(d + 1), "T"}));
  }

  AedOptions options;
  options.encoder.booleanLp = booleanLp;
  for (auto _ : state) {
    const AedResult r = synthesize(tree, policies, {}, options);
    if (!r.success) return state.SkipWithError(r.error.c_str());
    state.counters["toolSeconds"] = r.stats.totalSeconds;
    requireCorrect(r.updated, policies, state);
  }
}

}  // namespace

void aedbench::registerCases() {
  const int k = aedbench::fullScale() ? 8 : 6;
  const int dsts = aedbench::fullScale() ? 4 : 3;
  for (const bool booleanLp : {true, false}) {
    const std::string name =
        std::string("OptBoolLp/") + (booleanLp ? "boolean" : "integer") +
        "/k" + std::to_string(k);
    benchmark::RegisterBenchmark(
        name.c_str(),
        [booleanLp, k, dsts](benchmark::State& state) {
          lpCase(state, booleanLp, k, dsts);
        })
        ->Unit(benchmark::kSecond)
        ->Iterations(1);
  }
}
