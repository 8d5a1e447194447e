// AED update benchmark: replays a seeded stream of configuration-update
// requests against aed::synthesize() and reports what an operator waiting
// on each update sees.
//
// The stream is a closed loop with one client: the next request is sent only
// after the previous synthesize() call has returned. The unit of work is one
// call, timed from entry to return, so solver teardown counts. Every answer
// is checked outside the timed region: a satisfiable request must succeed,
// not degrade, and its patch must pass the serial Simulator oracle; an
// unsat-by-construction request must be answered ErrorCode::kUnsat.
//
// Workloads (README.md in this directory says why each was chosen):
//   dc-reach       leaf-spine fabrics (mostly dc8, some dc12, a few dc16),
//                  4 added reachability policies on the inferred base,
//                  min-devices objective
//   zoo-wan        Waxman WANs zoo16-zoo18, 8 base + 8 added reachability
//                  policies, min-devices objective
//   repair-deploy  dc4-dc8 fabrics with two rack subnets withdrawn, two
//                  forced repair rounds, staged deployment; every fourth
//                  request is unsat by construction
//
// Modes:
//   --trace 0   end-to-end metrics, tracing off
//   --trace 1   per-layer metrics: each request is called untraced, called
//               traced, and its round 0 replayed serially through the layers'
//               public entry points inside the benchmark's own spans
//   --inputs    print a digest of each request's printed configs and
//               policies (input-determinism check)
//   --patches   solve each request once and print its patch churn
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apply/deploy.hpp"
#include "apply/plan.hpp"
#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "core/subsolver.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/objective.hpp"
#include "obs/trace.hpp"
#include "simulate/engine.hpp"
#include "simulate/simulator.hpp"
#include "topology/topology.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace {

using namespace aed;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// ---- requests --------------------------------------------------------------

struct Request {
  std::string label;  // shape and index, e.g. "dc8#3"
  std::string configText;
  ConfigTree tree;    // parsed back from configText
  PolicySet policies;
  std::vector<Objective> objectives;
  AedOptions options;
  bool expectUnsat = false;
  double parseSeconds = 0.0;
};

/// Seed of request `index` in the stream of run seed `seed`.
std::uint64_t requestSeed(std::uint64_t seed, std::size_t index) {
  std::uint64_t state = seed * 0x100000001B3ULL + index;
  return splitmix64(state);
}

/// Leaf-spine shape for a router count, as the Fig. 11a benches build it.
DcParams dcShape(int routers, double blockedPairFraction,
                 std::uint64_t seed) {
  DcParams params;
  params.aggs = std::max(1, routers / 4);
  params.spines = routers >= 8 ? std::max(1, routers / 8) : 0;
  params.racks = routers - params.aggs - params.spines;
  params.blockedPairFraction = blockedPairFraction;
  params.seed = seed;
  return params;
}

/// Prints the generated configs and parses them back: the engine only ever
/// sees what an operator's config files would hold.
void loadConfigs(Request& request, const ConfigTree& generated) {
  request.configText = printNetworkConfig(generated);
  const auto start = Clock::now();
  request.tree = parseNetworkConfig(request.configText);
  request.parseSeconds = secondsSince(start);
}

/// The inferred base (subsampled to `baseLimit` when >= 0) plus `addCount`
/// currently blocked pairs made reachable. A network with fewer blocked
/// pairs is not an update.
std::optional<PolicySet> addReachability(const ConfigTree& tree, int addCount,
                                         std::uint64_t seed, int baseLimit) {
  PolicyUpdate update =
      makeReachabilityUpdate(tree, addCount, seed ^ 0x5eed, baseLimit);
  if (update.added.size() != static_cast<std::size_t>(addCount)) {
    return std::nullopt;
  }
  update.base.insert(update.base.end(), update.added.begin(),
                     update.added.end());
  return update.base;
}

// One pass of dc-reach: mostly dc8, some dc12, a few dc16.
constexpr int kDcReachSizes[] = {8, 8, 12, 8, 8, 8, 16, 8, 12, 8, 8, 8};

/// Draws networks from `seed` on until one admits `addCount` added
/// reachability policies.
template <typename Generate>
Request reachabilityRequest(std::string label, std::uint64_t seed,
                            int addCount, int baseLimit, Generate generate) {
  Request request;
  request.label = std::move(label);
  for (std::uint64_t state = seed;; seed = splitmix64(state)) {
    loadConfigs(request, generate(seed));
    if (auto policies =
            addReachability(request.tree, addCount, seed, baseLimit)) {
      request.policies = std::move(*policies);
      break;
    }
  }
  request.objectives = objectivesMinDevices();
  return request;
}

Request makeDcReach(std::size_t index, std::uint64_t runSeed) {
  const std::uint64_t seed = requestSeed(runSeed, index);
  const int routers = kDcReachSizes[index % std::size(kDcReachSizes)];
  return reachabilityRequest(
      "dc" + std::to_string(routers) + "#" + std::to_string(index), seed, 4,
      -1, [routers](std::uint64_t s) {
        return generateDatacenter(dcShape(routers, 0.4, s)).tree;
      });
}

// zoo-wan draws its networks from a fixed pool of 120 screened instances
// (40 each of zoo16, zoo17, zoo18), not from fresh seeds. Z3 4.8.12
// mishandles a small share of these MaxSMT problems (one fresh zoo instance
// in about 200): its pseudo-boolean solver prints megabytes of internal
// validation output to stderr, the call takes ~10x longer, and so does
// every later call in the process. Every pool entry was run in a process of
// its own and behaves; README.md records the screening and a reproducer of
// the bad case.
//
// Each row lists one size class's entries in order of their solve time at
// screening (4-core machine). A run draws one entry from each fifth of a
// row, so every run has the same spread of easy and hard instances.
constexpr std::size_t kZooStrata = 5;
constexpr std::size_t kZooPerClass = 40;
constexpr std::size_t kZooByTime[3][kZooPerClass] = {
    {36, 39, 75, 6, 18, 48, 15, 102, 69, 78, 27, 72, 90, 66, 96, 117, 108, 105,
     33, 21, 12, 99, 45, 0, 3, 54, 24, 81, 42, 111, 93, 57, 114, 51, 63, 84,
     60, 30, 87, 9},
    {58, 46, 28, 112, 1, 22, 34, 52, 70, 100, 103, 115, 67, 94, 19, 64, 76, 61,
     37, 118, 16, 55, 91, 31, 82, 73, 106, 10, 85, 97, 49, 88, 40, 4, 25, 13,
     7, 43, 79, 109},
    {116, 65, 38, 26, 110, 32, 68, 5, 80, 113, 74, 11, 86, 104, 59, 62, 17, 98,
     23, 44, 20, 71, 77, 29, 119, 101, 2, 35, 107, 47, 83, 95, 56, 53, 92, 50,
     14, 89, 8, 41},
};

/// Pool entry for request `index` of run `seed`. Requests cycle through the
/// size classes, and through the strata starting at the middle one, so short
/// traced runs see typical instances first.
std::size_t zooPoolEntry(std::uint64_t seed, std::size_t index) {
  const std::size_t sizeClass = index % 3;
  const std::size_t stratum = (index / 3 + kZooStrata / 2) % kZooStrata;
  const std::size_t width = kZooPerClass / kZooStrata;
  Rng rng(requestSeed(seed, index));
  return kZooByTime[sizeClass][stratum * width + rng.below(width)];
}

Request makeZooWan(std::size_t index, std::uint64_t runSeed) {
  const std::size_t entry = zooPoolEntry(runSeed, index);
  const int routers = 16 + static_cast<int>(entry % 3);
  return reachabilityRequest(
      "zoo" + std::to_string(routers) + "#" + std::to_string(index) + "/p" +
          std::to_string(entry),
      requestSeed(0x200, entry), 8, 8, [routers](std::uint64_t s) {
        ZooParams params;
        params.routers = routers;
        params.seed = s;
        return generateZoo(params).tree;
      });
}

constexpr int kForcedRejections = 2;

Request makeRepairDeploy(std::size_t index, std::uint64_t runSeed) {
  const std::uint64_t seed = requestSeed(runSeed, index);
  const int routers = 4 + static_cast<int>(index % 5);
  // Which two racks lose their subnets, and how many irrelevant bogon rules
  // the rack filter template carries, come from the seed.
  Rng rng(seed);
  DcParams params = dcShape(routers, 0.0, seed);
  params.noiseRules = static_cast<int>(rng.below(8));
  GeneratedNetwork net = generateDatacenter(params);
  const auto racks = static_cast<std::uint64_t>(params.racks);
  const std::uint64_t first = rng.below(racks);
  const std::uint64_t second = (first + 1 + rng.below(racks - 1)) % racks;
  const std::string withdrawn = "rack" + std::to_string(first);
  Request request;
  // The first withdrawal infers the healthy network's policies; the second
  // only breaks the configuration further.
  request.policies = makeWithdrawnSubnetUpdate(net, withdrawn);
  makeWithdrawnSubnetUpdate(net, "rack" + std::to_string(second));
  // Every fourth request (starting with the second, so short traced runs
  // see one) is unsat by construction: it also demands that the class of
  // one reachability policy to a withdrawn subnet be blocked.
  request.expectUnsat = index % 4 == 1;
  if (request.expectUnsat) {
    const Ipv4Prefix subnet = net.hostSubnets.at(withdrawn);
    const auto target = std::find_if(
        request.policies.begin(), request.policies.end(),
        [&subnet](const Policy& p) {
          return p.kind == PolicyKind::kReachability && p.cls.dst == subnet;
        });
    if (target == request.policies.end()) {
      throw std::runtime_error("no reachability policy to " + subnet.str());
    }
    request.policies.push_back(Policy::blocking(target->cls));
  }
  request.label = "dc" + std::to_string(routers) +
                  (request.expectUnsat ? "-unsat#" : "#") +
                  std::to_string(index);
  loadConfigs(request, net.tree);
  request.options.maxRepairIterations = kForcedRejections + 3;
  request.options.faultInjection.kind =
      FaultInjection::Kind::kRejectValidation;
  request.options.faultInjection.rejectRounds = kForcedRejections;
  request.options.stagedDeployment = true;
  return request;
}

struct Workload {
  const char* name;
  // Distinct requests generated per run: one pass over them takes about
  // 25 s on a 4-core machine.
  std::size_t passLength;
  Request (*make)(std::size_t index, std::uint64_t runSeed);
};

constexpr Workload kWorkloads[] = {
    {"dc-reach", 24, makeDcReach},
    {"zoo-wan", 15, makeZooWan},
    {"repair-deploy", 120, makeRepairDeploy},
};

std::vector<Request> makeRequests(const Workload& workload,
                                  std::uint64_t seed, std::size_t workers,
                                  std::size_t count) {
  std::vector<Request> requests;
  requests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back(workload.make(i, seed));
    requests.back().options.workers = workers;
  }
  return requests;
}

// ---- one checked call -------------------------------------------------------

struct Call {
  double wall = 0.0;  // synthesize() entry to return
  bool correct = false;
  std::string why;    // set when !correct
  AedResult result;
  int patchLines = 0;
  int patchDevices = 0;
  double oracleSeconds = 0.0;
  double diffSeconds = 0.0;
};

/// The correctness gate, outside the timed region.
void check(const Request& request, Call& call) {
  const AedResult& r = call.result;
  if (request.expectUnsat) {
    call.correct = !r.success && r.errorCode == ErrorCode::kUnsat;
    if (!call.correct) {
      call.why = std::string("expected unsat, got ") +
                 (r.success ? "success" : errorCodeName(r.errorCode));
    }
    return;
  }
  if (!r.success) {
    call.why = "failed: " + r.error;
    return;
  }
  if (r.degraded) {
    call.why = "degraded";
    return;
  }
  auto start = Clock::now();
  const ConfigTree patched = r.patch.applied(request.tree);
  const Simulator oracle(patched);
  const PolicySet violated = oracle.violations(request.policies);
  call.oracleSeconds = secondsSince(start);
  if (!violated.empty()) {
    call.why = "oracle rejects the patch: " + violated.front().str();
    return;
  }
  start = Clock::now();
  const DiffStats diff = diffNetworks(request.tree, patched);
  call.diffSeconds = secondsSince(start);
  call.patchLines = diff.linesChanged();
  call.patchDevices = diff.devicesChanged;
  call.correct = true;
}

Call runCall(const std::vector<Request>& requests, std::size_t index) {
  const Request& request = requests[index];
  Call call;
  const auto start = Clock::now();
  call.result = synthesize(request.tree, request.policies, request.objectives,
                           request.options);
  call.wall = secondsSince(start);
  check(request, call);
  if (!call.correct) {
    std::fprintf(stderr, "WRONG %s: %s\n", request.label.c_str(),
                 call.why.c_str());
  }
  return call;
}

// ---- statistics -------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The highest whole percentile that still has at least ten samples beyond
/// it (nearest rank). With ten samples or fewer there is none; the median
/// stands in and `percentile` reads 50.
struct Tail {
  double value = 0.0;
  int percentile = 50;
  std::size_t samples = 0;
};

Tail tail(std::vector<double> values) {
  Tail t;
  t.samples = values.size();
  if (values.size() <= 10) {
    t.value = median(values);
    return t;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  t.percentile = static_cast<int>(100 * (n - 10) / n);
  std::size_t rank = (static_cast<std::size_t>(t.percentile) * n + 99) / 100;
  rank = std::max<std::size_t>(rank, 1);
  t.value = values[rank - 1];
  return t;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void printMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

// ---- set-up -------------------------------------------------------------

constexpr int kSetupRepeats = 5;

struct Setup {
  std::vector<Request> requests;
  double seconds = 0.0;  // median over kSetupRepeats
};

/// Builds the run's requests and makes one untimed warm-up call, several
/// times over; the median of those times is setup_s. The warm-up request is
/// the same in every run (the first request of seed 0), so setup_s does not
/// swing with how hard the seed's own first request happens to be.
Setup setUp(const Workload& workload, std::uint64_t seed,
            std::size_t workers) {
  Setup setup;
  std::vector<double> times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const auto start = Clock::now();
    setup.requests =
        makeRequests(workload, seed, workers, workload.passLength);
    const Call warmup = runCall(makeRequests(workload, 0, workers, 1), 0);
    times.push_back(secondsSince(start));
    if (!warmup.correct) {
      std::fprintf(stderr, "warm-up call was wrong\n");
      std::exit(2);
    }
  }
  setup.seconds = median(times);
  return setup;
}

// ---- end-to-end run ---------------------------------------------------------

/// Patch churn is summed over the first pass only, so each distinct
/// satisfiable request counts once however many passes fit.
struct StreamSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<double> walls;
  std::size_t satisfiable = 0;  // correct satisfiable calls of pass 0
  double patchLines = 0.0;
  double patchDevices = 0.0;
  double objectivesViolated = 0.0;

  void add(const Request& request, const Call& call, bool firstPass) {
    ++attempted;
    if (!call.correct) ++failed;
    walls.push_back(call.wall);
    if (!firstPass || request.expectUnsat || !call.correct) return;
    ++satisfiable;
    patchLines += call.patchLines;
    patchDevices += call.patchDevices;
    objectivesViolated +=
        static_cast<double>(call.result.violatedObjectives.size());
  }
  double perUpdate(double total) const {
    return satisfiable == 0 ? 0.0 : total / static_cast<double>(satisfiable);
  }
};

int runEndToEnd(const Workload& workload, std::uint64_t seed, double seconds,
                std::size_t workers) {
  const Setup setup = setUp(workload, seed, workers);
  const std::vector<Request>& requests = setup.requests;

  // Whole passes over the request set, so every run measures the same mix
  // whatever the machine's speed.
  StreamSummary summary;
  std::size_t passes = 0;
  const auto start = Clock::now();
  do {
    for (std::size_t index = 0; index < requests.size(); ++index) {
      summary.add(requests[index], runCall(requests, index), passes == 0);
    }
    ++passes;
  } while (secondsSince(start) < seconds);
  const double streamSeconds = secondsSince(start);

  // The tail is taken over the first pass only: its percentile depends on
  // the sample count, which must not change with how many passes fit.
  const Tail t = tail(std::vector<double>(
      summary.walls.begin(), summary.walls.begin() + requests.size()));
  const double failFrac =
      static_cast<double>(summary.failed) / static_cast<double>(summary.attempted);
  const std::vector<Metric> metrics = {
      {"update_p50_s", median(summary.walls), "s"},
      {"update_tail_s", t.value, "s"},
      {"updates_per_min", 60.0 * summary.walls.size() / streamSeconds, "1/min"},
      {"patch_lines", summary.perUpdate(summary.patchLines), "lines"},
      {"patch_devices", summary.perUpdate(summary.patchDevices), "devices"},
      {"setup_s", setup.seconds, "s"},
      {"peak_rss_mb", peakRssMb(), "MB"},
  };
  std::printf("workload %s seed %llu: closed loop, 1 client, workers=%zu, "
              "%zu distinct requests x %zu passes, %.1f s measured\n",
              workload.name, static_cast<unsigned long long>(seed), workers,
              requests.size(), passes, streamSeconds);
  printMetrics(metrics);
  std::printf("  %-28s %14.6f (p%d of %zu first-pass samples)\n",
              "update_tail_s", t.value, t.percentile, t.samples);
  std::printf("  %-28s %14.6f share (%zu wrong of %zu)\n", "fail_frac",
              failFrac, summary.failed, summary.attempted);
  std::printf("  %-28s %14.6f per satisfiable update\n", "objectives_violated",
              summary.perUpdate(summary.objectivesViolated));
  printResult(summary.failed == 0, summary.attempted, summary.failed, metrics);
  return 0;
}

// ---- traced run -------------------------------------------------------------

/// Per-layer accumulators, summed over the traced requests.
struct LayerTotals {
  std::map<std::string, double> sum;
  std::size_t requests = 0;
  std::size_t unsatCalls = 0;
  double unsatSeconds = 0.0;
  double callWall = 0.0;
  double statsSeconds = 0.0;
  double replayWall = 0.0;
  double replayCovered = 0.0;
  std::vector<double> untraced;
  std::vector<double> traced;

  void add(const std::string& key, double value) { sum[key] += value; }
};

/// Sums the benchmark's own spans by name, and the part of the replay span
/// its direct children cover.
void foldSpans(LayerTotals& totals) {
  const std::vector<TraceEvent> events = Tracer::collect();
  std::uint64_t replayId = 0;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "bench.replay") {
      replayId = e.id;
      totals.replayWall += static_cast<double>(e.durUs) * 1e-6;
    }
  }
  for (const TraceEvent& e : events) {
    const std::string name = e.name;
    if (name.rfind("bench.", 0) != 0 || name == "bench.replay") continue;
    totals.add(name, static_cast<double>(e.durUs) * 1e-6);
    if (replayId != 0 && e.parent == replayId) {
      totals.replayCovered += static_cast<double>(e.durUs) * 1e-6;
    }
  }
}

/// Round 0 of one request, serially, through the layers' public entry
/// points, each call inside a benchmark span.
void replayRound0(const Request& request, const AedResult& real,
                  LayerTotals& totals) {
  Span replay("bench.replay");
  std::optional<Topology> topo;
  {
    Span span("bench.topology.build");
    topo.emplace(Topology::fromConfigs(request.tree));
  }
  std::vector<PolicySet> groups;
  {
    Span span("bench.policy.partition");
    for (auto& [dst, set] : groupByDestination(request.policies)) {
      groups.push_back(std::move(set));
    }
  }
  // Mirror the engine: destination-scoped sketches when decomposed.
  AedOptions options = request.options;
  if (groups.size() > 1) options.sketch.destinationScoped = true;

  std::vector<std::unique_ptr<SubproblemSolver>> solvers;
  std::vector<Patch> patches;
  bool unsat = false;
  for (const PolicySet& group : groups) {
    {
      Span span("bench.core.subsolver_build");
      solvers.push_back(std::make_unique<SubproblemSolver>(
          request.tree, *topo, group, request.objectives, options));
    }
    SubResult sub;
    {
      Span span("bench.core.subsolver_solve");
      sub = solvers.back()->solve({}, Deadline::unlimited());
    }
    totals.add("sketch.s", sub.phases.sketchSeconds);
    totals.add("encode.s", sub.phases.encodeSeconds);
    totals.add("smt.check_s", sub.phases.solveSeconds);
    totals.add("encode.extract_s", sub.phases.extractSeconds);
    if (sub.outcome == SubOutcome::kUnsat) unsat = true;
    if (sub.sat) patches.push_back(std::move(sub.patch));
  }
  {
    Span span("bench.core.subsolver_free");
    solvers.clear();
  }
  if (unsat) return;
  std::optional<ConfigTree> updated;
  {
    Span span("bench.conftree.merge_apply");
    updated.emplace(mergePatches(patches).applied(request.tree));
  }
  {
    std::optional<SimulationEngine> engine;
    {
      Span span("bench.simulate.engine_build");
      engine.emplace(*updated, request.options.workers);
    }
    Span span("bench.simulate.violations");
    engine->violations(request.policies);
  }
  if (request.options.stagedDeployment && !real.patch.empty()) {
    DeployOptions deploy = request.options.deploy;
    deploy.workers = request.options.workers;
    DeploymentPlan plan;
    {
      Span span("bench.apply.plan");
      plan = planStagedRollout(request.tree, real.patch, request.policies,
                               deploy);
    }
    ConfigTree staged = request.tree.clone();
    Span span("bench.apply.execute");
    executeDeployment(staged, plan, deploy);
  }
}

/// Counts read from the real (untraced) call.
void foldStats(const Request& request, const Call& call, std::size_t workers,
               LayerTotals& totals) {
  const AedStats& s = call.result.stats;
  totals.callWall += call.wall;
  totals.statsSeconds += s.totalSeconds;
  totals.add("core.unaccounted_s", call.wall - s.totalSeconds);
  totals.add("core.critical_path_s", s.maxSubproblemSeconds);
  totals.add("core.subproblem_work_s", s.sumSubproblemSeconds);
  if (s.totalSeconds > 0.0) {
    totals.add("core.worker_util",
               s.sumSubproblemSeconds /
                   (static_cast<double>(workers) * s.totalSeconds));
  }
  totals.add("core.subproblems", static_cast<double>(s.subproblems));
  totals.add("core.repair_rounds", static_cast<double>(s.repairRounds));
  totals.add("core.warm_start_solves",
             static_cast<double>(s.warmStartSolves));
  totals.add("sketch.deltas", static_cast<double>(s.deltaCount));
  for (const SubproblemReport& sub : call.result.subproblems) {
    totals.add("encode.vars", static_cast<double>(sub.solverStats.vars));
    totals.add("encode.assertions",
               static_cast<double>(sub.solverStats.assertions));
    totals.add("smt.conflicts", static_cast<double>(sub.solverStats.conflicts));
    totals.add("smt.decisions", static_cast<double>(sub.solverStats.decisions));
  }
  const auto rung = [&s](SolveRung r) {
    return static_cast<double>(s.rungCounts[static_cast<std::size_t>(r)]);
  };
  totals.add("smt.rung.full", rung(SolveRung::kFull));
  totals.add("smt.rung.warm_start", rung(SolveRung::kWarmStart));
  totals.add("smt.rung.degraded",
             rung(SolveRung::kNoMinimality) + rung(SolveRung::kHardOnly));
  totals.add("smt.rung.unsat", rung(SolveRung::kUnsat));
  if (request.expectUnsat) {
    ++totals.unsatCalls;
    totals.unsatSeconds += call.wall;
  }
  totals.add("simulate.route_hits", static_cast<double>(s.simulate.routeHits));
  totals.add("simulate.route_misses",
             static_cast<double>(s.simulate.routeMisses));
  totals.add("simulate.oracle_s", call.oracleSeconds);
  const DeploymentPlan& plan = call.result.deployment;
  totals.add("apply.stages", static_cast<double>(plan.stages.size()));
  totals.add("apply.candidates_tried",
             static_cast<double>(plan.candidatesTried));
  totals.add("conftree.parse_s", request.parseSeconds);
  totals.add("conftree.diff_s", call.diffSeconds);
}

int runTraced(const Workload& workload, std::uint64_t seed, double seconds,
              std::size_t workers) {
  const Setup setup = setUp(workload, seed, workers);
  const std::vector<Request>& requests = setup.requests;

  LayerTotals totals;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  for (std::size_t i = 0; secondsSince(start) < seconds; ++i) {
    const std::size_t index = i % requests.size();
    const Request& request = requests[index];

    const Call untraced = runCall(requests, index);
    Tracer::clear();
    Tracer::enable();
    const Call traced = runCall(requests, index);
    replayRound0(request, traced.result, totals);
    Tracer::disable();
    foldSpans(totals);
    Tracer::clear();

    attempted += 2;
    failed += (untraced.correct ? 0 : 1) + (traced.correct ? 0 : 1);
    totals.untraced.push_back(untraced.wall);
    totals.traced.push_back(traced.wall);
    foldStats(request, untraced, workers, totals);
    ++totals.requests;
  }

  const double n = static_cast<double>(totals.requests);
  const auto mean = [&](const std::string& key) {
    const auto it = totals.sum.find(key);
    return it == totals.sum.end() ? 0.0 : it->second / n;
  };
  const double hits = mean("simulate.route_hits");
  const double misses = mean("simulate.route_misses");
  const std::vector<Metric> metrics = {
      {"core.unaccounted_s", mean("core.unaccounted_s"), "s"},
      {"core.stats_coverage", totals.statsSeconds / totals.callWall, "share"},
      {"core.subsolver_build_s", mean("bench.core.subsolver_build"), "s"},
      {"core.subsolver_solve_s", mean("bench.core.subsolver_solve"), "s"},
      {"core.subsolver_free_s", mean("bench.core.subsolver_free"), "s"},
      {"core.critical_path_s", mean("core.critical_path_s"), "s"},
      {"core.subproblem_work_s", mean("core.subproblem_work_s"), "s"},
      {"core.worker_util", mean("core.worker_util"), "share"},
      {"core.subproblems", mean("core.subproblems"), "count"},
      {"core.repair_rounds", mean("core.repair_rounds"), "count"},
      {"core.warm_start_solves", mean("core.warm_start_solves"), "count"},
      {"sketch.s", mean("sketch.s"), "s"},
      {"sketch.deltas", mean("sketch.deltas"), "count"},
      {"encode.s", mean("encode.s"), "s"},
      {"encode.vars", mean("encode.vars"), "count"},
      {"encode.assertions", mean("encode.assertions"), "count"},
      {"encode.extract_s", mean("encode.extract_s"), "s"},
      {"smt.check_s", mean("smt.check_s"), "s"},
      {"smt.conflicts", mean("smt.conflicts"), "count"},
      {"smt.decisions", mean("smt.decisions"), "count"},
      {"smt.rung.full", mean("smt.rung.full"), "count"},
      {"smt.rung.warm_start", mean("smt.rung.warm_start"), "count"},
      {"smt.rung.degraded", mean("smt.rung.degraded"), "count"},
      {"smt.rung.unsat", mean("smt.rung.unsat"), "count"},
      {"smt.unsat_verdict_s",
       totals.unsatCalls == 0
           ? 0.0
           : totals.unsatSeconds / static_cast<double>(totals.unsatCalls),
       "s"},
      {"simulate.validate_s",
       mean("bench.simulate.engine_build") + mean("bench.simulate.violations"),
       "s"},
      {"simulate.route_hits", hits, "count"},
      {"simulate.route_misses", misses, "count"},
      {"simulate.route_lookups", hits + misses, "count"},
      {"simulate.hit_ratio", hits + misses > 0.0 ? hits / (hits + misses) : 0.0,
       "share"},
      {"simulate.oracle_s", mean("simulate.oracle_s"), "s"},
      {"apply.plan_s", mean("bench.apply.plan"), "s"},
      {"apply.execute_s", mean("bench.apply.execute"), "s"},
      {"apply.stages", mean("apply.stages"), "count"},
      {"apply.candidates_tried", mean("apply.candidates_tried"), "count"},
      {"conftree.parse_s", mean("conftree.parse_s"), "s"},
      {"conftree.merge_apply_s", mean("bench.conftree.merge_apply"), "s"},
      {"conftree.diff_s", mean("conftree.diff_s"), "s"},
      {"topology.build_s", mean("bench.topology.build"), "s"},
      {"policy.partition_s", mean("bench.policy.partition"), "s"},
      {"trace.overhead_s", median(totals.traced) - median(totals.untraced),
       "s"},
      {"trace.layer_coverage", totals.replayCovered / totals.replayWall,
       "share"},
  };
  std::printf("workload %s seed %llu (traced): %zu requests, each called "
              "untraced, called traced and replayed; workers=%zu\n",
              workload.name, static_cast<unsigned long long>(seed),
              totals.requests, workers);
  printMetrics(metrics);
  std::printf("unaccounted time (%s): stats.totalSeconds covers %.1f%% of "
              "call wall time (%.3f s of %.3f s over %zu calls; the summed "
              "gap is %.3f s, core.unaccounted_s is its mean); the replay's "
              "layer spans cover %.1f%% of the serial replay (%.3f s of "
              "%.3f s)\n",
              workload.name, 100.0 * totals.statsSeconds / totals.callWall,
              totals.statsSeconds, totals.callWall, totals.requests,
              totals.callWall - totals.statsSeconds,
              100.0 * totals.replayCovered / totals.replayWall,
              totals.replayCovered, totals.replayWall);
  printResult(failed == 0, attempted, failed, metrics);
  return 0;
}

// ---- determinism helpers -----------------------------------------------------

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

int printInputs(const Workload& workload, std::uint64_t seed,
                std::size_t count, std::size_t workers) {
  for (const Request& r : makeRequests(workload, seed, workers, count)) {
    std::string policies;
    for (const Policy& p : r.policies) policies += p.str() + "\n";
    std::printf("%s configs=%016llx policies=%016llx n=%zu\n", r.label.c_str(),
                static_cast<unsigned long long>(fnv1a(r.configText)),
                static_cast<unsigned long long>(fnv1a(policies)),
                r.policies.size());
  }
  return 0;
}

int printPatches(const Workload& workload, std::uint64_t seed,
                 std::size_t count, std::size_t workers) {
  const std::vector<Request> requests =
      makeRequests(workload, seed, workers, count);
  bool allCorrect = true;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const Call call = runCall(requests, i);
    allCorrect = allCorrect && call.correct;
    std::printf("%s correct=%d patch_lines=%d patch_devices=%d\n",
                requests[i].label.c_str(), call.correct ? 1 : 0,
                call.patchLines, call.patchDevices);
  }
  return allCorrect ? 0 : 2;
}

// ---- command line ---------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: aed_perfbench --workload <dc-reach|zoo-wan|"
               "repair-deploy> --seed <n> [--seconds <s>] [--trace <0|1>]\n"
               "                     [--inputs | --patches] [--requests <n>]\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workloadName;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string mode = "run";
  std::size_t requestLimit = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool hasValue = i + 1 < argc;
    if (arg == "--workload" && hasValue) {
      workloadName = argv[++i];
    } else if (arg == "--seed" && hasValue) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && hasValue) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && hasValue) {
      trace = std::string(argv[++i]) == "1";
    } else if (arg == "--requests" && hasValue) {
      requestLimit = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--inputs" || arg == "--patches") {
      mode = arg.substr(2);
    } else {
      return usage();
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (workloadName == w.name) workload = &w;
  }
  if (workload == nullptr || seconds <= 0.0) return usage();

  setLogLevel(LogLevel::kError);  // forced repair rounds log warnings
  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t count =
      requestLimit != 0 ? requestLimit : workload->passLength;
  if (mode == "inputs") return printInputs(*workload, seed, count, workers);
  if (mode == "patches") return printPatches(*workload, seed, count, workers);
  return trace ? runTraced(*workload, seed, seconds, workers)
               : runEndToEnd(*workload, seed, seconds, workers);
}
