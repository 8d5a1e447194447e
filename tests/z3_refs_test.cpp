// Z3 reference accounting: no AST reference the engine takes outlives the
// Z3 context it belongs to.
//
// This binary defines Z3_mk_context_rc, Z3_inc_ref, Z3_dec_ref and
// Z3_del_context itself. The engine libraries are static, so their calls
// bind to these definitions at link time; each one counts references per
// context under a mutex and forwards to libz3 through dlsym(RTLD_NEXT). A
// reference still counted when its context is deleted was leaked, and
// Z3_del_context has to sweep every leaked node, which makes freeing a
// context slow (see smt/session.hpp).

#include <dlfcn.h>
#include <gtest/gtest.h>
#include <z3++.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/scenario.hpp"
#include "conftree/parser.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "gen/policygen.hpp"
#include "objectives/objective.hpp"
#include "simulate/simulator.hpp"
#include "smt/session.hpp"

namespace {

struct RefLedger {
  std::mutex mutex;
  /// Caller-held AST references of every live context.
  std::unordered_map<Z3_context, long long> live;
  /// References still held when each context was deleted, in order.
  std::vector<long long> heldAtDelete;
  int created = 0;
};

// Never destroyed: Z3 calls may outlive static destructors.
RefLedger& ledger() {
  static RefLedger* instance = new RefLedger;
  return *instance;
}

template <typename Fn>
Fn libz3(const char* name) {
  void* symbol = dlsym(RTLD_NEXT, name);
  if (symbol == nullptr) std::abort();
  return reinterpret_cast<Fn>(symbol);
}

void countRef(Z3_context c, long long delta) {
  RefLedger& l = ledger();
  const std::lock_guard<std::mutex> lock(l.mutex);
  l.live[c] += delta;
}

}  // namespace

extern "C" {

Z3_context Z3_API Z3_mk_context_rc(Z3_config config) {
  static const auto next =
      libz3<Z3_context (*)(Z3_config)>("Z3_mk_context_rc");
  const Z3_context c = next(config);
  RefLedger& l = ledger();
  const std::lock_guard<std::mutex> lock(l.mutex);
  l.live[c] = 0;
  ++l.created;
  return c;
}

void Z3_API Z3_inc_ref(Z3_context c, Z3_ast a) {
  static const auto next = libz3<void (*)(Z3_context, Z3_ast)>("Z3_inc_ref");
  countRef(c, 1);
  next(c, a);
}

void Z3_API Z3_dec_ref(Z3_context c, Z3_ast a) {
  static const auto next = libz3<void (*)(Z3_context, Z3_ast)>("Z3_dec_ref");
  countRef(c, -1);
  next(c, a);
}

void Z3_API Z3_del_context(Z3_context c) {
  static const auto next = libz3<void (*)(Z3_context)>("Z3_del_context");
  {
    RefLedger& l = ledger();
    const std::lock_guard<std::mutex> lock(l.mutex);
    l.heldAtDelete.push_back(l.live[c]);
    l.live.erase(c);
  }
  next(c);
}

}  // extern "C"

namespace aed {
namespace {

struct Tally {
  int created = 0;
  std::vector<long long> heldAtDelete;
};

/// Returns what happened since the last call and starts a new tally.
Tally takeTally() {
  RefLedger& l = ledger();
  const std::lock_guard<std::mutex> lock(l.mutex);
  Tally tally{l.created, std::move(l.heldAtDelete)};
  l.created = 0;
  l.heldAtDelete.clear();
  return tally;
}

long long liveRefs(Z3_context c) {
  RefLedger& l = ledger();
  const std::lock_guard<std::mutex> lock(l.mutex);
  return l.live.at(c);
}

TEST(Z3Refs, MoveAssignmentLeaksInThisZ3) {
  takeTally();
  {
    z3::context ctx;
    const z3::expr x = ctx.bool_const("x");
    z3::expr e = ctx.bool_const("e");
    e = e || x;  // the moved-in temporary replaces `e` without a dec_ref
  }
  {
    z3::context ctx;
    const z3::expr x = ctx.bool_const("x");
    z3::expr e = ctx.bool_const("e");
    const z3::expr next = e || x;
    e = next;  // copy assignment releases what it replaces
  }
  const Tally tally = takeTally();
  EXPECT_EQ(tally.created, 2);
  EXPECT_EQ(tally.heldAtDelete, (std::vector<long long>{1, 0}));
}

TEST(Z3Refs, ReassignReleasesWithTheSession) {
  takeTally();
  {
    SmtSession session;
    const z3::expr x = session.boolVar("x");
    z3::expr acc = session.boolVal(false);
    const Z3_context c = acc.ctx();
    for (int i = 0; i < 4; ++i) {
      const long long before = liveRefs(c);
      session.reassign(acc, acc || x);
      // The slot holds the new value and the session keeps the old one.
      EXPECT_EQ(liveRefs(c), before + 1) << "reassignment " << i;
    }
  }
  const Tally tally = takeTally();
  EXPECT_EQ(tally.created, 1);
  EXPECT_EQ(tally.heldAtDelete, (std::vector<long long>{0}));
}

/// Runs synthesize() and expects every Z3 context it created to be deleted
/// before it returns, with no reference outstanding. An input that violates
/// a policy must be solved, so at least one context must go through the
/// ledger; one that meets them all may build none.
void expectNoReferenceOutlivesItsContext(
    const std::string& label, const ConfigTree& tree,
    const PolicySet& policies, const std::vector<Objective>& objectives,
    const AedOptions& options) {
  SCOPED_TRACE(label);
  const bool inputViolates = !Simulator(tree).violations(policies).empty();
  takeTally();
  synthesize(tree, policies, objectives, options);
  const Tally tally = takeTally();
  if (inputViolates) {
    EXPECT_GT(tally.created, 0) << "no Z3 context went through the ledger";
  }
  EXPECT_EQ(tally.heldAtDelete.size(),
            static_cast<std::size_t>(tally.created))
      << "contexts created vs. deleted";
  for (std::size_t i = 0; i < tally.heldAtDelete.size(); ++i) {
    EXPECT_EQ(tally.heldAtDelete[i], 0)
        << "context " << i << " was deleted with references outstanding";
  }
}

TEST(Z3Refs, SynthesizeReleasesEveryReference) {
  // Generated scenarios: reachability, waypoint and path-preference
  // policies over datacenter and zoo networks, some with repair rounds.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const check::Scenario scenario = check::makeScenario(seed);
    expectNoReferenceOutlivesItsContext(
        "smoke seed " + std::to_string(seed) + ": " + scenario.label,
        scenario.tree, scenario.policies, {}, scenario.options());
  }

  // What the generator does not produce. An isolation policy.
  {
    const ConfigTree tree = parseNetworkConfig(testing::figure1ConfigText());
    const PolicySet policies = {
        Policy::isolation(testing::cls("2.0.0.0/16", "1.0.0.0/16"),
                          testing::cls("4.0.0.0/16", "1.0.0.0/16")),
        Policy::reachability(testing::cls("2.0.0.0/16", "1.0.0.0/16")),
        Policy::reachability(testing::cls("4.0.0.0/16", "1.0.0.0/16"))};
    expectNoReferenceOutlivesItsContext("isolation", tree, policies, {}, {});
  }
  // LP/MED deltas (a BGP MED retune) and OSPF cost deltas.
  {
    const PolicySet policies = {Policy::pathPreference(
        testing::cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "Y", "T"},
        {"S", "X", "T"})};
    AedOptions options;
    options.sketch.allowStaticRoutes = false;
    options.sketch.allowPacketFilterChanges = false;
    expectNoReferenceOutlivesItsContext(
        "med diamond", parseNetworkConfig(testing::medDiamondConfigText()),
        policies, {}, options);
    options.sketch.allowRouteFilterChanges = false;
    expectNoReferenceOutlivesItsContext(
        "ospf cost diamond",
        parseNetworkConfig(testing::ospfDiamondConfigText()), policies, {},
        options);
  }
  // The eliminate, equate and no-modify objectives over a datacenter whose
  // racks and aggregation routers share filter templates.
  {
    DcParams params;
    params.racks = 3;
    params.aggs = 2;
    params.spines = 1;
    params.blockedPairFraction = 0.5;
    params.seed = 7;
    const GeneratedNetwork net = generateDatacenter(params);
    PolicyUpdate update = makeReachabilityUpdate(net.tree, 2, 7);
    PolicySet policies = std::move(update.base);
    policies.insert(policies.end(), update.added.begin(), update.added.end());
    const std::vector<Objective> objectives = parseObjectives(
        "EQUATE //PacketFilter GROUPBY name\n"
        "EQUATE //RouteFilter GROUPBY name\n"
        "ELIMINATE //PacketFilter GROUPBY name\n"
        "ELIMINATE //RoutingProcess[type=\"static\"]/Origination GROUPBY "
        "prefix\n"
        "NOMODIFY //Router GROUPBY name\n");
    expectNoReferenceOutlivesItsContext("objectives", net.tree, policies,
                                        objectives, {});
  }
  // Mixed protocols: B redistributes BGP into OSPF, and C's static route to
  // A's hosts goes via B, the same neighbor a synthesized static route
  // would use. ELIMINATE asks for that route's removal.
  {
    const ConfigTree tree = parseNetworkConfig(
        "hostname A\n"
        "interface hosts\n"
        " ip address 1.0.0.1/16\n"
        "interface toB\n"
        " ip address 10.0.1.1/30\n"
        "router bgp 65001\n"
        " neighbor 10.0.1.2 remote-router B\n"
        " network 1.0.0.0/16\n"
        "hostname B\n"
        "interface toA\n"
        " ip address 10.0.1.2/30\n"
        "interface toC\n"
        " ip address 10.0.2.1/30\n"
        "router bgp 65002\n"
        " neighbor 10.0.1.1 remote-router A filter-in rf\n"
        " route-filter rf seq 10 permit any set local-preference 150\n"
        "router ospf 10\n"
        " neighbor 10.0.2.2 remote-router C\n"
        " redistribute bgp\n"
        "hostname C\n"
        "interface hosts\n"
        " ip address 3.0.0.1/16\n"
        "interface toB\n"
        " ip address 10.0.2.2/30\n"
        "router ospf 10\n"
        " neighbor 10.0.2.1 remote-router B\n"
        "router static main\n"
        " route 1.0.0.0/16 10.0.2.1\n");
    const PolicySet policies = {
        Policy::reachability(testing::cls("3.0.0.0/16", "1.0.0.0/16")),
        Policy::reachability(testing::cls("1.0.0.0/16", "3.0.0.0/16"))};
    const std::vector<Objective> objectives = parseObjectives(
        "ELIMINATE //RoutingProcess[type=\"static\"]/Origination GROUPBY "
        "prefix\n");
    expectNoReferenceOutlivesItsContext("mixed protocols", tree, policies,
                                        objectives, {});
  }
  // EQUATE over clones that differ: only R's filter has a rule for the
  // blocked class.
  {
    const ConfigTree tree = parseNetworkConfig(
        "hostname L\n"
        "interface hosts\n"
        " ip address 1.0.0.1/16\n"
        "interface toR\n"
        " ip address 10.0.1.1/30\n"
        " packet-filter-in pf\n"
        "router bgp 65001\n"
        " neighbor 10.0.1.2 remote-router R\n"
        " network 1.0.0.0/16\n"
        "packet-filter pf seq 100 permit any any\n"
        "hostname R\n"
        "interface hosts\n"
        " ip address 2.0.0.1/16\n"
        "interface toL\n"
        " ip address 10.0.1.2/30\n"
        " packet-filter-in pf\n"
        "router bgp 65002\n"
        " neighbor 10.0.1.1 remote-router L\n"
        " network 2.0.0.0/16\n"
        "packet-filter pf seq 50 permit 1.0.0.0/16 2.0.0.0/16\n"
        "packet-filter pf seq 100 permit any any\n");
    const PolicySet policies = {
        Policy::blocking(testing::cls("1.0.0.0/16", "2.0.0.0/16"))};
    AedOptions options;
    options.sketch.allowRouteFilterChanges = false;
    options.sketch.allowOriginationChanges = false;
    expectNoReferenceOutlivesItsContext(
        "unequal clones", tree, policies,
        parseObjectives("EQUATE //PacketFilter GROUPBY name"), options);
  }
  // An injected unknown: the search stops early and the degraded rungs run
  // for real.
  {
    const ConfigTree tree = parseNetworkConfig(testing::figure1ConfigText());
    const PolicySet policies = {testing::figure1P1(), testing::figure1P2(),
                                testing::figure1P3()};
    AedOptions options;
    options.faultInjection.kind = FaultInjection::Kind::kUnknown;
    expectNoReferenceOutlivesItsContext(
        "degradation ladder", tree, policies,
        parseObjectives("NOMODIFY //Router[name=\"A\"]"), options);
  }
  // Two forced repair rounds: blocked-delta clauses pushed into live solvers.
  {
    DcParams params;
    params.racks = 3;
    params.aggs = 1;
    params.spines = 0;
    params.blockedPairFraction = 0.0;
    params.seed = 29;
    GeneratedNetwork net = generateDatacenter(params);
    const PolicySet policies = makeWithdrawnSubnetUpdate(net, "rack0");
    AedOptions options;
    options.maxRepairIterations = 5;
    options.faultInjection.kind = FaultInjection::Kind::kRejectValidation;
    options.faultInjection.rejectRounds = 2;
    expectNoReferenceOutlivesItsContext("rejected validation", net.tree,
                                        policies, {}, options);
  }
}

}  // namespace
}  // namespace aed
