// Model/simulator alignment sweeps.
//
// The entire system rests on one property: with every delta variable frozen
// to "no change", the SMT model admits exactly the behaviors the concrete
// simulator computes. If the encoder and the simulator ever disagree about
// route selection, filtering, or reachability, AED would emit patches that
// fail in deployment. These sweeps freeze the sketch on randomly generated
// networks and assert the model accepts all simulator-inferred policies
// (sat) and rejects their negations (unsat).

#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "encode/encoder.hpp"
#include "gen/netgen.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

// Freezes all deltas and checks whether the policies are consistent with
// the current configuration according to the SMT model.
bool frozenModelAccepts(const ConfigTree& tree, const PolicySet& policies) {
  const Topology topo = Topology::fromConfigs(tree);
  const Sketch sketch = buildSketch(tree, topo, policies);
  SmtSession session;
  Encoder encoder(session, tree, topo, sketch);
  encoder.encode(policies);
  for (const DeltaVar& delta : sketch.deltas()) {
    session.addHard(!encoder.deltaActive(delta));
  }
  return session.check().sat();
}

Policy negate(const Policy& policy) {
  return policy.kind == PolicyKind::kReachability
             ? Policy::blocking(policy.cls)
             : Policy::reachability(policy.cls);
}

class AlignmentSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AlignmentSweep, DatacenterInferredPoliciesAcceptedFrozen) {
  DcParams params;
  params.racks = 3 + static_cast<int>(GetParam() % 3);
  params.aggs = 2;
  params.spines = 1;
  params.blockedPairFraction = 0.4;
  params.seed = GetParam();
  const GeneratedNetwork net = generateDatacenter(params);
  Simulator sim(net.tree);
  const PolicySet inferred = sim.inferReachabilityPolicies();
  ASSERT_FALSE(inferred.empty());
  EXPECT_TRUE(frozenModelAccepts(net.tree, inferred));
}

TEST_P(AlignmentSweep, DatacenterNegatedPoliciesRejectedFrozen) {
  DcParams params;
  params.racks = 3 + static_cast<int>(GetParam() % 3);
  params.aggs = 2;
  params.blockedPairFraction = 0.4;
  params.seed = GetParam();
  const GeneratedNetwork net = generateDatacenter(params);
  Simulator sim(net.tree);
  const PolicySet inferred = sim.inferReachabilityPolicies();
  // Negating any single inferred policy must make the frozen model unsat.
  // (Check a sample to keep runtime bounded.)
  for (std::size_t i = 0; i < inferred.size(); i += 5) {
    PolicySet sample = {negate(inferred[i])};
    EXPECT_FALSE(frozenModelAccepts(net.tree, sample))
        << "model accepted negation of " << inferred[i].str();
  }
}

TEST_P(AlignmentSweep, ZooInferredPoliciesAcceptedFrozen) {
  ZooParams params;
  params.routers = 8 + static_cast<int>(GetParam() % 8);
  params.blockedPairFraction = 0.3;
  params.seed = GetParam();
  const GeneratedNetwork net = generateZoo(params);
  Simulator sim(net.tree);
  PolicySet inferred = sim.inferReachabilityPolicies();
  // Keep the SMT problem bounded: a sample of the matrix suffices.
  if (inferred.size() > 40) inferred.resize(40);
  EXPECT_TRUE(frozenModelAccepts(net.tree, inferred));
}

TEST_P(AlignmentSweep, ZooNegatedPoliciesRejectedFrozen) {
  ZooParams params;
  params.routers = 8 + static_cast<int>(GetParam() % 8);
  params.blockedPairFraction = 0.3;
  params.seed = GetParam();
  const GeneratedNetwork net = generateZoo(params);
  Simulator sim(net.tree);
  const PolicySet inferred = sim.inferReachabilityPolicies();
  for (std::size_t i = 0; i < inferred.size(); i += 9) {
    PolicySet sample = {negate(inferred[i])};
    EXPECT_FALSE(frozenModelAccepts(net.tree, sample))
        << "model accepted negation of " << inferred[i].str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlignmentSweep,
                         ::testing::Values(1, 4, 6, 10, 14));

// Alignment must also hold on networks exercising every protocol feature:
// static routes, redistribution, OSPF, and lp-setting filters together.
TEST(AlignmentFeature, MixedProtocolNetwork) {
  const std::string text =
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
      " route 9.0.0.0/16 10.0.2.1\n";
  const ConfigTree tree = parseNetworkConfig(text);
  Simulator sim(tree);
  const PolicySet inferred = sim.inferReachabilityPolicies();
  ASSERT_FALSE(inferred.empty());
  EXPECT_TRUE(frozenModelAccepts(tree, inferred));
  for (const Policy& policy : inferred) {
    EXPECT_FALSE(frozenModelAccepts(tree, {negate(policy)}))
        << policy.str();
  }
}

}  // namespace
}  // namespace aed
