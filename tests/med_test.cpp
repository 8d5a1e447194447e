// BGP MED: dialect round-trip, selection order (lp, then path cost, then
// med), and synthesis steering via med retuning.

#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::medDiamondConfigText;

TEST(Med, ParserPrinterRoundTrip) {
  const ConfigTree tree = parseNetworkConfig(medDiamondConfigText());
  const Node* rule = tree.byPath(
      "Router[name=S]/RoutingProcess[type=bgp,name=65001]/"
      "RouteFilter[name=rf_x]/RouteFilterRule[seq=10]");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->attr("med"), "10");
  const std::string printed = printNetworkConfig(tree);
  EXPECT_NE(printed.find("set med 10"), std::string::npos);
  EXPECT_EQ(printNetworkConfig(parseNetworkConfig(printed)), printed);
}

TEST(Med, ParsesCombinedLpAndMed) {
  const ConfigTree tree = parseNetworkConfig(
      "hostname A\nrouter bgp 1\n"
      " route-filter rf seq 10 permit any set local-preference 150 set med "
      "30\n");
  const Node* rule = tree.byPath(
      "Router[name=A]/RoutingProcess[type=bgp,name=1]/RouteFilter[name=rf]/"
      "RouteFilterRule[seq=10]");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->attr("lp"), "150");
  EXPECT_EQ(rule->attr("med"), "30");
}

TEST(Med, RejectsMalformedSetClauses) {
  EXPECT_THROW(parseNetworkConfig("hostname A\nrouter bgp 1\n"
                                  " route-filter rf seq 10 permit any set\n"),
               AedError);
  EXPECT_THROW(
      parseNetworkConfig("hostname A\nrouter bgp 1\n"
                         " route-filter rf seq 10 permit any set bogus 3\n"),
      AedError);
}

TEST(Med, SimulatorBreaksTiesByMed) {
  const ConfigTree tree = parseNetworkConfig(medDiamondConfigText());
  Simulator sim(tree);
  const auto routes = sim.computeRoutes(*Ipv4Prefix::parse("2.0.0.0/16"));
  ASSERT_TRUE(routes.at("S").valid);
  // Equal lp (100), equal cost (2 hops): med 10 beats med 50.
  EXPECT_EQ(routes.at("S").viaNeighbor, "X");
  EXPECT_EQ(routes.at("S").med, 10);
}

TEST(Med, LocalPreferenceDominatesMed) {
  // Give Y a higher lp: it must win despite its worse med.
  ConfigTree tree = parseNetworkConfig(medDiamondConfigText());
  Node* rule = tree.byPath(
      "Router[name=S]/RoutingProcess[type=bgp,name=65001]/"
      "RouteFilter[name=rf_y]/RouteFilterRule[seq=10]");
  rule->setAttr("lp", "200");
  Simulator sim(tree);
  EXPECT_EQ(
      sim.computeRoutes(*Ipv4Prefix::parse("2.0.0.0/16")).at("S").viaNeighbor,
      "Y");
}

TEST(Med, SynthesisRetunesMedForPathPreference) {
  // Demand the Y path primary; the cheapest mechanism is a med retune (lp
  // changes would also work, but both are metric edits on the existing
  // rules — verify the patch only touches rule metrics).
  const ConfigTree tree = parseNetworkConfig(medDiamondConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "Y", "T"}, {"S", "X", "T"})};
  AedOptions options;
  options.sketch.allowStaticRoutes = false;
  options.sketch.allowPacketFilterChanges = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty()) << result.patch.describe();
}

TEST(Med, FrozenModelAlignsWithSimulator) {
  // The med-based selection must agree between model and simulator: the
  // inferred policies of the diamond are accepted by the frozen model.
  const ConfigTree tree = parseNetworkConfig(medDiamondConfigText());
  Simulator sim(tree);
  const PolicySet inferred = sim.inferReachabilityPolicies();
  ASSERT_FALSE(inferred.empty());
  const Topology topo = Topology::fromConfigs(tree);
  const Sketch sketch = buildSketch(tree, topo, inferred);
  SmtSession session;
  Encoder encoder(session, tree, topo, sketch);
  encoder.encode(inferred);
  for (const DeltaVar& delta : sketch.deltas()) {
    session.addHard(!encoder.deltaActive(delta));
  }
  EXPECT_TRUE(session.check().sat());
}

}  // namespace
}  // namespace aed
