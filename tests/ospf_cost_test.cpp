// OSPF link costs: dialect round-trip, simulator semantics, and synthesis
// (AED retuning a link cost to satisfy a path-steering policy — the "cost
// and metric" half of the §8 (2n+1) treatment).

#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "conftree/printer.hpp"
#include "core/aed.hpp"
#include "fixtures.hpp"
#include "simulate/simulator.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::ospfDiamondConfigText;

TEST(OspfCost, ParserPrinterRoundTrip) {
  const ConfigTree tree = parseNetworkConfig(ospfDiamondConfigText());
  const Node* adj = tree.byPath(
      "Router[name=S]/RoutingProcess[type=ospf,name=10]/Adjacency[peer=X]");
  ASSERT_NE(adj, nullptr);
  EXPECT_EQ(adj->attr("cost"), "5");
  const std::string printed = printNetworkConfig(tree);
  EXPECT_NE(printed.find("cost 5"), std::string::npos);
  EXPECT_EQ(printNetworkConfig(parseNetworkConfig(printed)), printed);
}

TEST(OspfCost, ParserRejectsBadCost) {
  EXPECT_THROW(parseNetworkConfig("hostname A\nrouter ospf 1\n"
                                  " neighbor 1.2.3.4 remote-router B cost 0\n"),
               AedError);
  EXPECT_THROW(
      parseNetworkConfig("hostname A\nrouter ospf 1\n"
                         " neighbor 1.2.3.4 remote-router B banana 5\n"),
      AedError);
}

TEST(OspfCost, SimulatorPrefersLowerTotalCost) {
  const ConfigTree tree = parseNetworkConfig(ospfDiamondConfigText());
  Simulator sim(tree);
  const auto routes = sim.computeRoutes(*Ipv4Prefix::parse("2.0.0.0/16"));
  ASSERT_TRUE(routes.at("S").valid);
  EXPECT_EQ(routes.at("S").viaNeighbor, "X");
  EXPECT_EQ(routes.at("S").cost, 10);  // 5 + 5
  const ForwardResult fwd = sim.forward(cls("1.0.0.0/16", "2.0.0.0/16"), "S");
  EXPECT_EQ(fwd.path, (std::vector<std::string>{"S", "X", "T"}));
}

TEST(OspfCost, HigherCostReroutes) {
  // Bumping the S-X import cost above Y's path flips the choice.
  ConfigTree tree = parseNetworkConfig(ospfDiamondConfigText());
  Node* adj = tree.byPath(
      "Router[name=S]/RoutingProcess[type=ospf,name=10]/Adjacency[peer=X]");
  adj->setAttr("cost", "100");
  Simulator sim(tree);
  const auto routes = sim.computeRoutes(*Ipv4Prefix::parse("2.0.0.0/16"));
  EXPECT_EQ(routes.at("S").viaNeighbor, "Y");
}

TEST(OspfCost, SynthesisRetunesCostForPathPreference) {
  // Demand the opposite preference (via Y primary, X fallback) while
  // forbidding filters and statics — only a cost retune can do it.
  const ConfigTree tree = parseNetworkConfig(ospfDiamondConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "Y", "T"}, {"S", "X", "T"})};
  AedOptions options;
  options.sketch.allowStaticRoutes = false;
  options.sketch.allowRouteFilterChanges = false;
  options.sketch.allowPacketFilterChanges = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty()) << result.patch.describe();
  // The patch must be cost modifications only.
  bool sawCostEdit = false;
  for (const Edit& edit : result.patch.edits()) {
    EXPECT_EQ(edit.op, Edit::Op::kSetAttr) << edit.describe();
    if (edit.attrs.count("cost") != 0) sawCostEdit = true;
  }
  EXPECT_TRUE(sawCostEdit) << result.patch.describe();
}

TEST(OspfCost, IntegerModeAlsoRetunes) {
  const ConfigTree tree = parseNetworkConfig(ospfDiamondConfigText());
  const PolicySet policies = {Policy::pathPreference(
      cls("1.0.0.0/16", "2.0.0.0/16"), {"S", "Y", "T"}, {"S", "X", "T"})};
  AedOptions options;
  options.encoder.booleanLp = false;
  options.sketch.allowStaticRoutes = false;
  options.sketch.allowRouteFilterChanges = false;
  options.sketch.allowPacketFilterChanges = false;
  const AedResult result = synthesize(tree, policies, {}, options);
  ASSERT_TRUE(result.success) << result.error;
  Simulator sim(result.updated);
  EXPECT_TRUE(sim.violations(policies).empty());
}

}  // namespace
}  // namespace aed
