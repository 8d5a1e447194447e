#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "conftree/parser.hpp"
#include "fixtures.hpp"
#include "objectives/objective.hpp"
#include "objectives/xpath.hpp"
#include "sketch/sketch.hpp"
#include "topology/topology.hpp"
#include "util/error.hpp"

namespace aed {
namespace {

// -------------------------------------------------------------- path parsing

TEST(PathString, ParsesSegmentsWithAttrs) {
  const auto segments = parsePathString(
      "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
      "RouteFilter[name=rf_a]");
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[0].kind, "Router");
  EXPECT_EQ(segments[0].attrs.at("name"), "B");
  EXPECT_EQ(segments[1].attrs.at("type"), "bgp");
  EXPECT_EQ(segments[2].kind, "RouteFilter");
}

TEST(PathString, SlashInsidePrefixAttributeDoesNotSplit) {
  const auto segments = parsePathString(
      "Router[name=A]/RoutingProcess[type=static,name=main]/"
      "Origination[prefix=1.0.0.0/16]");
  ASSERT_EQ(segments.size(), 3u);
  EXPECT_EQ(segments[2].attrs.at("prefix"), "1.0.0.0/16");
}

// -------------------------------------------------------------------- XPath

TEST(XPath, DescendantMatchesAnywhere) {
  const XPath xpath = XPath::parse("//PacketFilter");
  EXPECT_TRUE(xpath.selects("Router[name=B]/PacketFilter[name=pf_b]"));
  EXPECT_TRUE(xpath.selects(
      "Router[name=B]/PacketFilter[name=pf_b]/PacketFilterRule[seq=10]"));
  EXPECT_FALSE(xpath.selects("Router[name=B]/Interface[name=eth0]"));
}

TEST(XPath, PredicatesFilter) {
  const XPath xpath = XPath::parse("//Router[name=\"B\"]");
  EXPECT_TRUE(xpath.selects("Router[name=B]/PacketFilter[name=pf_b]"));
  EXPECT_FALSE(xpath.selects("Router[name=C]/PacketFilter[name=pf_b]"));
}

TEST(XPath, ChildStepRequiresDirectNesting) {
  const XPath xpath =
      XPath::parse("//RoutingProcess[type=\"static\"]/Origination");
  EXPECT_TRUE(xpath.selects(
      "Router[name=A]/RoutingProcess[type=static,name=main]/"
      "Origination[prefix=5.0.0.0/16]"));
  EXPECT_FALSE(xpath.selects(
      "Router[name=A]/RoutingProcess[type=bgp,name=1]/"
      "Origination[prefix=5.0.0.0/16]"));
}

TEST(XPath, LeadingChildStepAnchorsAtTop) {
  const XPath xpath = XPath::parse("/Router[name=\"A\"]");
  EXPECT_TRUE(xpath.selects("Router[name=A]"));
  // Router can never appear deeper, but a deeper first match must fail:
  EXPECT_FALSE(XPath::parse("/PacketFilter").selects(
      "Router[name=A]/PacketFilter[name=p]"));
}

TEST(XPath, WildcardKind) {
  const XPath xpath = XPath::parse("//Router/*[name=\"pf_b\"]");
  EXPECT_TRUE(xpath.selects("Router[name=B]/PacketFilter[name=pf_b]"));
  EXPECT_FALSE(xpath.selects("Router[name=B]/PacketFilter[name=other]"));
}

TEST(XPath, RootOfReturnsMatchedPrefix) {
  const XPath xpath = XPath::parse("//PacketFilter");
  const auto root = xpath.rootOf(
      "Router[name=B]/PacketFilter[name=pf_b]/PacketFilterRule[seq=10]");
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(*root, "Router[name=B]/PacketFilter[name=pf_b]");
  EXPECT_EQ(XPath::rootAttr(*root, "name"), "pf_b");
  EXPECT_EQ(XPath::rootAttr(*root, "missing"), "");
  EXPECT_FALSE(xpath.rootOf("Router[name=B]").has_value());
}

TEST(XPath, MultiplePredicateGroups) {
  const XPath xpath =
      XPath::parse("//RoutingProcess[type=\"bgp\"][name=\"65002\"]");
  EXPECT_TRUE(xpath.selects(
      "Router[name=B]/RoutingProcess[type=bgp,name=65002]"));
  EXPECT_FALSE(xpath.selects(
      "Router[name=B]/RoutingProcess[type=bgp,name=65001]"));
}

// Node paths keep the attribute order their node prints with
// (`RoutingProcess[type=bgp,name=...]`). The root must keep it too, or
// DeltaVar::relativeKey() cannot strip it as a prefix.
TEST(XPath, RootOfKeepsAttributeOrderAsWritten) {
  const std::string rule =
      "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
      "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]";
  const auto root = XPath::parse("//RoutingProcess").rootOf(rule);
  ASSERT_TRUE(root.has_value());
  EXPECT_EQ(*root, "Router[name=B]/RoutingProcess[type=bgp,name=65002]");

  DeltaVar delta;
  delta.kind = DeltaKind::kRemoveRouteFilterRule;
  delta.nodePath = rule;
  EXPECT_EQ(delta.relativeKey(*root),
            "rm-rfilter-rule@RouteFilter[name=rf_a]/RouteFilterRule[seq=10]");
}

TEST(XPath, RejectsMalformed) {
  EXPECT_THROW(XPath::parse(""), AedError);
  EXPECT_THROW(XPath::parse("Router"), AedError);
  EXPECT_THROW(XPath::parse("//Router[name]"), AedError);
  EXPECT_THROW(XPath::parse("//Router[name=\"B\""), AedError);
  EXPECT_THROW(XPath::parse("//"), AedError);
}

// -------------------------------------------------------- objective language

TEST(ObjectiveLanguage, ParsesRestrictions) {
  EXPECT_EQ(parseObjective("NOMODIFY //Router").restriction,
            Restriction::kNoModify);
  EXPECT_EQ(parseObjective("EQUATE //PacketFilter GROUPBY name").restriction,
            Restriction::kEquate);
  EXPECT_EQ(parseObjective("eliminate //PacketFilter").restriction,
            Restriction::kEliminate);
}

TEST(ObjectiveLanguage, ParsesClauses) {
  const Objective objective =
      parseObjective("NOMODIFY //Router GROUPBY name WEIGHT 5");
  EXPECT_EQ(objective.groupBy, "name");
  EXPECT_EQ(objective.weight, 5u);
  EXPECT_EQ(objective.label, "NOMODIFY //Router GROUPBY name WEIGHT 5");
}

TEST(ObjectiveLanguage, DefaultsAndErrors) {
  const Objective objective = parseObjective("NOMODIFY //Router");
  EXPECT_TRUE(objective.groupBy.empty());
  EXPECT_EQ(objective.weight, 1u);
  EXPECT_THROW(parseObjective("FROBNICATE //Router"), AedError);
  EXPECT_THROW(parseObjective("NOMODIFY"), AedError);
  EXPECT_THROW(parseObjective("NOMODIFY //Router GROUPBY"), AedError);
  EXPECT_THROW(parseObjective("NOMODIFY //Router WEIGHT 0"), AedError);
  EXPECT_THROW(parseObjective("NOMODIFY //Router BANANA"), AedError);
}

TEST(ObjectiveLanguage, ParsesMultiLineWithComments) {
  const auto objectives = parseObjectives(
      "# keep clones in sync\n"
      "EQUATE //PacketFilter GROUPBY name\n"
      "\n"
      "NOMODIFY //Router[name=\"B\"]  # flaky flash\n");
  ASSERT_EQ(objectives.size(), 2u);
  EXPECT_EQ(objectives[0].restriction, Restriction::kEquate);
  EXPECT_EQ(objectives[1].restriction, Restriction::kNoModify);
}

// Table 2 of the paper: the predefined library.
TEST(ObjectiveLibrary, Table2Encodings) {
  EXPECT_EQ(objectivesPreserveTemplates().size(), 2u);
  EXPECT_EQ(objectivesMinDevices()[0].label, "NOMODIFY //Router GROUPBY name");
  const auto avoid = objectivesAvoidRouters({"B", "C"});
  ASSERT_EQ(avoid.size(), 2u);
  EXPECT_EQ(avoid[0].label, "NOMODIFY //Router[name=\"B\"]");
  EXPECT_EQ(avoid[1].label, "NOMODIFY //Router[name=\"C\"]");
  const auto noStatic = objectivesAvoidStaticRoutes();
  EXPECT_EQ(noStatic[0].label,
            "ELIMINATE //RoutingProcess[type=\"static\"]/Origination GROUPBY "
            "prefix");
  EXPECT_EQ(objectivesMinPacketFilters()[0].restriction,
            Restriction::kEliminate);
  EXPECT_EQ(objectivesAvoidRedistribution()[0].label,
            "ELIMINATE //Redistribution GROUPBY from");
}

// EQUATE aligns clones by each delta's key relative to its subtree root.
// Two routers carrying the same import filter under their BGP process are
// clones: every route-filter delta needs a non-empty key, and both clones
// must offer the same keys.
TEST(ObjectiveLibrary, PreserveTemplatesAlignsRouteFilterClones) {
  const ConfigTree tree = parseNetworkConfig(
      "hostname A\n"
      "interface hosts\n"
      " ip address 1.0.0.1/16\n"
      "interface toB\n"
      " ip address 10.0.1.1/30\n"
      "router bgp 65001\n"
      " neighbor 10.0.1.2 remote-router B filter-in rf_in\n"
      " network 1.0.0.0/16\n"
      " route-filter rf_in seq 10 deny 9.0.0.0/16\n"
      " route-filter rf_in seq 20 permit any\n"
      "!\n"
      "hostname B\n"
      "interface hosts\n"
      " ip address 2.0.0.1/16\n"
      "interface toA\n"
      " ip address 10.0.1.2/30\n"
      "router bgp 65002\n"
      " neighbor 10.0.1.1 remote-router A filter-in rf_in\n"
      " network 2.0.0.0/16\n"
      " route-filter rf_in seq 10 deny 9.0.0.0/16\n"
      " route-filter rf_in seq 20 permit any\n");
  const PolicySet policies = {
      Policy::reachability(testing::cls("1.0.0.0/16", "2.0.0.0/16")),
      Policy::reachability(testing::cls("2.0.0.0/16", "1.0.0.0/16"))};
  const Sketch sketch =
      buildSketch(tree, Topology::fromConfigs(tree), policies);

  const auto templates = objectivesPreserveTemplates();
  const auto routeFilters =
      std::find_if(templates.begin(), templates.end(), [](const Objective& o) {
        return o.xpath.str().find("RouteFilter") != std::string::npos;
      });
  ASSERT_NE(routeFilters, templates.end());
  std::map<std::string, std::set<std::string>> keysByRoot;
  for (const DeltaVar& delta : sketch.deltas()) {
    const auto root = routeFilters->xpath.rootOf(delta.virtualPath());
    if (!root) continue;
    const std::string key = delta.relativeKey(*root);
    EXPECT_FALSE(key.empty()) << delta.virtualPath() << " under " << *root;
    keysByRoot[*root].insert(key);
  }
  ASSERT_EQ(keysByRoot.size(), 2u);
  EXPECT_FALSE(keysByRoot.begin()->second.empty());
  EXPECT_EQ(keysByRoot.begin()->second, keysByRoot.rbegin()->second);
}

TEST(ObjectiveLibrary, WeightsPropagate) {
  EXPECT_EQ(objectivesMinDevices(7)[0].weight, 7u);
  EXPECT_EQ(objectivesPreserveTemplates(3)[1].weight, 3u);
}

}  // namespace
}  // namespace aed
