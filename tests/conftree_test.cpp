#include <gtest/gtest.h>

#include "conftree/diff.hpp"
#include "conftree/parser.hpp"
#include "conftree/patch.hpp"
#include "conftree/printer.hpp"
#include "conftree/tree.hpp"
#include "fixtures.hpp"
#include "util/error.hpp"

namespace aed {
namespace {

using aed::testing::figure1ConfigText;

// ---------------------------------------------------------------------- Node

TEST(Node, AttrsDefaultEmpty) {
  Node node(NodeKind::kRouter);
  EXPECT_EQ(node.attr("name"), "");
  EXPECT_FALSE(node.hasAttr("name"));
  node.setAttr("name", "A");
  EXPECT_EQ(node.name(), "A");
}

TEST(Node, AddAndRemoveChildren) {
  Node router(NodeKind::kRouter);
  Node& iface = router.addChild(NodeKind::kInterface);
  iface.setAttr("name", "eth0");
  Node& proc = router.addChild(NodeKind::kRoutingProcess);
  proc.setAttr("type", "bgp");
  EXPECT_EQ(router.children().size(), 2u);
  EXPECT_EQ(router.childrenOfKind(NodeKind::kInterface).size(), 1u);
  EXPECT_EQ(iface.parent(), &router);
  router.removeChild(iface);
  EXPECT_EQ(router.children().size(), 1u);
  EXPECT_EQ(router.childrenOfKind(NodeKind::kInterface).size(), 0u);
}

TEST(Node, FindChildByName) {
  Node router(NodeKind::kRouter);
  Node& pf = router.addChild(NodeKind::kPacketFilter);
  pf.setAttr("name", "pf1");
  EXPECT_EQ(router.findChild(NodeKind::kPacketFilter, "pf1"), &pf);
  EXPECT_EQ(router.findChild(NodeKind::kPacketFilter, "pf2"), nullptr);
  EXPECT_EQ(router.findChild(NodeKind::kRouteFilter, "pf1"), nullptr);
}

TEST(Node, CloneIsDeep) {
  Node router(NodeKind::kRouter);
  router.setAttr("name", "A");
  Node& proc = router.addChild(NodeKind::kRoutingProcess);
  proc.setAttr("type", "bgp");
  proc.addChild(NodeKind::kAdjacency).setAttr("peer", "B");

  Node other(NodeKind::kNetwork);
  Node& copy = other.addClone(router);
  EXPECT_EQ(copy.name(), "A");
  ASSERT_EQ(copy.children().size(), 1u);
  EXPECT_EQ(copy.children()[0]->children()[0]->attr("peer"), "B");
  // Mutating the copy must not touch the original.
  copy.children()[0]->children()[0]->setAttr("peer", "C");
  EXPECT_EQ(proc.children()[0]->attr("peer"), "B");
}

TEST(Node, SignatureAndPath) {
  ConfigTree tree;
  Node& router = tree.addRouter("B");
  Node& proc = router.addChild(NodeKind::kRoutingProcess);
  proc.setAttr("type", "bgp");
  proc.setAttr("name", "65002");
  Node& filter = proc.addChild(NodeKind::kRouteFilter);
  filter.setAttr("name", "rf_a");
  Node& rule = filter.addChild(NodeKind::kRouteFilterRule);
  rule.setAttr("seq", "10");

  EXPECT_EQ(router.signature(), "Router[name=B]");
  EXPECT_EQ(rule.path(),
            "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
            "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]");
}

TEST(NodeKindNames, RoundTrip) {
  for (NodeKind kind :
       {NodeKind::kNetwork, NodeKind::kRouter, NodeKind::kInterface,
        NodeKind::kRoutingProcess, NodeKind::kAdjacency,
        NodeKind::kOrigination, NodeKind::kRedistribution,
        NodeKind::kRouteFilter, NodeKind::kRouteFilterRule,
        NodeKind::kPacketFilter, NodeKind::kPacketFilterRule}) {
    EXPECT_EQ(nodeKindFromName(nodeKindName(kind)), kind);
  }
  EXPECT_THROW(nodeKindFromName("Bogus"), AedError);
}

// ---------------------------------------------------------------- ConfigTree

TEST(ConfigTree, RouterLookup) {
  ConfigTree tree;
  tree.addRouter("A");
  tree.addRouter("B", "spine");
  EXPECT_NE(tree.router("A"), nullptr);
  EXPECT_EQ(tree.router("Z"), nullptr);
  EXPECT_EQ(tree.router("B")->attr("role"), "spine");
  EXPECT_EQ(tree.routers().size(), 2u);
}

TEST(ConfigTree, ByPathResolvesAndCloneDetaches) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Node* rule = tree.byPath(
      "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
      "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->attr("action"), "deny");

  ConfigTree copy = tree.clone();
  EXPECT_EQ(printNetworkConfig(copy), printNetworkConfig(tree));
  copy.router("B")->setAttr("role", "changed");
  EXPECT_FALSE(tree.router("B")->hasAttr("role"));
}

TEST(ConfigTree, Counts) {
  ConfigTree tree;
  Node& router = tree.addRouter("A");
  Node& proc = router.addChild(NodeKind::kRoutingProcess);
  proc.addChild(NodeKind::kAdjacency);
  proc.addChild(NodeKind::kAdjacency);
  EXPECT_EQ(tree.nodeCount(), 4u);
}

// -------------------------------------------------------------------- Parser

TEST(Parser, ParsesFigure1) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  ASSERT_EQ(tree.routers().size(), 4u);
  const Node* b = tree.router("B");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->childrenOfKind(NodeKind::kInterface).size(), 4u);
  const auto procs = b->childrenOfKind(NodeKind::kRoutingProcess);
  ASSERT_EQ(procs.size(), 1u);
  EXPECT_EQ(procs[0]->attr("type"), "bgp");
  EXPECT_EQ(procs[0]->childrenOfKind(NodeKind::kAdjacency).size(), 3u);
  EXPECT_EQ(procs[0]->childrenOfKind(NodeKind::kOrigination).size(), 1u);
  const auto filters = procs[0]->childrenOfKind(NodeKind::kRouteFilter);
  ASSERT_EQ(filters.size(), 1u);
  EXPECT_EQ(filters[0]->children().size(), 2u);
  const auto pfilters = b->childrenOfKind(NodeKind::kPacketFilter);
  ASSERT_EQ(pfilters.size(), 1u);
  EXPECT_EQ(pfilters[0]->children().size(), 2u);
}

TEST(Parser, AdjacencyAttributes) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Node* proc = tree.router("B")->childrenOfKind(
      NodeKind::kRoutingProcess)[0];
  const Node* adjA = nullptr;
  for (const Node* adj : proc->childrenOfKind(NodeKind::kAdjacency)) {
    if (adj->attr("peer") == "A") adjA = adj;
  }
  ASSERT_NE(adjA, nullptr);
  EXPECT_EQ(adjA->attr("peerIp"), "10.0.1.1");
  EXPECT_EQ(adjA->attr("filterIn"), "rf_a");
}

TEST(Parser, AnyBecomesDefaultRoute) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Node* filter = tree.byPath(
      "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
      "RouteFilter[name=rf_a]");
  ASSERT_NE(filter, nullptr);
  EXPECT_EQ(filter->children()[1]->attr("prefix"), "0.0.0.0/0");
  EXPECT_EQ(filter->children()[1]->attr("lp"), "20");
}

TEST(Parser, InterfaceAddressKeepsHostBits) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Node* iface =
      tree.router("A")->findChild(NodeKind::kInterface, "toB");
  ASSERT_NE(iface, nullptr);
  EXPECT_EQ(iface->attr("address"), "10.0.1.1/30");
}

TEST(Parser, StaticRoutes) {
  ConfigTree tree = parseNetworkConfig(
      "hostname R\n"
      "router static main\n"
      " route 5.0.0.0/16 10.0.0.2\n");
  const Node* proc =
      tree.router("R")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  EXPECT_EQ(proc->attr("type"), "static");
  const auto origs = proc->childrenOfKind(NodeKind::kOrigination);
  ASSERT_EQ(origs.size(), 1u);
  EXPECT_EQ(origs[0]->attr("prefix"), "5.0.0.0/16");
  EXPECT_EQ(origs[0]->attr("nexthop"), "10.0.0.2");
}

TEST(Parser, Redistribution) {
  ConfigTree tree = parseNetworkConfig(
      "hostname R\n"
      "router ospf 10\n"
      " redistribute bgp\n");
  const Node* proc =
      tree.router("R")->childrenOfKind(NodeKind::kRoutingProcess)[0];
  const auto redists = proc->childrenOfKind(NodeKind::kRedistribution);
  ASSERT_EQ(redists.size(), 1u);
  EXPECT_EQ(redists[0]->attr("from"), "bgp");
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_THROW(parseNetworkConfig("interface eth0\n"), AedError);
  EXPECT_THROW(parseNetworkConfig("hostname A\nbogus directive\n"), AedError);
  EXPECT_THROW(parseNetworkConfig("hostname A\nrouter rip 1\n"), AedError);
  EXPECT_THROW(
      parseNetworkConfig("hostname A\ninterface e0\n ip address banana\n"),
      AedError);
  EXPECT_THROW(
      parseNetworkConfig("hostname A\nrouter bgp 1\n network 1.2.3.4\n"),
      AedError);
  EXPECT_THROW(parseNetworkConfig("hostname A\nhostname A\n"), AedError);
  EXPECT_THROW(parseNetworkConfig("hostname A\n neighbor 1.2.3.4\n"),
               AedError);
}

TEST(Parser, CommentsAndBangsIgnored) {
  ConfigTree tree = parseNetworkConfig(
      "! leading comment\n"
      "hostname A\n"
      "# hash comment\n"
      "!\n"
      "interface e0\n"
      " ip address 10.0.0.1/24\n");
  EXPECT_EQ(tree.routers().size(), 1u);
}

// ------------------------------------------------------------------- Printer

TEST(Printer, RoundTripsFigure1) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const std::string printed = printNetworkConfig(tree);
  ConfigTree reparsed = parseNetworkConfig(printed);
  EXPECT_EQ(printNetworkConfig(reparsed), printed);
  EXPECT_EQ(reparsed.routers().size(), 4u);
}

TEST(Printer, DeterministicOrder) {
  // Two trees built in different insertion orders print identically.
  ConfigTree t1;
  Node& r1 = t1.addRouter("A");
  r1.addChild(NodeKind::kInterface).setAttr("name", "e1");
  r1.addChild(NodeKind::kInterface).setAttr("name", "e0");

  ConfigTree t2;
  Node& r2 = t2.addRouter("A");
  r2.addChild(NodeKind::kInterface).setAttr("name", "e0");
  r2.addChild(NodeKind::kInterface).setAttr("name", "e1");

  EXPECT_EQ(printNetworkConfig(t1), printNetworkConfig(t2));
}

TEST(Printer, OneLinePerLeaf) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Node* b = tree.router("B");
  // B: hostname + 4 interfaces (4 names + 4 addresses + 1 binding... lines:
  // each interface prints "interface X" + attribute lines). Count exactly:
  // hostname(1) + hosts(2) + toA(2) + toC(2) + toD(3) + router(1) +
  // 3 neighbors + 1 network + 2 route-filter rules + 2 packet-filter rules.
  EXPECT_EQ(configLines(*b).size(), 1u + 2 + 2 + 2 + 3 + 1 + 3 + 1 + 2 + 2);
}

// --------------------------------------------------------------------- Patch

TEST(Patch, AddRemoveSetAttr) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());

  Patch patch;
  // Remove the deny rule on B's route filter.
  patch.add(Edit{Edit::Op::kRemoveNode,
                 "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                 "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]",
                 NodeKind::kNetwork,
                 {}});
  // Add a permit rule to B's packet filter ahead of the deny.
  patch.add(Edit{Edit::Op::kAddNode,
                 "Router[name=B]/PacketFilter[name=pf_b]",
                 NodeKind::kPacketFilterRule,
                 {{"seq", "5"},
                  {"action", "permit"},
                  {"srcPrefix", "3.0.0.0/16"},
                  {"dstPrefix", "2.0.0.0/16"}}});
  // Tweak the local preference of the permit-any rule.
  patch.add(Edit{Edit::Op::kSetAttr,
                 "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                 "RouteFilter[name=rf_a]/RouteFilterRule[seq=20]",
                 NodeKind::kNetwork,
                 {{"lp", "120"}}});

  ConfigTree updated = patch.applied(tree);
  EXPECT_EQ(updated.byPath(
                "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]"),
            nullptr);
  const Node* added = updated.byPath(
      "Router[name=B]/PacketFilter[name=pf_b]/PacketFilterRule[seq=5]");
  ASSERT_NE(added, nullptr);
  EXPECT_EQ(added->attr("action"), "permit");
  EXPECT_EQ(updated
                .byPath("Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                        "RouteFilter[name=rf_a]/RouteFilterRule[seq=20]")
                ->attr("lp"),
            "120");
  // Original untouched.
  EXPECT_NE(tree.byPath(
                "Router[name=B]/RoutingProcess[type=bgp,name=65002]/"
                "RouteFilter[name=rf_a]/RouteFilterRule[seq=10]"),
            nullptr);
}

TEST(Patch, CompositeAddFilterThenRules) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Patch patch;
  patch.add(Edit{Edit::Op::kAddNode,
                 "Router[name=C]",
                 NodeKind::kPacketFilter,
                 {{"name", "pf_new"}}});
  patch.add(Edit{Edit::Op::kAddNode,
                 "Router[name=C]/PacketFilter[name=pf_new]",
                 NodeKind::kPacketFilterRule,
                 {{"seq", "10"},
                  {"action", "deny"},
                  {"srcPrefix", "3.0.0.0/16"},
                  {"dstPrefix", "0.0.0.0/0"}}});
  ConfigTree updated = patch.applied(tree);
  EXPECT_NE(updated.byPath(
                "Router[name=C]/PacketFilter[name=pf_new]/"
                "PacketFilterRule[seq=10]"),
            nullptr);
}

TEST(Patch, TouchedRoutersAndDescribe) {
  Patch patch;
  patch.add(Edit{Edit::Op::kRemoveNode, "Router[name=B]/PacketFilter[name=x]",
                 NodeKind::kNetwork, {}});
  patch.add(Edit{Edit::Op::kAddNode, "Router[name=C]",
                 NodeKind::kPacketFilter, {{"name", "y"}}});
  EXPECT_NE(patch.describe().find("remove"), std::string::npos);
  EXPECT_NE(patch.describe().find("add PacketFilter"), std::string::npos);
}

TEST(Patch, BadTargetThrows) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  Patch patch;
  patch.add(Edit{Edit::Op::kRemoveNode, "Router[name=Z]", NodeKind::kNetwork,
                 {}});
  EXPECT_THROW(patch.applied(tree), AedError);
}

// ---------------------------------------------------------------------- Diff

TEST(Diff, IdenticalTreesNoChange) {
  ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const DiffStats stats = diffNetworks(tree, tree.clone());
  EXPECT_EQ(stats.devicesChanged, 0);
  EXPECT_EQ(stats.linesChanged(), 0);
  EXPECT_EQ(stats.totalDevices, 4);
  EXPECT_GT(stats.totalLinesBefore, 0);
}

TEST(Diff, CountsAddedAndRemovedLines) {
  ConfigTree before = parseNetworkConfig(figure1ConfigText());
  ConfigTree after = before.clone();
  // Remove one packet-filter rule and add a new one on B.
  Node* filter = after.byPath("Router[name=B]/PacketFilter[name=pf_b]");
  ASSERT_NE(filter, nullptr);
  filter->removeChild(*filter->children()[0]);
  Node& rule = filter->addChild(NodeKind::kPacketFilterRule);
  rule.setAttr("seq", "5");
  rule.setAttr("action", "permit");
  rule.setAttr("srcPrefix", "3.0.0.0/16");
  rule.setAttr("dstPrefix", "2.0.0.0/16");

  const DiffStats stats = diffNetworks(before, after);
  EXPECT_EQ(stats.devicesChanged, 1);
  EXPECT_EQ(stats.linesRemoved, 1);
  EXPECT_EQ(stats.linesAdded, 1);
  EXPECT_EQ(stats.changedRouters, (std::set<std::string>{"B"}));
  EXPECT_GT(stats.devicesChangedPct(), 24.9);
  EXPECT_LT(stats.devicesChangedPct(), 25.1);
}

TEST(Diff, MissingRouterCountsAsChanged) {
  ConfigTree before = parseNetworkConfig(figure1ConfigText());
  ConfigTree after = parseNetworkConfig(figure1ConfigText());
  after.root().removeChild(*after.router("D"));
  const DiffStats stats = diffNetworks(before, after);
  EXPECT_EQ(stats.devicesChanged, 1);
  EXPECT_GT(stats.linesRemoved, 0);
}

TEST(Diff, PacketFilterMetrics) {
  ConfigTree before = parseNetworkConfig(figure1ConfigText());
  ConfigTree after = before.clone();
  Node* c = after.router("C");
  Node& pf = c->addChild(NodeKind::kPacketFilter);
  pf.setAttr("name", "pf_new");
  Node& rule = pf.addChild(NodeKind::kPacketFilterRule);
  rule.setAttr("seq", "10");
  rule.setAttr("action", "deny");
  rule.setAttr("srcPrefix", "3.0.0.0/16");
  rule.setAttr("dstPrefix", "0.0.0.0/0");

  EXPECT_EQ(packetFilterRulesAdded(before, after), 1);
  EXPECT_EQ(packetFiltersAdded(before, after), 1);
  EXPECT_EQ(packetFilterRulesAdded(before, before), 0);
  EXPECT_EQ(packetFiltersAdded(before, before), 0);
}

TEST(Diff, TemplateGroupsAndViolations) {
  // Build three routers: two share identical filters (a template), one
  // differs.
  const std::string text =
      "hostname R1\n"
      "packet-filter pf seq 10 deny 3.0.0.0/16 any\n"
      "packet-filter pf seq 20 permit any any\n"
      "hostname R2\n"
      "packet-filter pf seq 10 deny 3.0.0.0/16 any\n"
      "packet-filter pf seq 20 permit any any\n"
      "hostname R3\n"
      "packet-filter pf seq 10 permit any any\n";
  ConfigTree before = parseNetworkConfig(text);
  const TemplateGroups groups = computeTemplateGroups(before);
  ASSERT_EQ(groups.groups.size(), 1u);
  EXPECT_EQ(groups.groups[0], (std::vector<std::string>{"R1", "R2"}));

  EXPECT_EQ(countTemplateViolations(groups, before), 0);

  // Modifying the filter on only one member violates the template.
  ConfigTree after = before.clone();
  Node* pf = after.byPath("Router[name=R1]/PacketFilter[name=pf]");
  pf->removeChild(*pf->children()[0]);
  EXPECT_EQ(countTemplateViolations(groups, after), 1);
  EXPECT_DOUBLE_EQ(templateViolationPct(groups, after), 100.0);

  // Applying the same change to both members preserves the template.
  Node* pf2 = after.byPath("Router[name=R2]/PacketFilter[name=pf]");
  pf2->removeChild(*pf2->children()[0]);
  EXPECT_EQ(countTemplateViolations(groups, after), 0);
}

}  // namespace
}  // namespace aed
