#include <gtest/gtest.h>

#include <set>

#include "conftree/parser.hpp"
#include "fixtures.hpp"
#include "gen/netgen.hpp"
#include "sketch/sketch.hpp"
#include "topology/topology.hpp"

namespace aed {
namespace {

using aed::testing::cls;
using aed::testing::figure1ConfigText;

class Figure1Sketch : public ::testing::Test {
 protected:
  Figure1Sketch()
      : tree_(parseNetworkConfig(figure1ConfigText())),
        topo_(Topology::fromConfigs(tree_)) {}

  Sketch build(const PolicySet& policies, SketchOptions options = {}) {
    return buildSketch(tree_, topo_, policies, options);
  }

  ConfigTree tree_;
  Topology topo_;
};

TEST_F(Figure1Sketch, CreatesRemovalDeltasForCurrentNodes) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  // B's packet filter rule deny 3/16 any overlaps the class: rm + flip.
  EXPECT_NE(sketch.findByName("rm_B_pFil_pf_b_10"), nullptr);
  EXPECT_NE(sketch.findByName("flip_B_pFil_pf_b_10"), nullptr);
  // Adjacency removals exist for configured adjacencies.
  EXPECT_NE(sketch.findByName("rm_B_bgp.65002_Adj_A"), nullptr);
  EXPECT_NE(sketch.findByName("rm_D_bgp.65004_Adj_B"), nullptr);
}

TEST_F(Figure1Sketch, CreatesPerDestinationAdditions) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  // Rule addition on B's existing route filter for dst 2.0.0.0/16.
  EXPECT_NE(sketch.findByName("add_B_bgp.65002_rFil_rf_a_2.0.0.0.16"),
            nullptr);
  // Packet-filter rule addition for the class on pf_b.
  EXPECT_NE(sketch.findByName(
                "add_B_pFil_pf_b_3.0.0.0.16_2.0.0.0.16"),
            nullptr);
  // Static-route additions toward each neighbor.
  EXPECT_NE(sketch.findByName("add_D_static_2.0.0.0.16_via_B"), nullptr);
}

TEST_F(Figure1Sketch, NoAdjacencyAdditionWithoutPhysicalLink) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  // A-D are not physically connected.
  EXPECT_EQ(sketch.findByName("add_A_bgp.65001_Adj_D"), nullptr);
  EXPECT_EQ(sketch.findByName("add_D_bgp.65004_Adj_A"), nullptr);
}

TEST_F(Figure1Sketch, OriginationAddsOnlyAtAttachmentPoints) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  // Only B can deliver 2.0.0.0/16 — and B already originates it, so no add
  // anywhere.
  for (const DeltaVar& delta : sketch.deltas()) {
    EXPECT_NE(delta.kind, DeltaKind::kAddOrigination) << delta.name;
  }
}

TEST_F(Figure1Sketch, PruningDropsIrrelevantRules) {
  // Policy about 4.0.0.0/16: B's rf_a deny rule for 1.0.0.0/16 is
  // irrelevant, as is the pf_b rule for 3.0.0.0/16 -> any (src does not
  // overlap 2/16).
  const PolicySet policies = {
      Policy::reachability(cls("2.0.0.0/16", "4.0.0.0/16"))};
  const Sketch pruned = build(policies);
  EXPECT_EQ(pruned.findByName("rm_B_bgp.65002_rFil_rf_a_10"), nullptr);

  SketchOptions noPrune;
  noPrune.pruneIrrelevant = false;
  const Sketch full = build(policies, noPrune);
  EXPECT_NE(full.findByName("rm_B_bgp.65002_rFil_rf_a_10"), nullptr);
  EXPECT_GT(full.deltas().size(), pruned.deltas().size());
}

TEST_F(Figure1Sketch, DestinationScopedDropsBroadRemovals) {
  SketchOptions scoped;
  scoped.destinationScoped = true;
  const Sketch sketch = build({aed::testing::figure1P3()}, scoped);
  for (const DeltaVar& delta : sketch.deltas()) {
    EXPECT_NE(delta.kind, DeltaKind::kRemoveAdjacency) << delta.name;
    EXPECT_NE(delta.kind, DeltaKind::kRemoveProcess) << delta.name;
    // pf_b's "deny 3/16 -> any" has dst "any", broader than 2.0.0.0/16.
    EXPECT_NE(delta.name, "rm_B_pFil_pf_b_10");
    EXPECT_NE(delta.name, "flip_B_pFil_pf_b_10");
  }
  // Class-specific additions are still offered.
  EXPECT_NE(sketch.findByName("add_B_pFil_pf_b_3.0.0.0.16_2.0.0.0.16"),
            nullptr);
}

TEST_F(Figure1Sketch, OptionTogglesSuppressFamilies) {
  SketchOptions options;
  options.allowStaticRoutes = false;
  options.allowPacketFilterChanges = false;
  const Sketch sketch = build({aed::testing::figure1P3()}, options);
  for (const DeltaVar& delta : sketch.deltas()) {
    EXPECT_NE(delta.kind, DeltaKind::kAddStaticRoute) << delta.name;
    EXPECT_NE(delta.kind, DeltaKind::kAddPacketFilterRule) << delta.name;
    EXPECT_NE(delta.kind, DeltaKind::kRemovePacketFilterRule) << delta.name;
  }
}

TEST_F(Figure1Sketch, VirtualPathsForAdditions) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  const DeltaVar* addStatic =
      sketch.findByName("add_D_static_2.0.0.0.16_via_B");
  ASSERT_NE(addStatic, nullptr);
  EXPECT_EQ(addStatic->virtualPath(),
            "Router[name=D]/RoutingProcess[type=static,name=main]/"
            "Origination[prefix=2.0.0.0/16]");
  const DeltaVar* addRule =
      sketch.findByName("add_B_pFil_pf_b_3.0.0.0.16_2.0.0.0.16");
  ASSERT_NE(addRule, nullptr);
  EXPECT_EQ(addRule->virtualPath(),
            "Router[name=B]/PacketFilter[name=pf_b]/"
            "PacketFilterRule[seq=new:3.0.0.0/16>2.0.0.0/16]");
}

TEST_F(Figure1Sketch, RelativeKeysAlignAcrossRouters) {
  const Sketch sketch = build({aed::testing::figure1P3()});
  const DeltaVar* rm = sketch.findByName("rm_B_pFil_pf_b_10");
  ASSERT_NE(rm, nullptr);
  EXPECT_EQ(rm->relativeKey("Router[name=B]/PacketFilter[name=pf_b]"),
            "rm-pfilter-rule@PacketFilterRule[seq=10]");
  EXPECT_EQ(rm->relativeKey("Router[name=C]"), "");
}

// The §5.2 upper bound: the number of delta variables is O(R^2 * P).
TEST(SketchBound, GrowsWithinQuadraticEnvelope) {
  for (int racks : {2, 4, 8}) {
    DcParams params;
    params.racks = racks;
    params.aggs = 2;
    params.spines = 2;
    params.seed = 11;
    const GeneratedNetwork net = generateDatacenter(params);
    const Topology topo = Topology::fromConfigs(net.tree);

    // One destination class per rack subnet; policies across all pairs.
    PolicySet policies;
    for (const auto& [srcRouter, src] : net.hostSubnets) {
      for (const auto& [dstRouter, dst] : net.hostSubnets) {
        if (src == dst) continue;
        policies.push_back(Policy::reachability(TrafficClass{src, dst}));
      }
    }
    const Sketch sketch = buildSketch(net.tree, topo, policies);
    const std::size_t routers = net.tree.routers().size();
    const std::size_t prefixes = net.hostSubnets.size();
    // O(R^2 * P) with a small constant; assert the envelope generously.
    EXPECT_LE(sketch.deltas().size(), 4 * routers * routers * prefixes)
        << "racks=" << racks;
    EXPECT_GE(sketch.deltas().size(), prefixes) << "racks=" << racks;
  }
}

TEST(SketchDeterminism, SameInputsSameDeltas) {
  const ConfigTree tree = parseNetworkConfig(figure1ConfigText());
  const Topology topo = Topology::fromConfigs(tree);
  const PolicySet policies = {aed::testing::figure1P3()};
  const Sketch a = buildSketch(tree, topo, policies);
  const Sketch b = buildSketch(tree, topo, policies);
  ASSERT_EQ(a.deltas().size(), b.deltas().size());
  for (std::size_t i = 0; i < a.deltas().size(); ++i) {
    EXPECT_EQ(a.deltas()[i].name, b.deltas()[i].name);
    EXPECT_EQ(a.deltas()[i].kind, b.deltas()[i].kind);
    EXPECT_EQ(a.deltas()[i].nodePath, b.deltas()[i].nodePath);
  }
}

}  // namespace
}  // namespace aed
