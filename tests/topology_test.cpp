#include <gtest/gtest.h>

#include "conftree/parser.hpp"
#include "fixtures.hpp"
#include "topology/topology.hpp"
#include "util/error.hpp"

namespace aed {
namespace {

using aed::testing::figure1ConfigText;

class TopologyTest : public ::testing::Test {
 protected:
  TopologyTest()
      : tree_(parseNetworkConfig(figure1ConfigText())),
        topo_(Topology::fromConfigs(tree_)) {}

  ConfigTree tree_;
  Topology topo_;
};

TEST_F(TopologyTest, RoutersSorted) {
  EXPECT_EQ(topo_.routerNames(),
            (std::vector<std::string>{"A", "B", "C", "D"}));
}

TEST_F(TopologyTest, LinksDerivedFromSharedSubnets) {
  EXPECT_EQ(topo_.links().size(), 4u);
  EXPECT_TRUE(topo_.connected("A", "B"));
  EXPECT_TRUE(topo_.connected("B", "A"));
  EXPECT_TRUE(topo_.connected("B", "C"));
  EXPECT_TRUE(topo_.connected("A", "C"));
  EXPECT_TRUE(topo_.connected("B", "D"));
  EXPECT_FALSE(topo_.connected("A", "D"));
  EXPECT_FALSE(topo_.connected("C", "D"));
}

TEST_F(TopologyTest, Neighbors) {
  EXPECT_EQ(topo_.neighbors("B"),
            (std::vector<std::string>{"A", "C", "D"}));
  EXPECT_EQ(topo_.neighbors("D"), (std::vector<std::string>{"B"}));
}

TEST_F(TopologyTest, LinkBetweenCarriesInterfaces) {
  const auto link = topo_.linkBetween("A", "B");
  ASSERT_TRUE(link.has_value());
  EXPECT_EQ(link->subnet.str(), "10.0.1.0/30");
  // a < b lexicographically.
  EXPECT_EQ(link->a, "A");
  EXPECT_EQ(link->b, "B");
  EXPECT_EQ(link->ifaceA, "toB");
  EXPECT_EQ(link->ifaceB, "toA");
  EXPECT_FALSE(topo_.linkBetween("A", "D").has_value());
}

TEST_F(TopologyTest, StubSubnets) {
  const auto& stubs = topo_.stubSubnets();
  EXPECT_EQ(stubs.size(), 4u);
  EXPECT_EQ(stubs.at(*Ipv4Prefix::parse("1.0.0.0/16")), "A");
  EXPECT_EQ(stubs.at(*Ipv4Prefix::parse("3.0.0.0/16")), "D");
}

TEST_F(TopologyTest, AttachmentPoints) {
  EXPECT_EQ(topo_.attachmentPoints(tree_, *Ipv4Prefix::parse("1.0.0.0/16")),
            (std::vector<std::string>{"A"}));
  // A narrower prefix inside a stub subnet still attaches.
  EXPECT_EQ(topo_.attachmentPoints(tree_, *Ipv4Prefix::parse("1.0.5.0/24")),
            (std::vector<std::string>{"A"}));
  EXPECT_TRUE(
      topo_.attachmentPoints(tree_, *Ipv4Prefix::parse("99.0.0.0/16"))
          .empty());
}

TEST_F(TopologyTest, AddressLookups) {
  EXPECT_EQ(topo_.addressOn("A", "B")->str(), "10.0.1.1");
  EXPECT_EQ(topo_.addressOn("B", "A")->str(), "10.0.1.2");
  EXPECT_EQ(topo_.peerAddress("A", "B")->str(), "10.0.1.2");
  EXPECT_FALSE(topo_.addressOn("A", "D").has_value());
}

TEST(Topology, RejectsSharedSubnetAcrossThreeRouters) {
  const std::string text =
      "hostname A\ninterface e0\n ip address 10.0.0.1/24\n"
      "hostname B\ninterface e0\n ip address 10.0.0.2/24\n"
      "hostname C\ninterface e0\n ip address 10.0.0.3/24\n";
  ConfigTree tree = parseNetworkConfig(text);
  EXPECT_THROW(Topology::fromConfigs(tree), AedError);
}

TEST(Topology, RouterWithoutInterfaces) {
  ConfigTree tree = parseNetworkConfig("hostname Lonely\n");
  const Topology topo = Topology::fromConfigs(tree);
  EXPECT_EQ(topo.routerNames(), (std::vector<std::string>{"Lonely"}));
  EXPECT_TRUE(topo.links().empty());
  EXPECT_TRUE(topo.neighbors("Lonely").empty());
}

}  // namespace
}  // namespace aed
