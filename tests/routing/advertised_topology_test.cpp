#include "routing/advertised_topology.hpp"

#include <gtest/gtest.h>

#include "support/paper_graphs.hpp"
#include "support/reference_routing.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

CsrTopology advertise(const Graph& g,
                      const std::vector<std::vector<NodeId>>& ans) {
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  return csr;
}

TEST(AdvertisedTopology, UnionOfSelections) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  ans[Fig1::v4] = {Fig1::v5};
  const CsrTopology adv = advertise(g, ans);
  EXPECT_EQ(adv.node_count(), g.node_count());
  EXPECT_EQ(adv.edge_count(), 4u);  // two links, both directions
  EXPECT_TRUE(adv.has_edge(Fig1::v1, Fig1::v2));
  EXPECT_TRUE(adv.has_edge(Fig1::v2, Fig1::v1));
  EXPECT_TRUE(adv.has_edge(Fig1::v4, Fig1::v5));
  EXPECT_FALSE(adv.has_edge(Fig1::v1, Fig1::v6));
}

TEST(AdvertisedTopology, DuplicateSelectionsCollapse) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  ans[Fig1::v2] = {Fig1::v1};  // both ends advertise the same link
  EXPECT_EQ(advertise(g, ans).edge_count(), 2u);
}

TEST(AdvertisedTopology, QosCopiedFromFullGraph) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  const CsrTopology adv = advertise(g, ans);
  ASSERT_NE(adv.edge_qos(Fig1::v1, Fig1::v2), nullptr);
  EXPECT_EQ(adv.edge_qos(Fig1::v1, Fig1::v2)->bandwidth,
            g.edge_qos(Fig1::v1, Fig1::v2)->bandwidth);
}

TEST(ReferenceMergeLocalView, AddsOnlyMissingLinks) {
  const Graph g = Fig1::build();
  std::vector<std::vector<NodeId>> ans(g.node_count());
  ans[Fig1::v1] = {Fig1::v2};
  Graph base = reference::build_advertised_topology(g, ans);
  const std::size_t before = base.edge_count();
  reference::merge_local_view(base, LocalView(g, Fig1::v1));
  // G_v1 covers every link incident to N(v1) = {v2,v5,v6}: all 9 Fig.-1
  // edges except (v4,v3); (v1,v2) already existed, so 7 are added.
  EXPECT_EQ(base.edge_count(), before + 7);
  EXPECT_TRUE(base.has_edge(Fig1::v1, Fig1::v6));
  reference::merge_local_view(base, LocalView(g, Fig1::v1));  // idempotent
  EXPECT_EQ(base.edge_count(), before + 7);
}

TEST(AverageSetSize, Basics) {
  EXPECT_EQ(average_set_size({}), 0.0);
  EXPECT_DOUBLE_EQ(average_set_size({{1, 2}, {}, {3}}), 1.0);
  EXPECT_DOUBLE_EQ(average_set_size({{1, 2, 3, 4}}), 4.0);
}

}  // namespace
}  // namespace qolsr
