// Tests for the directed ANS-chain machinery: the relay base built by
// AdvertisedTopologyBuilder::build_ans_chain, the hop-count-primary
// Dijkstra/next-hop, and forward_via_ans.
#include <gtest/gtest.h>

#include "core/fnbp.hpp"
#include "routing/forwarding.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;
using testing::Fig4;

LinkQos qos_bw(double b, double d = 1.0) {
  LinkQos q;
  q.bandwidth = b;
  q.delay = d;
  return q;
}

/// The directed relay base of a 3-node line 0–1–2 toward `destination`,
/// with the given advertised sets.
CsrTopology chain_base(const std::vector<std::vector<NodeId>>& ans,
                       NodeId destination) {
  Graph g(3);
  g.add_edge(0, 1, qos_bw(5));
  g.add_edge(1, 2, qos_bw(5));
  AdvertisedTopologyBuilder builder;
  CsrTopology base;
  builder.build_ans_chain(g, ans, destination, base);
  return base;
}

TEST(AnsChainBase, RelayEdgesAreOneWay) {
  const CsrTopology base = chain_base({{1}, {}, {}}, 2);
  EXPECT_TRUE(base.has_edge(0, 1));
  EXPECT_FALSE(base.has_edge(1, 0));
  EXPECT_EQ(base.neighbors(0).size(), 1u);
  EXPECT_TRUE(base.neighbors(1).empty());
}

TEST(AnsChainBase, AdvertisedLinkFromTheDestinationIsAFinalHop) {
  // 2 advertises 1: the link {1,2} is known network-wide, so 1 can
  // complete a delivery to 2 across it.
  const CsrTopology base = chain_base({{}, {}, {1}}, 2);
  EXPECT_TRUE(base.has_edge(2, 1));
  EXPECT_TRUE(base.has_edge(1, 2));
  EXPECT_FALSE(chain_base({{}, {}, {1}}, 0).has_edge(1, 2));
}

TEST(AnsChainBase, RowsSortedAndDeduplicated) {
  const CsrTopology base = chain_base({{}, {2, 0, 2}, {1}}, 2);
  ASSERT_EQ(base.neighbors(1).size(), 2u);
  EXPECT_EQ(base.neighbors(1)[0].to, 0u);
  EXPECT_EQ(base.neighbors(1)[1].to, 2u);
}

TEST(AnsChainBase, DijkstraRespectsDirection) {
  const CsrTopology base = chain_base({{1}, {2}, {}}, 0);
  const auto from0 = dijkstra<BandwidthMetric>(base, 0u);
  EXPECT_DOUBLE_EQ(from0.value[2], 5.0);
  const auto from2 = dijkstra<BandwidthMetric>(base, 2u);
  EXPECT_EQ(from2.value[0], BandwidthMetric::unreachable());
}

TEST(MinHopDijkstra, PrefersFewerHopsOverBetterValue) {
  // 0→2 direct (bandwidth 2) vs 0→1→2 (bandwidth 9): min-hop picks direct.
  Graph g(3);
  g.add_edge(0, 2, qos_bw(2));
  g.add_edge(0, 1, qos_bw(9));
  g.add_edge(1, 2, qos_bw(9));
  const auto r = dijkstra_min_hop<BandwidthMetric>(g, 0u);
  EXPECT_EQ(r.hops[2], 1u);
  EXPECT_DOUBLE_EQ(r.value[2], 2.0);
  // QoS-first takes the detour.
  const auto q = dijkstra<BandwidthMetric>(g, 0u);
  EXPECT_DOUBLE_EQ(q.value[2], 9.0);
}

TEST(MinHopDijkstra, QosBreaksHopTies) {
  // Two 2-hop routes: via 1 (width 3) and via 2 (width 7).
  Graph g(4);
  g.add_edge(0, 1, qos_bw(3));
  g.add_edge(1, 3, qos_bw(3));
  g.add_edge(0, 2, qos_bw(7));
  g.add_edge(2, 3, qos_bw(7));
  const auto r = dijkstra_min_hop<BandwidthMetric>(g, 0u);
  EXPECT_EQ(r.hops[3], 2u);
  EXPECT_DOUBLE_EQ(r.value[3], 7.0);
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 3), 2u);
}

TEST(MinHopDijkstra, DelayVariant) {
  Graph g(4);
  g.add_edge(0, 1, qos_bw(1, 9));
  g.add_edge(1, 3, qos_bw(1, 9));
  g.add_edge(0, 2, qos_bw(1, 2));
  g.add_edge(2, 3, qos_bw(1, 2));
  const auto r = dijkstra_min_hop<DelayMetric>(g, 0u);
  EXPECT_DOUBLE_EQ(r.value[3], 4.0);  // best among the 2-hop routes
}

TEST(MinHopNextHop, UnreachableAndSelf) {
  Graph g(3);
  g.add_edge(0, 1, qos_bw(1));
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 2), kInvalidNode);
  EXPECT_EQ(compute_min_hop_next_hop<BandwidthMetric>(g, 0, 0), kInvalidNode);
}

std::vector<std::vector<NodeId>> fnbp_sets(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  return ans;
}

TEST(AnsChain, Fig1FnbpStillFindsTheWidestPath) {
  const Graph g = Fig1::build();
  const auto r =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1, Fig1::v3);
  ASSERT_TRUE(r.delivered());
  EXPECT_DOUBLE_EQ(r.value, 10.0);
}

TEST(AnsChain, SelfAndNeighborDelivery) {
  const Graph g = Fig1::build();
  const auto self =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1, Fig1::v1);
  EXPECT_TRUE(self.delivered());
  const auto hop =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig1::v1, Fig1::v6);
  EXPECT_TRUE(hop.delivered());
  EXPECT_EQ(hop.path.size(), 2u);
}

TEST(AnsChain, LoopFixIsLoadBearingOnFig4) {
  // In the strict chain model the Fig.-4 bottleneck is fatal without the
  // loop-fix: A stops advertising D, the relay chains dead-end, and A
  // itself can no longer reach E (its only out-links lead away).
  const Graph g = Fig4::build();
  const auto with_fix =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig4::a, Fig4::e);
  EXPECT_TRUE(with_fix.delivered());

  FnbpOptions no_fix;
  no_fix.loop_fix = false;
  const FnbpSelector<BandwidthMetric> plain(no_fix);
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = plain.select(LocalView(g, u));
  // A's own links rescue A itself (A–D is usable as its immediate hop), but
  // the advertised chains are poorer: B must fall back to its own links and
  // the bottleneck path.
  const auto b_route =
      forward_via_ans<BandwidthMetric>(g, ans, Fig4::b, Fig4::e);
  const auto b_fixed =
      forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), Fig4::b, Fig4::e);
  EXPECT_TRUE(b_fixed.delivered());
  // Either the unfixed route fails or it is no better than the fixed one.
  if (b_route.delivered())
    EXPECT_FALSE(BandwidthMetric::better(b_route.value, b_fixed.value));
}

TEST(AnsChain, NoRouteAcrossComponents) {
  Graph g(4);
  g.add_edge(0, 1, qos_bw(1));
  g.add_edge(2, 3, qos_bw(1));
  const auto r = forward_via_ans<BandwidthMetric>(g, fnbp_sets(g), 0, 3);
  EXPECT_FALSE(r.delivered());
}

class AnsChainPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AnsChainPropertyTest, NeverLoopsAndNeverBeatsOptimum) {
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 280.0);
  const auto ans = fnbp_sets(g);
  for (NodeId s = 0; s < std::min<std::size_t>(g.node_count(), 15); ++s) {
    const auto optimal = dijkstra<BandwidthMetric>(g, s);
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (s == d) continue;
      const auto r = forward_via_ans<BandwidthMetric>(g, ans, s, d);
      EXPECT_NE(r.status, ForwardingStatus::kLoop) << s << "→" << d;
      EXPECT_NE(r.status, ForwardingStatus::kHopLimit) << s << "→" << d;
      if (r.delivered())
        EXPECT_FALSE(BandwidthMetric::better(r.value, optimal.value[d]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnsChainPropertyTest,
                         ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace qolsr
