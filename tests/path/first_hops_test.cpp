#include "path/first_hops.hpp"

#include <gtest/gtest.h>

#include "support/brute_force.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig2;

std::vector<NodeId> to_global(const LocalView& view,
                              const std::vector<std::uint32_t>& locals) {
  std::vector<NodeId> out;
  for (std::uint32_t l : locals) out.push_back(view.global_id(l));
  return out;
}

TEST(FirstHops, PaperFig2Examples) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = compute_first_hops<BandwidthMetric>(view);

  // fPBW(u,v3) = {v1, v2} with B̃W(u,v3) = 4 (paper §III-A).
  const std::uint32_t lv3 = view.local_id(Fig2::v3);
  EXPECT_EQ(to_global(view, table.fp[lv3]),
            (std::vector<NodeId>{Fig2::v1, Fig2::v2}));
  EXPECT_DOUBLE_EQ(table.best[lv3], 4.0);

  // u reaches its 1-hop neighbor v5 best through v1 (value 5 vs direct 2).
  const std::uint32_t lv5 = view.local_id(Fig2::v5);
  EXPECT_EQ(to_global(view, table.fp[lv5]), (std::vector<NodeId>{Fig2::v1}));
  EXPECT_DOUBLE_EQ(table.best[lv5], 5.0);

  // u·v1·v5·v4 (bandwidth 5) beats the direct link of bandwidth 3.
  const std::uint32_t lv4 = view.local_id(Fig2::v4);
  EXPECT_EQ(to_global(view, table.fp[lv4]), (std::vector<NodeId>{Fig2::v1}));
  EXPECT_DOUBLE_EQ(table.best[lv4], 5.0);

  // The hidden v8–v9 link caps u's view of v9 at 3, via v7.
  const std::uint32_t lv9 = view.local_id(Fig2::v9);
  EXPECT_EQ(to_global(view, table.fp[lv9]), (std::vector<NodeId>{Fig2::v7}));
  EXPECT_DOUBLE_EQ(table.best[lv9], 3.0);

  // v11 hangs off v6: single best first hop.
  const std::uint32_t lv11 = view.local_id(Fig2::v11);
  EXPECT_EQ(to_global(view, table.fp[lv11]), (std::vector<NodeId>{Fig2::v6}));
  EXPECT_DOUBLE_EQ(table.best[lv11], 5.0);
}

TEST(FirstHops, DirectLinkOptimalContainsSelf) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = compute_first_hops<BandwidthMetric>(view);
  // (u,v6) is u's best link — fP(u,v6) must contain v6 itself.
  const std::uint32_t lv6 = view.local_id(Fig2::v6);
  EXPECT_EQ(to_global(view, table.fp[lv6]), (std::vector<NodeId>{Fig2::v6}));
  // Same for v7 (paper: "u will not select another ANS for reaching v7").
  const std::uint32_t lv7 = view.local_id(Fig2::v7);
  EXPECT_EQ(to_global(view, table.fp[lv7]), (std::vector<NodeId>{Fig2::v7}));
}

TEST(FirstHops, OriginHasIdentity) {
  const Graph g = Fig2::build();
  const LocalView view(g, Fig2::u);
  const FirstHopTable table = compute_first_hops<BandwidthMetric>(view);
  EXPECT_EQ(table.best[LocalView::origin_index()],
            BandwidthMetric::identity());
  EXPECT_TRUE(table.fp[LocalView::origin_index()].empty());
}

TEST(FirstHops, DelayMetricFindsCheapestChain) {
  // Delay graph: direct (5), 2-hop detour (1+1): fP = {detour}.
  Graph g(4);
  LinkQos slow, fast;
  slow.delay = 5.0;
  fast.delay = 1.0;
  g.add_edge(0, 1, slow);
  g.add_edge(0, 2, fast);
  g.add_edge(2, 1, fast);
  g.add_edge(1, 3, fast);
  const LocalView view(g, 0);
  const FirstHopTable table = compute_first_hops<DelayMetric>(view);
  const std::uint32_t l1 = view.local_id(1);
  EXPECT_EQ(to_global(view, table.fp[l1]), (std::vector<NodeId>{2}));
  EXPECT_DOUBLE_EQ(table.best[l1], 2.0);
}

class FirstHopsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationBandwidth) {
  const Graph g = testing::random_uniform_graph(GetParam(), 8, 0.4);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    if (view.size() > 10) continue;  // keep the exhaustive search tractable
    const FirstHopTable table = compute_first_hops<BandwidthMetric>(view);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      const auto expected =
          brute_force_first_hops<BandwidthMetric>(view, v);
      EXPECT_EQ(table.fp[v], expected)
          << "u=" << u << " v=" << view.global_id(v);
    }
  }
}

TEST_P(FirstHopsPropertyTest, MatchesBruteForceEnumerationDelay) {
  const Graph g = testing::random_uniform_graph(GetParam() + 500, 8, 0.4);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    if (view.size() > 10) continue;
    const FirstHopTable table = compute_first_hops<DelayMetric>(view);
    for (std::uint32_t v = 1; v < view.size(); ++v) {
      const auto expected = brute_force_first_hops<DelayMetric>(view, v);
      EXPECT_EQ(table.fp[v], expected)
          << "u=" << u << " v=" << view.global_id(v);
    }
  }
}

TEST_P(FirstHopsPropertyTest, FirstHopsAreAlwaysOneHopNeighbors) {
  const Graph g = testing::random_geometric_graph(GetParam(), 8.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const LocalView view(g, u);
    const FirstHopTable table = compute_first_hops<BandwidthMetric>(view);
    for (std::uint32_t v = 1; v < view.size(); ++v)
      for (std::uint32_t w : table.fp[v]) EXPECT_TRUE(view.is_one_hop(w));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FirstHopsPropertyTest,
                         ::testing::Range<std::uint64_t>(1, 7));

}  // namespace
}  // namespace qolsr
