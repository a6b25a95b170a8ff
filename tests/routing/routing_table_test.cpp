#include "routing/routing_table.hpp"

#include <gtest/gtest.h>

#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

TEST(NextHop, FollowsWidestPathsOnFig1) {
  const Graph g = Fig1::build();
  // Widest v1→v3 goes over v6 (bandwidth 10 vs 6 over v2).
  EXPECT_EQ(compute_next_hop<BandwidthMetric>(g, Fig1::v1, Fig1::v3),
            Fig1::v6);
  // Direct neighbors route directly when the link is on a best path.
  EXPECT_EQ(compute_next_hop<BandwidthMetric>(g, Fig1::v1, Fig1::v6),
            Fig1::v6);
}

TEST(NextHop, SelfAndUnreachable) {
  Graph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 0), kInvalidNode);
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 1), 1u);
  EXPECT_EQ(compute_next_hop<DelayMetric>(g, 0, 2), kInvalidNode);
}

TEST(NextHop, IsAlwaysANeighbor) {
  const Graph g = testing::random_geometric_graph(321, 8.0);
  for (NodeId u = 0; u < std::min<std::size_t>(g.node_count(), 20); ++u) {
    const DijkstraResult reach = dijkstra<BandwidthMetric>(g, u);
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (d == u) continue;
      const NodeId hop = compute_next_hop<BandwidthMetric>(g, u, d);
      if (reach.value[d] == BandwidthMetric::unreachable()) {
        EXPECT_EQ(hop, kInvalidNode) << u << "→" << d;
        continue;
      }
      EXPECT_TRUE(g.has_edge(u, hop)) << u << "→" << d << " via " << hop;
    }
  }
}

}  // namespace
}  // namespace qolsr
