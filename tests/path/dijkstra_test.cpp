#include "path/dijkstra.hpp"

#include <gtest/gtest.h>

#include "path/path.hpp"
#include "support/brute_force.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

LinkQos qos(double bw, double d) {
  LinkQos q;
  q.bandwidth = bw;
  q.delay = d;
  return q;
}

TEST(Dijkstra, WidestPathOnFig1) {
  using F = testing::Fig1;
  const Graph g = F::build();
  const DijkstraResult r = dijkstra<BandwidthMetric>(g, F::v1);
  // Paper: the widest v1→v3 path is v1·v6·v5·v4·v3 with bandwidth 10.
  EXPECT_DOUBLE_EQ(r.value[F::v3], 10.0);
  const auto path = extract_path(r, F::v1, F::v3);
  EXPECT_EQ(path, (std::vector<std::uint32_t>{F::v1, F::v6, F::v5, F::v4,
                                              F::v3}));
}

TEST(Dijkstra, MinDelayPath) {
  Graph g(4);
  g.add_edge(0, 1, qos(1, 5));
  g.add_edge(1, 3, qos(1, 5));
  g.add_edge(0, 2, qos(1, 2));
  g.add_edge(2, 3, qos(1, 3));
  const DijkstraResult r = dijkstra<DelayMetric>(g, 0);
  EXPECT_DOUBLE_EQ(r.value[3], 5.0);
  EXPECT_EQ(extract_path(r, 0, 3), (std::vector<std::uint32_t>{0, 2, 3}));
}

TEST(Dijkstra, SourceHasIdentityValue) {
  Graph g(2);
  g.add_edge(0, 1, qos(4, 2));
  const auto rb = dijkstra<BandwidthMetric>(g, 0);
  EXPECT_EQ(rb.value[0], BandwidthMetric::identity());
  EXPECT_EQ(rb.hops[0], 0u);
  const auto rd = dijkstra<DelayMetric>(g, 0);
  EXPECT_EQ(rd.value[0], 0.0);
}

TEST(Dijkstra, UnreachableNodes) {
  Graph g(3);
  g.add_edge(0, 1, qos(4, 2));
  const auto r = dijkstra<DelayMetric>(g, 0);
  EXPECT_EQ(r.value[2], DelayMetric::unreachable());
  EXPECT_EQ(r.parent[2], kInvalidNode);
  EXPECT_TRUE(extract_path(r, 0, 2).empty());
}

TEST(Dijkstra, ExcludedVertexIsInvisible) {
  // 0-1-2 chain plus direct weak 0-2: excluding 1 forces the direct link.
  Graph g(3);
  g.add_edge(0, 1, qos(9, 1));
  g.add_edge(1, 2, qos(9, 1));
  g.add_edge(0, 2, qos(2, 9));
  const auto with1 = dijkstra<BandwidthMetric>(g, 0);
  EXPECT_DOUBLE_EQ(with1.value[2], 9.0);
  const auto without1 = dijkstra<BandwidthMetric>(g, 0, /*excluded=*/1);
  EXPECT_DOUBLE_EQ(without1.value[2], 2.0);
  EXPECT_EQ(without1.value[1], BandwidthMetric::unreachable());
}

TEST(Dijkstra, ExcludedSourceReachesNothing) {
  Graph g(2);
  g.add_edge(0, 1, qos(4, 2));
  const auto r = dijkstra<DelayMetric>(g, 0, /*excluded=*/0);
  EXPECT_EQ(r.value[1], DelayMetric::unreachable());
}

TEST(Dijkstra, HopTieBreakPrefersShorterPath) {
  // Two equal-bandwidth routes 0→3: 2 hops vs 3 hops.
  Graph g(5);
  g.add_edge(0, 1, qos(5, 1));
  g.add_edge(1, 3, qos(5, 1));
  g.add_edge(0, 2, qos(5, 1));
  g.add_edge(2, 4, qos(5, 1));
  g.add_edge(4, 3, qos(5, 1));
  const auto r = dijkstra<BandwidthMetric>(g, 0);
  EXPECT_DOUBLE_EQ(r.value[3], 5.0);
  EXPECT_EQ(r.hops[3], 2u);
  EXPECT_EQ(extract_path(r, 0, 3).size(), 3u);
}

TEST(Dijkstra, RunsOnLocalViews) {
  using F = testing::Fig2;
  const Graph g = F::build();
  const LocalView view(g, F::u);
  const auto r = dijkstra<BandwidthMetric>(view, LocalView::origin_index());
  // Best u→v4 inside G_u: u·v1·v5·v4 of bandwidth 5 (paper §III-B).
  EXPECT_DOUBLE_EQ(r.value[view.local_id(F::v4)], 5.0);
  // v9 is only visible through v7 (3): the v8–v9 shortcut is hidden.
  EXPECT_DOUBLE_EQ(r.value[view.local_id(F::v9)], 3.0);
}

TEST(Dijkstra, LocalViewValueCanBeWorseThanGlobal) {
  // The localized-knowledge limitation of §III-B: globally u→v9 has width 5.
  using F = testing::Fig2;
  const Graph g = F::build();
  const auto global = dijkstra<BandwidthMetric>(g, F::u);
  EXPECT_DOUBLE_EQ(global.value[F::v9], 5.0);
}

struct MetricCase {
  std::uint64_t seed;
};

class DijkstraVsBruteForce : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(DijkstraVsBruteForce, BandwidthMatchesExhaustiveSearch) {
  const Graph g = testing::random_uniform_graph(GetParam(), 9, 0.35);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto r = dijkstra<BandwidthMetric>(g, s);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (t == s) continue;
      const auto brute =
          brute_force_best_paths<BandwidthMetric, Graph>(g, s, t);
      if (brute.optimal_paths.empty()) {
        EXPECT_EQ(r.value[t], BandwidthMetric::unreachable());
      } else {
        EXPECT_TRUE(metric_equal(r.value[t], brute.best))
            << s << "→" << t << ": " << r.value[t] << " vs " << brute.best;
      }
    }
  }
}

TEST_P(DijkstraVsBruteForce, DelayMatchesExhaustiveSearch) {
  const Graph g = testing::random_uniform_graph(GetParam() + 1000, 9, 0.35);
  for (NodeId s = 0; s < g.node_count(); ++s) {
    const auto r = dijkstra<DelayMetric>(g, s);
    for (NodeId t = 0; t < g.node_count(); ++t) {
      if (t == s) continue;
      const auto brute = brute_force_best_paths<DelayMetric, Graph>(g, s, t);
      if (brute.optimal_paths.empty()) {
        EXPECT_EQ(r.value[t], DelayMetric::unreachable());
      } else {
        EXPECT_TRUE(metric_equal(r.value[t], brute.best))
            << s << "→" << t << ": " << r.value[t] << " vs " << brute.best;
      }
    }
  }
}

TEST_P(DijkstraVsBruteForce, ExtractedPathRealizesReportedValue) {
  const Graph g = testing::random_uniform_graph(GetParam() + 2000, 10, 0.3);
  const auto r = dijkstra<BandwidthMetric>(g, 0);
  for (NodeId t = 1; t < g.node_count(); ++t) {
    const auto path = extract_path(r, 0, t);
    if (path.empty()) continue;
    Path p(path.begin(), path.end());
    EXPECT_TRUE(is_simple_path(g, p));
    EXPECT_TRUE(
        metric_equal(evaluate_path<BandwidthMetric>(g, p), r.value[t]));
    EXPECT_EQ(p.size() - 1, r.hops[t]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraVsBruteForce,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace qolsr
