// The library's forwarding (CSR advertised base + KnowledgeView patches +
// reused Dijkstra/BFS scratch) must return *bit-identical*
// ForwardingResults to the reference oracle in tests/support (per-hop
// Graph copies + allocating compute_next_hop) — same status, same node
// sequence, same double value — for every metric, every routing model, and
// both routing disciplines. The figures compare protocols at the third
// decimal; any drift here silently changes published numbers.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "graph/local_view.hpp"
#include "metrics/metric.hpp"
#include "routing/advertised_topology.hpp"
#include "routing/forwarding.hpp"
#include "support/random_graphs.hpp"
#include "support/reference_routing.hpp"

namespace qolsr {
namespace {

std::vector<std::vector<NodeId>> fnbp_ans(const Graph& g) {
  std::vector<std::vector<NodeId>> ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = select_fnbp_ans<BandwidthMetric>(LocalView(g, u));
  return ans;
}

void expect_same(const ForwardingResult& oracle, const ForwardingResult& ws,
                 const std::string& context) {
  EXPECT_EQ(static_cast<int>(oracle.status), static_cast<int>(ws.status))
      << context;
  EXPECT_EQ(oracle.path, ws.path) << context;
  EXPECT_EQ(oracle.value, ws.value) << context;  // bit-identical, not tolerant
}

/// Drives every (s, d) pair of one random graph through the reference and
/// the library implementations of all three routing models, under both
/// routing disciplines and both knowledge modes.
template <Metric M>
void check_metric(std::uint64_t seed_value) {
  const Graph g = testing::random_geometric_graph(seed_value, 6.0, 260.0);
  const auto ans = fnbp_ans(g);
  const Graph advertised_graph = reference::build_advertised_topology(g, ans);

  AdvertisedTopologyBuilder builder;
  CsrTopology advertised_csr;
  builder.build_advertised(g, ans, advertised_csr);
  ForwardingWorkspace ws;

  const std::size_t n = g.node_count();
  ASSERT_GE(n, 2u);
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      for (const bool min_hop : {false, true}) {
        for (const bool local_views : {false, true}) {
          ForwardingOptions options;
          options.min_hop_routing = min_hop;
          options.use_local_views = local_views;
          const std::string context =
              std::string(M::name()) + " s=" + std::to_string(s) +
              " d=" + std::to_string(d) + " min_hop=" +
              std::to_string(min_hop) + " local=" + std::to_string(local_views);

          expect_same(
              reference::forward_packet<M>(g, advertised_graph, s, d, options),
              forward_packet<M>(g, advertised_csr, s, d, options, ws),
              "hop-by-hop " + context);
          expect_same(
              reference::source_route_packet<M>(g, advertised_graph, s, d,
                                                options),
              source_route_packet<M>(g, advertised_csr, s, d, options, ws),
              "source-route " + context);
          if (!local_views) {  // the chain model has no local-view knob
            expect_same(reference::forward_via_ans<M>(g, ans, s, d, options),
                        forward_via_ans<M>(g, ans, s, d, options, ws),
                        "ans-chain " + context);
          }
        }
      }
    }
  }
}

TEST(ForwardingEquivalence, Bandwidth) { check_metric<BandwidthMetric>(7); }
TEST(ForwardingEquivalence, Delay) { check_metric<DelayMetric>(11); }
TEST(ForwardingEquivalence, Jitter) { check_metric<JitterMetric>(23); }
TEST(ForwardingEquivalence, Loss) { check_metric<LossMetric>(31); }
TEST(ForwardingEquivalence, Energy) { check_metric<EnergyMetric>(43); }
TEST(ForwardingEquivalence, Buffers) { check_metric<BuffersMetric>(59); }

TEST(ForwardingEquivalence, NonGeometricTopology) {
  // Erdős–Rényi corners: high-degree hubs and non-metric link structure.
  check_metric<BandwidthMetric>(101);
  const Graph g = testing::random_uniform_graph(77, 40, 0.15);
  const auto ans = fnbp_ans(g);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  const Graph adv = reference::build_advertised_topology(g, ans);
  ForwardingWorkspace ws;
  ForwardingOptions options;
  for (NodeId s = 0; s < g.node_count(); ++s)
    for (NodeId d = 0; d < g.node_count(); ++d)
      if (s != d)
        expect_same(reference::forward_packet<DelayMetric>(g, adv, s, d,
                                                           options),
                    forward_packet<DelayMetric>(g, csr, s, d, options, ws),
                    "uniform s=" + std::to_string(s) +
                        " d=" + std::to_string(d));
}

TEST(ForwardingEquivalence, CsrTopologyMatchesGraphAdjacency) {
  // The CSR rows must be the sorted, deduplicated image of the advertised
  // Graph — identical edge sets, identical iteration order.
  const Graph g = testing::random_geometric_graph(13, 7.0, 280.0);
  const auto ans = fnbp_ans(g);
  const Graph adv = reference::build_advertised_topology(g, ans);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  builder.build_advertised(g, ans, csr);
  ASSERT_EQ(csr.node_count(), adv.node_count());
  for (NodeId u = 0; u < adv.node_count(); ++u) {
    const auto expected = adv.neighbors(u);
    const auto actual = csr.neighbors(u);
    ASSERT_EQ(actual.size(), expected.size()) << "row " << u;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(actual[i].to, expected[i].to) << "row " << u;
      EXPECT_EQ(actual[i].qos.bandwidth, expected[i].qos.bandwidth);
      EXPECT_EQ(actual[i].qos.delay, expected[i].qos.delay);
    }
  }
}

TEST(ForwardingEquivalence, NonNeighborAnsMemberThrows) {
  // Release builds used to drop the link silently (assert + if); both the
  // reference Graph and the CSR builders must refuse loudly.
  Graph g(3);
  g.add_edge(0, 1);
  std::vector<std::vector<NodeId>> ans(3);
  ans[0] = {2};  // node 2 is not a neighbor of 0
  EXPECT_THROW(reference::build_advertised_topology(g, ans), std::logic_error);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  EXPECT_THROW(builder.build_advertised(g, ans, csr), std::logic_error);
  std::vector<std::vector<NodeId>> too_few(2);
  EXPECT_THROW(reference::build_advertised_topology(g, too_few),
               std::logic_error);
}

// The golden Fig. 8 CSV pin that used to live here moved to
// tests/eval/golden_figures_test.cpp, which gives Figs. 6, 7 and 9 the
// same treatment against the same byte-exact documents.

}  // namespace
}  // namespace qolsr
