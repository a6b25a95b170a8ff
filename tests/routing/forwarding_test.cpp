#include "routing/forwarding.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/fnbp.hpp"
#include "graph/connectivity.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

using testing::Fig1;

using AnsSets = std::vector<std::vector<NodeId>>;

AnsSets fnbp_advertised(const Graph& g) {
  const FnbpSelector<BandwidthMetric> fnbp;
  AnsSets ans(g.node_count());
  for (NodeId u = 0; u < g.node_count(); ++u)
    ans[u] = fnbp.select(LocalView(g, u));
  return ans;
}

TEST(Forwarding, TrivialSelfDelivery) {
  const Graph g = Fig1::build();
  const AnsSets adv = fnbp_advertised(g);
  const auto r = forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v1);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{Fig1::v1}));
  EXPECT_EQ(r.value, BandwidthMetric::identity());
}

TEST(Forwarding, OneHopDelivery) {
  const Graph g = Fig1::build();
  const AnsSets adv = fnbp_advertised(g);
  const auto r = forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v6);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{Fig1::v1, Fig1::v6}));
  EXPECT_DOUBLE_EQ(r.value, 10.0);
}

TEST(Forwarding, NoRouteAcrossComponents) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  const AnsSets adv = fnbp_advertised(g);
  const auto r = forward_packet<BandwidthMetric>(g, adv, 0, 3);
  EXPECT_FALSE(r.delivered());
  EXPECT_EQ(r.status, ForwardingStatus::kNoRoute);
}

TEST(Forwarding, ValueIsEvaluatedOnTheFullGraph) {
  const Graph g = Fig1::build();
  const AnsSets adv = fnbp_advertised(g);
  const auto r = forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3);
  ASSERT_TRUE(r.delivered());
  EXPECT_TRUE(metric_equal(r.value,
                           evaluate_path<BandwidthMetric>(g, r.path)));
}

TEST(Forwarding, SourceRouteAgreesOnFig1) {
  const Graph g = Fig1::build();
  const AnsSets adv = fnbp_advertised(g);
  const auto hop = forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3);
  const auto src =
      source_route_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3);
  ASSERT_TRUE(hop.delivered());
  ASSERT_TRUE(src.delivered());
  EXPECT_DOUBLE_EQ(hop.value, src.value);
}

TEST(Forwarding, AdvertisedOnlyModeUsesOwnLinksForFirstHop) {
  // With use_local_views=false the source still knows its own links.
  Graph g(3);
  LinkQos q;
  q.bandwidth = 4;
  g.add_edge(0, 1, q);
  g.add_edge(1, 2, q);
  AnsSets ans(3);
  ans[1] = {2};  // only link (1,2) is advertised
  ForwardingOptions opt;
  opt.use_local_views = false;
  const auto r = forward_packet<BandwidthMetric>(g, ans, 0, 2, opt);
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{0, 1, 2}));
}

TEST(Forwarding, HopCapTerminates) {
  const Graph g = Fig1::build();
  const AnsSets adv = fnbp_advertised(g);
  ForwardingOptions opt;
  opt.max_hops = 1;  // too small for the 4-hop widest route
  const auto r = forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3);
  EXPECT_TRUE(r.delivered());  // default cap is generous
  const auto capped =
      forward_packet<BandwidthMetric>(g, adv, Fig1::v1, Fig1::v3, opt);
  EXPECT_EQ(capped.status, ForwardingStatus::kHopLimit);
}

class ForwardingPropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ForwardingPropertyTest, FnbpDeliversBetweenAllConnectedPairs) {
  // Delivery + loop-freedom of hop-by-hop QoS forwarding over the FNBP
  // advertised topology, for every connected pair of a random network.
  const Graph g = testing::random_geometric_graph(GetParam(), 7.0, 280.0);
  const AnsSets adv = fnbp_advertised(g);
  const Components comp = connected_components(g);
  const std::size_t n = g.node_count();
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d || !comp.connected(s, d)) continue;
      const auto r = forward_packet<BandwidthMetric>(g, adv, s, d);
      EXPECT_TRUE(r.delivered())
          << s << "→" << d << " status " << static_cast<int>(r.status);
      EXPECT_NE(r.status, ForwardingStatus::kLoop);
    }
  }
}

TEST_P(ForwardingPropertyTest, DeliveredValueNeverBeatsOptimum) {
  const Graph g = testing::random_geometric_graph(GetParam() + 13, 8.0, 280.0);
  const AnsSets adv = fnbp_advertised(g);
  for (NodeId s = 0; s < std::min<std::size_t>(g.node_count(), 12); ++s) {
    const DijkstraResult optimal = dijkstra<BandwidthMetric>(g, s);
    for (NodeId d = 0; d < g.node_count(); ++d) {
      if (d == s) continue;
      const auto r = forward_packet<BandwidthMetric>(g, adv, s, d);
      if (!r.delivered()) continue;
      // b ≤ b*: the protocol can never do better than the centralized
      // optimum (sanity of the overhead definition).
      EXPECT_FALSE(BandwidthMetric::better(r.value, optimal.value[d]))
          << s << "→" << d;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardingPropertyTest,
                         ::testing::Values(9, 99, 999));

// -- stale advertised state (verify_links / advertised_snapshot) ----------
//
// A diamond whose wide branch 0–1–3 carries every route from 0 to 3; the
// narrow branch 0–2–3 is the detour. Every node advertises all of its
// neighbors. After the TC refresh the link 1–3 dies: the advertised state
// (the snapshot) still holds it, the real graph no longer does.
struct StaleDiamond {
  Graph snapshot{4};
  Graph now;
  AnsSets ans;

  StaleDiamond() {
    LinkQos wide;
    wide.bandwidth = 9;
    LinkQos narrow;
    narrow.bandwidth = 2;
    snapshot.add_edge(0, 1, wide);
    snapshot.add_edge(1, 3, wide);
    snapshot.add_edge(0, 2, narrow);
    snapshot.add_edge(2, 3, narrow);
    ans.resize(4);
    for (NodeId u = 0; u < 4; ++u)
      for (const Edge& e : snapshot.neighbors(u)) ans[u].push_back(e.to);
    now = snapshot;
    now.remove_edge(1, 3);
  }

  ForwardingOptions stale_options() const {
    ForwardingOptions options;
    options.verify_links = true;
    options.advertised_snapshot = &snapshot;
    return options;
  }
};

TEST(StaleLinks, FreshStateRoutesTheWideBranch) {
  const StaleDiamond net;
  const auto r = forward_packet<BandwidthMetric>(net.snapshot, net.ans, 0, 3,
                                                 net.stale_options());
  ASSERT_TRUE(r.delivered());
  EXPECT_EQ(r.path, (Path{0, 1, 3}));
}

TEST(StaleLinks, HopByHopStopsAtTheNodeHoldingThePacket) {
  const StaleDiamond net;
  const ForwardingOptions options = net.stale_options();
  AdvertisedTopologyBuilder builder;
  CsrTopology advertised;
  builder.build_advertised(net.snapshot, net.ans, advertised);
  ForwardingWorkspace ws;
  for (const ForwardingResult& r :
       {forward_packet<BandwidthMetric>(net.now, advertised, 0, 3, options,
                                        ws),
        forward_packet<BandwidthMetric>(net.now, net.ans, 0, 3, options)}) {
    EXPECT_EQ(r.status, ForwardingStatus::kStaleLink);
    EXPECT_EQ(r.path, (Path{0, 1}));
  }
}

TEST(StaleLinks, SourceRouteTruncatesToTheLastNodeReached) {
  const StaleDiamond net;
  const ForwardingOptions options = net.stale_options();
  AdvertisedTopologyBuilder builder;
  CsrTopology advertised;
  builder.build_advertised(net.snapshot, net.ans, advertised);
  ForwardingWorkspace ws;
  for (const ForwardingResult& r :
       {source_route_packet<BandwidthMetric>(net.now, advertised, 0, 3,
                                             options, ws),
        source_route_packet<BandwidthMetric>(net.now, net.ans, 0, 3,
                                             options)}) {
    EXPECT_EQ(r.status, ForwardingStatus::kStaleLink);
    EXPECT_EQ(r.path, (Path{0, 1}));
  }
}

TEST(StaleLinks, AnsChainPlansOverTheDeadRelayLink) {
  const StaleDiamond net;
  const ForwardingOptions options = net.stale_options();
  ForwardingWorkspace ws;
  for (const ForwardingResult& r :
       {forward_via_ans<BandwidthMetric>(net.now, net.ans, 0, 3, options, ws),
        forward_via_ans<BandwidthMetric>(net.now, net.ans, 0, 3, options)}) {
    EXPECT_EQ(r.status, ForwardingStatus::kStaleLink);
    EXPECT_EQ(r.path, (Path{0, 1}));
  }
  // Planned on the current graph instead, the chain takes the detour.
  ForwardingOptions fresh;
  fresh.verify_links = true;
  const auto detour =
      forward_via_ans<BandwidthMetric>(net.now, net.ans, 0, 3, fresh, ws);
  ASSERT_TRUE(detour.delivered());
  EXPECT_EQ(detour.path, (Path{0, 2, 3}));
}

TEST(AdvertisedTopologyBuilder, SizeMismatchThrows) {
  const Graph g = Fig1::build();
  const AnsSets too_few(g.node_count() - 1);
  AdvertisedTopologyBuilder builder;
  CsrTopology csr;
  EXPECT_THROW(builder.build_advertised(g, too_few, csr), std::logic_error);
  EXPECT_THROW(forward_packet<BandwidthMetric>(g, too_few, Fig1::v1, Fig1::v3),
               std::logic_error);
}

}  // namespace
}  // namespace qolsr
