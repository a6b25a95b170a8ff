#include "proto/neighbor_tables.hpp"

#include <gtest/gtest.h>

namespace qolsr {
namespace {

LinkQos qos_bw(double b) {
  LinkQos q;
  q.bandwidth = b;
  return q;
}

HelloMessage hello_from(NodeId origin,
                        std::vector<LinkAdvert> links = {}) {
  HelloMessage h;
  h.originator = origin;
  h.links = std::move(links);
  return h;
}

TEST(NeighborTables, TwoWayHandshake) {
  NeighborTables tables(/*self=*/0, /*hold=*/6.0);
  // First HELLO from 1 does not list us: asymmetric.
  tables.on_hello(hello_from(1), qos_bw(5), 0.0);
  EXPECT_FALSE(tables.is_symmetric(1));
  EXPECT_EQ(tables.heard_neighbors(), (std::vector<NodeId>{1}));
  EXPECT_TRUE(tables.symmetric_neighbors().empty());
  // Second HELLO lists us: symmetric.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kAsymmetric, qos_bw(5)}}),
                  qos_bw(5), 1.0);
  EXPECT_TRUE(tables.is_symmetric(1));
  EXPECT_EQ(tables.symmetric_neighbors(), (std::vector<NodeId>{1}));
}

TEST(NeighborTables, LinkQosStored) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(3, {{0, LinkStatus::kSymmetric, qos_bw(2)}}),
                  qos_bw(7.5), 0.0);
  ASSERT_NE(tables.link_qos(3), nullptr);
  EXPECT_EQ(tables.link_qos(3)->bandwidth, 7.5);
  EXPECT_EQ(tables.link_qos(99), nullptr);
}

TEST(NeighborTables, MprSelectorTracking) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kMpr, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  tables.on_hello(hello_from(2, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  EXPECT_TRUE(tables.selected_us_as_mpr(1));
  EXPECT_FALSE(tables.selected_us_as_mpr(2));
  EXPECT_EQ(tables.mpr_selectors(), (std::vector<NodeId>{1}));
  // A later HELLO that demotes us clears the flag.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 1.0);
  EXPECT_FALSE(tables.selected_us_as_mpr(1));
}

TEST(NeighborTables, ExpiryRemovesStaleLinks) {
  NeighborTables tables(0, /*hold=*/5.0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(1), 0.0);
  tables.expire(4.0);
  EXPECT_TRUE(tables.is_symmetric(1));
  tables.expire(5.5);
  EXPECT_FALSE(tables.is_symmetric(1));
  EXPECT_TRUE(tables.heard_neighbors().empty());
}

TEST(NeighborTables, BuildLocalViewFromHellos) {
  // Node 0 hears 1 and 2; 1 advertises a link to 3 (2-hop for us).
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {3, LinkStatus::kSymmetric, qos_bw(6)}}),
                  qos_bw(4), 0.0);
  tables.on_hello(hello_from(2, {{0, LinkStatus::kSymmetric, qos_bw(5)}}),
                  qos_bw(5), 0.0);
  const LocalView view = tables.build_local_view();
  EXPECT_EQ(view.origin(), 0u);
  ASSERT_EQ(view.one_hop().size(), 2u);
  ASSERT_EQ(view.two_hop().size(), 1u);
  EXPECT_EQ(view.global_id(view.two_hop()[0]), 3u);
  const LinkQos* q =
      view.local_edge_qos(view.local_id(1), view.local_id(3));
  ASSERT_NE(q, nullptr);
  EXPECT_EQ(q->bandwidth, 6.0);
}

TEST(NeighborTables, AsymmetricNeighborsExcludedFromView) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(1), qos_bw(4), 0.0);  // asymmetric only
  const LocalView view = tables.build_local_view();
  EXPECT_TRUE(view.one_hop().empty());
}

TEST(NeighborTables, AsymmetricAdvertsIgnoredInTwoHop) {
  // Links the neighbor itself only *heard* must not count as 2-hop links.
  NeighborTables tables(0);
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kAsymmetric, qos_bw(9)}}),
                  qos_bw(4), 0.0);
  const LocalView view = tables.build_local_view();
  EXPECT_TRUE(view.two_hop().empty());
}

// ---- selection epoch: moves iff build_local_view's input changed -------

LinkQos qos_bw_delay(double b, double d) {
  LinkQos q = qos_bw(b);
  q.delay = d;
  return q;
}

/// Node 0's symmetric neighbor 1, advertising links to 0 (status `to_us`)
/// and to 3 with QoS `to_three`.
HelloMessage hello_of_one(LinkStatus to_us, const LinkQos& to_three) {
  return hello_from(1, {{0, to_us, qos_bw(4)},
                        {3, LinkStatus::kSymmetric, to_three}});
}

TEST(NeighborTablesEpoch, IdenticalRefreshKeepsEpoch) {
  NeighborTables tables(0);
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  0.0);
  const std::uint64_t epoch = tables.view_epoch();
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  2.0);
  EXPECT_EQ(tables.view_epoch(), epoch);
  tables.expire(3.0);  // nothing lapses
  EXPECT_EQ(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, MprStatusFlipKeepsEpoch) {
  // kSymmetric <-> kMpr changes who forwards floods, not the local view.
  NeighborTables tables(0);
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  0.0);
  const std::uint64_t epoch = tables.view_epoch();
  tables.on_hello(hello_of_one(LinkStatus::kMpr, qos_bw(6)), qos_bw(4), 1.0);
  EXPECT_TRUE(tables.selected_us_as_mpr(1));
  EXPECT_EQ(tables.view_epoch(), epoch);
  HelloMessage flipped = hello_of_one(LinkStatus::kSymmetric, qos_bw(6));
  flipped.links[1].status = LinkStatus::kMpr;  // 1 picked 3 as its MPR
  tables.on_hello(flipped, qos_bw(4), 2.0);
  EXPECT_EQ(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, AsymmetricNeighborChangesKeepEpoch) {
  NeighborTables tables(0);
  const std::uint64_t epoch = tables.view_epoch();
  tables.on_hello(hello_from(2, {{7, LinkStatus::kSymmetric, qos_bw(1)}}),
                  qos_bw(3), 0.0);
  tables.on_hello(hello_from(2, {{8, LinkStatus::kSymmetric, qos_bw(2)}}),
                  qos_bw(5), 1.0);
  EXPECT_FALSE(tables.is_symmetric(2));
  EXPECT_EQ(tables.view_epoch(), epoch);
  tables.expire(10.0);  // the asymmetric entry vanishes unseen by the view
  EXPECT_TRUE(tables.heard_neighbors().empty());
  EXPECT_EQ(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, SymmetricBitChangeBumpsEpoch) {
  NeighborTables tables(0);
  tables.on_hello(hello_from(1), qos_bw(4), 0.0);  // asymmetric
  std::uint64_t epoch = tables.view_epoch();
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  1.0);
  EXPECT_TRUE(tables.is_symmetric(1));
  EXPECT_NE(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, LinkQosChangeBumpsEpoch) {
  NeighborTables tables(0);
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  0.0);
  std::uint64_t epoch = tables.view_epoch();
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)),
                  qos_bw_delay(4, 2.0), 1.0);
  EXPECT_NE(tables.view_epoch(), epoch);
  // Bit-exact: a sign flip of zero compares equal but is still a change.
  LinkQos zero = qos_bw_delay(4, 2.0);
  zero.jitter = 0.0;
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), zero, 2.0);
  epoch = tables.view_epoch();
  zero.jitter = -0.0;
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), zero, 3.0);
  EXPECT_NE(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, AdvertChangesBumpEpoch) {
  NeighborTables tables(0);
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  0.0);
  std::uint64_t epoch = tables.view_epoch();
  // Advertised QoS change.
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(7)), qos_bw(4),
                  1.0);
  EXPECT_NE(tables.view_epoch(), epoch);
  epoch = tables.view_epoch();
  // Advertised neighbor change (same count).
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kSymmetric, qos_bw(7)}}),
                  qos_bw(4), 2.0);
  EXPECT_NE(tables.view_epoch(), epoch);
  epoch = tables.view_epoch();
  // A link gained, then lost.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kSymmetric, qos_bw(7)},
                                 {6, LinkStatus::kSymmetric, qos_bw(2)}}),
                  qos_bw(4), 3.0);
  EXPECT_NE(tables.view_epoch(), epoch);
  epoch = tables.view_epoch();
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kSymmetric, qos_bw(7)}}),
                  qos_bw(4), 4.0);
  EXPECT_NE(tables.view_epoch(), epoch);
  epoch = tables.view_epoch();
  // A usable advert demoted to asymmetric leaves the view.
  tables.on_hello(hello_from(1, {{0, LinkStatus::kSymmetric, qos_bw(4)},
                                 {5, LinkStatus::kAsymmetric, qos_bw(7)}}),
                  qos_bw(4), 5.0);
  EXPECT_NE(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, LapseAndEraseBumpEpoch) {
  NeighborTables tables(0, /*hold=*/5.0);
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  0.0);
  // Keep hearing 1 without being listed: the symmetric bit lapses first.
  tables.on_hello(hello_from(1), qos_bw(4), 4.0);
  std::uint64_t epoch = tables.view_epoch();
  tables.expire(5.5);
  EXPECT_TRUE(tables.heard_neighbors() == std::vector<NodeId>{1});
  EXPECT_FALSE(tables.is_symmetric(1));
  EXPECT_NE(tables.view_epoch(), epoch);

  // A symmetric entry erased outright.
  tables.on_hello(hello_of_one(LinkStatus::kSymmetric, qos_bw(6)), qos_bw(4),
                  6.0);
  epoch = tables.view_epoch();
  tables.expire(11.5);
  EXPECT_TRUE(tables.heard_neighbors().empty());
  EXPECT_NE(tables.view_epoch(), epoch);
}

TEST(NeighborTablesEpoch, EqualEpochMeansEqualView) {
  // The contract the selection cache relies on, checked over a scripted
  // churn: whenever the epoch holds still, the rebuilt view is identical.
  NeighborTables tables(0, /*hold=*/5.0);
  const auto same_view = [](const LocalView& a, const LocalView& b) {
    if (a.size() != b.size()) return false;
    for (std::uint32_t i = 0; i < a.size(); ++i) {
      if (a.global_id(i) != b.global_id(i)) return false;
      for (std::uint32_t j = 0; j < a.size(); ++j) {
        const LinkQos* qa = a.local_edge_qos(i, j);
        const LinkQos* qb = b.local_edge_qos(i, j);
        if ((qa == nullptr) != (qb == nullptr)) return false;
        if (qa != nullptr && !(*qa == *qb)) return false;
      }
    }
    return true;
  };
  const std::vector<HelloMessage> script = {
      hello_of_one(LinkStatus::kSymmetric, qos_bw(6)),
      hello_of_one(LinkStatus::kMpr, qos_bw(6)),
      hello_from(2, {{0, LinkStatus::kSymmetric, qos_bw(1)}}),
      hello_of_one(LinkStatus::kMpr, qos_bw(8)),
      hello_from(2, {{0, LinkStatus::kMpr, qos_bw(1)},
                     {1, LinkStatus::kSymmetric, qos_bw(3)}}),
      hello_of_one(LinkStatus::kSymmetric, qos_bw(8)),
  };
  LocalView held = tables.build_local_view();
  std::uint64_t epoch = tables.view_epoch();
  double now = 0.0;
  for (int round = 0; round < 3; ++round) {
    for (const HelloMessage& hello : script) {
      now += 1.0;
      tables.on_hello(hello, qos_bw(4), now);
      tables.expire(now);
      const LocalView fresh = tables.build_local_view();
      if (tables.view_epoch() == epoch) {
        EXPECT_TRUE(same_view(held, fresh)) << "t=" << now;
      }
      held = fresh;
      epoch = tables.view_epoch();
    }
  }
}

}  // namespace
}  // namespace qolsr
