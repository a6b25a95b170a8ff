// Differential property test of the flat, NodeId-indexed protocol tables
// against their std::map reference forms (tests/support/reference_tables),
// and of the pooled DuplicateSet against a std::map model.
//
// Each seed replays a random operation sequence — on_hello, expire,
// apply_tc, clear (a crash) followed by reuse, and the per-run reset —
// against both implementations and, after every operation, asserts that
// every observable agrees: outcomes, selection epochs, both digests, every
// id list in order, the local view, the knowledge graph with its
// fresh_until, and the topology lookups. The sequences deliberately use
// ids past the reserved size, land expiries exactly on a deadline
// (every time and hold is a multiple of 0.5, so `expires == now` is
// exact), walk ANSNs across the 16-bit wrap, draw -0.0 and denormal QoS,
// and flip advert status between kSymmetric and kMpr.
//
// This TU replaces global operator new with a counting wrapper so the
// duplicate-set case can assert that a sweep with nothing due allocates
// nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <map>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "proto/duplicate_set.hpp"
#include "proto/neighbor_tables.hpp"
#include "proto/topology_base.hpp"
#include "support/reference_tables.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace qolsr {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 3, 4, 5, 17};
constexpr int kOperations = 1500;
constexpr NodeId kSelf = 3;
/// The tables are sized for ids below kReserve; the sequences use ids up
/// to kIdSpan, so inserts past the reserve grow the arrays.
constexpr std::size_t kReserve = 8;
constexpr NodeId kIdSpan = 24;
constexpr double kStep = 0.5;
constexpr double kNeighborHold = 3.0;
constexpr double kTopologyHold = 4.0;

bool same_bits(const LinkQos& a, const LinkQos& b) {
  return std::memcmp(&a, &b, sizeof(LinkQos)) == 0;
}

/// QoS values that stress bit-exact comparison: signed zeros, denormals,
/// and ordinary values.
LinkQos draw_qos(util::Rng& rng) {
  static const double kPool[] = {1.0,
                                 2.5,
                                 0.0,
                                 -0.0,
                                 std::numeric_limits<double>::denorm_min(),
                                 3 * std::numeric_limits<double>::denorm_min()};
  const auto pick = [&rng] {
    return kPool[rng.uniform_int(std::size(kPool))];
  };
  LinkQos q;
  q.bandwidth = pick();
  q.delay = pick();
  return q;
}

LinkStatus draw_status(util::Rng& rng) {
  static const LinkStatus kStatuses[] = {
      LinkStatus::kAsymmetric, LinkStatus::kSymmetric, LinkStatus::kMpr};
  return kStatuses[rng.uniform_int(3)];
}

/// Up to `max` distinct adverts, none naming `originator`.
std::vector<LinkAdvert> draw_adverts(util::Rng& rng, NodeId originator,
                                     std::size_t max) {
  std::vector<LinkAdvert> adverts;
  const std::size_t want = rng.uniform_int(max + 1);
  for (std::size_t tries = 0; adverts.size() < want && tries < 4 * max;
       ++tries) {
    const auto to = static_cast<NodeId>(rng.uniform_int(kIdSpan));
    if (to == originator) continue;
    bool seen = false;
    for (const LinkAdvert& a : adverts) seen = seen || a.neighbor == to;
    if (!seen) adverts.push_back({to, draw_status(rng), draw_qos(rng)});
  }
  return adverts;
}

/// Flips every advert between kSymmetric and kMpr — a change the selection
/// view must ignore but the converged digest must see.
void flip_statuses(std::vector<LinkAdvert>& adverts) {
  for (LinkAdvert& a : adverts) {
    if (a.status == LinkStatus::kSymmetric)
      a.status = LinkStatus::kMpr;
    else if (a.status == LinkStatus::kMpr)
      a.status = LinkStatus::kSymmetric;
  }
}

using QosVisit = std::vector<std::pair<NodeId, std::uint64_t>>;

template <typename Tables>
QosVisit symmetric_visits(const Tables& tables) {
  QosVisit visits;
  tables.for_each_symmetric([&visits](NodeId id, const LinkQos& qos) {
    visits.emplace_back(id, digest_qos(0, qos));
  });
  return visits;
}

void expect_same_view(const LocalView& flat, const LocalView& ref) {
  ASSERT_EQ(flat.size(), ref.size());
  EXPECT_EQ(flat.origin(), ref.origin());
  for (std::uint32_t local = 0; local < flat.size(); ++local) {
    EXPECT_EQ(flat.global_id(local), ref.global_id(local));
    const auto a = flat.neighbors(local);
    const auto b = ref.neighbors(local);
    ASSERT_EQ(a.size(), b.size()) << "row " << local;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_TRUE(same_bits(a[i].qos, b[i].qos));
    }
  }
  EXPECT_TRUE(std::equal(flat.one_hop().begin(), flat.one_hop().end(),
                         ref.one_hop().begin(), ref.one_hop().end()));
  EXPECT_TRUE(std::equal(flat.two_hop().begin(), flat.two_hop().end(),
                         ref.two_hop().begin(), ref.two_hop().end()));
}

void expect_same_graph(const Graph& flat, const Graph& ref) {
  ASSERT_EQ(flat.node_count(), ref.node_count());
  EXPECT_EQ(flat.edge_count(), ref.edge_count());
  for (NodeId u = 0; u < flat.node_count(); ++u) {
    const auto a = flat.neighbors(u);
    const auto b = ref.neighbors(u);
    ASSERT_EQ(a.size(), b.size()) << "node " << u;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].to, b[i].to);
      EXPECT_TRUE(same_bits(a[i].qos, b[i].qos));
    }
  }
}

/// Selection epochs are compared as the distance from the last per-run
/// reset: the flat tables keep counting across reset(), where the
/// reference is replaced by a fresh object starting at 0.
struct EpochBase {
  std::uint64_t flat = 0;
  std::uint64_t ref = 0;
};

void expect_same_neighbors(const NeighborTables& flat,
                           const reference::NeighborTables& ref,
                           const EpochBase& base) {
  EXPECT_EQ(flat.view_epoch() - base.flat, ref.view_epoch() - base.ref);
  EXPECT_EQ(flat.digest(7), ref.digest(7));
  EXPECT_EQ(flat.converged_digest(7), ref.converged_digest(7));
  EXPECT_EQ(flat.heard_neighbors(), ref.heard_neighbors());
  EXPECT_EQ(flat.symmetric_neighbors(), ref.symmetric_neighbors());
  EXPECT_EQ(flat.mpr_selectors(), ref.mpr_selectors());
  EXPECT_EQ(symmetric_visits(flat), symmetric_visits(ref));
  for (NodeId id = 0; id < kIdSpan + 2; ++id) {
    EXPECT_EQ(flat.is_symmetric(id), ref.is_symmetric(id)) << "id " << id;
    EXPECT_EQ(flat.selected_us_as_mpr(id), ref.selected_us_as_mpr(id))
        << "id " << id;
    const LinkQos* a = flat.link_qos(id);
    const LinkQos* b = ref.link_qos(id);
    ASSERT_EQ(a == nullptr, b == nullptr) << "id " << id;
    if (a != nullptr) {
      EXPECT_TRUE(same_bits(*a, *b)) << "id " << id;
    }
  }
  expect_same_view(flat.build_local_view(), ref.build_local_view());
}

using AdvertVisit = std::vector<std::pair<NodeId, LinkAdvert>>;

template <typename Base>
AdvertVisit advert_visits(const Base& base) {
  AdvertVisit visits;
  base.for_each_advert([&visits](NodeId originator, const LinkAdvert& a) {
    visits.emplace_back(originator, a);
  });
  return visits;
}

void expect_same_topology(const TopologyBase& flat,
                          const reference::TopologyBase& ref, double now) {
  EXPECT_EQ(flat.originator_count(), ref.originator_count());
  EXPECT_EQ(flat.digest(11), ref.digest(11));
  EXPECT_EQ(flat.converged_digest(11), ref.converged_digest(11));
  EXPECT_EQ(flat.next_expiry(), ref.next_expiry());
  for (NodeId id = 0; id < kIdSpan + 2; ++id) {
    EXPECT_EQ(flat.ansn_of(id), ref.ansn_of(id)) << "originator " << id;
    EXPECT_EQ(flat.advertised_of(id), ref.advertised_of(id))
        << "originator " << id;
  }
  const AdvertVisit a = advert_visits(flat);
  const AdvertVisit b = advert_visits(ref);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].first, b[i].first);
    EXPECT_EQ(a[i].second.neighbor, b[i].second.neighbor);
    EXPECT_EQ(a[i].second.status, b[i].second.status);
    EXPECT_TRUE(same_bits(a[i].second.qos, b[i].second.qos));
  }
  // Both a node count that covers every id and one that cuts some off.
  for (const std::size_t node_count : {std::size_t{kIdSpan}, kReserve + 4}) {
    Graph flat_graph;
    Graph ref_graph;
    EXPECT_EQ(flat.to_graph_into(flat_graph, node_count, now),
              ref.to_graph_into(ref_graph, node_count, now));
    expect_same_graph(flat_graph, ref_graph);
  }
}

/// One seeded replay over a NeighborTables pair and a TopologyBase pair.
void replay(std::uint64_t seed) {
  util::Rng rng(seed);
  NeighborTables tables(kSelf);
  tables.reset(kNeighborHold, kReserve);
  reference::NeighborTables ref_tables(kSelf, kNeighborHold);
  TopologyBase base;
  base.reset(kTopologyHold, kReserve);
  reference::TopologyBase ref_base(kTopologyHold);
  EpochBase epochs{tables.view_epoch(), ref_tables.view_epoch()};

  std::vector<HelloMessage> last_hello(kIdSpan);
  std::vector<std::vector<LinkAdvert>> last_tc(kIdSpan);
  std::vector<std::uint16_t> ansn(kIdSpan, 65533);  // near the wrap
  double now = 0.0;
  int counts[7] = {};

  for (int op = 0; op < kOperations; ++op) {
    SCOPED_TRACE("operation " + std::to_string(op));
    now += kStep * static_cast<double>(rng.uniform_int(3));
    const std::uint64_t kind = rng.uniform_int(1000);
    if (kind < 400) {  // HELLO
      ++counts[0];
      NodeId from = static_cast<NodeId>(rng.uniform_int(kIdSpan));
      if (from == kSelf) from = kIdSpan - 1;
      HelloMessage& hello = last_hello[from];
      if (hello.originator == from && rng.uniform01() < 0.4) {
        flip_statuses(hello.links);  // same links, kSymmetric <-> kMpr
      } else {
        hello.originator = from;
        hello.links = draw_adverts(rng, from, 5);
      }
      const LinkQos qos = draw_qos(rng);
      const auto a = tables.on_hello(hello, qos, now);
      const auto b = ref_tables.on_hello(hello, qos, now);
      EXPECT_EQ(a.digest_changed, b.digest_changed);
      EXPECT_EQ(a.view_changed, b.view_changed);
    } else if (kind < 750) {  // TC
      ++counts[1];
      const auto from = static_cast<NodeId>(rng.uniform_int(kIdSpan));
      const std::uint64_t step = rng.uniform_int(10);
      if (step < 5) {
        ansn[from] = static_cast<std::uint16_t>(ansn[from] + 1);  // wraps
      } else if (step < 7) {
        // Same ANSN: a refresh (or a status/QoS-only change).
      } else if (step < 9) {
        ansn[from] = static_cast<std::uint16_t>(ansn[from] - 2);  // stale
      } else {
        ansn[from] = static_cast<std::uint16_t>(ansn[from] + 0x8000);
      }
      TcMessage tc;
      tc.originator = from;
      tc.ansn = ansn[from];
      const std::uint64_t shape = rng.uniform_int(4);
      if (shape == 0) {
        tc.advertised = draw_adverts(rng, from, 6);
      } else {
        tc.advertised = last_tc[from];
        if (shape == 1) flip_statuses(tc.advertised);
        if (shape == 2 && !tc.advertised.empty())
          tc.advertised[rng.uniform_int(tc.advertised.size())].qos =
              draw_qos(rng);
      }
      last_tc[from] = tc.advertised;
      const auto a = base.apply_tc(tc, now);
      const auto b = ref_base.apply_tc(tc, now);
      EXPECT_EQ(a.fresh, b.fresh);
      EXPECT_EQ(a.links_changed, b.links_changed);
      EXPECT_EQ(a.view_changed, b.view_changed);
    } else if (kind < 860) {  // neighbor expiry
      ++counts[2];
      const auto a = tables.expire(now);
      const auto b = ref_tables.expire(now);
      EXPECT_EQ(a.digest_changed, b.digest_changed);
      EXPECT_EQ(a.view_changed, b.view_changed);
    } else if (kind < 980) {  // topology expiry
      ++counts[3];
      EXPECT_EQ(base.expire(now), ref_base.expire(now));
    } else if (kind < 993) {  // crash: clear, then the tables are reused
      ++counts[4];
      tables.clear();
      ref_tables.clear();
      base.clear();
      ref_base.clear();
    } else {  // per-run reset of a reused stack
      ++counts[5];
      tables.reset(kNeighborHold, kReserve);
      ref_tables = reference::NeighborTables(kSelf, kNeighborHold);
      base.reset(kTopologyHold, kReserve);
      ref_base = reference::TopologyBase(kTopologyHold);
      epochs = {tables.view_epoch(), ref_tables.view_epoch()};
    }
    expect_same_neighbors(tables, ref_tables, epochs);
    expect_same_topology(base, ref_base, now);
    if (::testing::Test::HasFailure()) return;
  }
  std::cout << "[flat_tables] seed " << seed << ": " << kOperations
            << " ops (hello " << counts[0] << ", tc " << counts[1]
            << ", neighbor expire " << counts[2] << ", topology expire "
            << counts[3] << ", crash " << counts[4] << ", reset "
            << counts[5] << "), final originators "
            << base.originator_count() << ", neighbors "
            << tables.heard_neighbors().size() << "\n";
}

TEST(FlatTables, MatchTheMapReferenceOnRandomSequences) {
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    replay(seed);
    if (HasFailure()) return;
  }
}

TEST(FlatTables, LookupsPastTheReserveMissAndInsertsGrow) {
  NeighborTables tables(0);
  tables.reset(6.0, 4);
  EXPECT_FALSE(tables.is_symmetric(1000));
  EXPECT_EQ(tables.link_qos(1000), nullptr);
  HelloMessage hello;
  hello.originator = 1000;
  hello.links = {{0, LinkStatus::kMpr, {}}};
  tables.on_hello(hello, {}, 0.0);
  EXPECT_TRUE(tables.selected_us_as_mpr(1000));
  EXPECT_EQ(tables.heard_neighbors(), (std::vector<NodeId>{1000}));

  TopologyBase base;
  base.reset(15.0, 4);
  EXPECT_FALSE(base.ansn_of(500).has_value());
  TcMessage tc;
  tc.originator = 500;
  tc.ansn = 9;
  tc.advertised = {{2, LinkStatus::kSymmetric, {}}};
  EXPECT_TRUE(base.apply_tc(tc, 0.0).fresh);
  EXPECT_EQ(base.ansn_of(500), 9);
  EXPECT_EQ(base.advertised_of(500), (std::vector<NodeId>{2}));
}

std::uint64_t model_key(NodeId originator, std::uint16_t sequence) {
  return (static_cast<std::uint64_t>(originator) << 16) | sequence;
}

TEST(FlatTables, DuplicateSetMatchesAMapModelAndNoOpSweepsAreFree) {
  constexpr double kHold = 2.0;
  for (const std::uint64_t seed : kSeeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    DuplicateSet set(kHold);
    std::map<std::uint64_t, double> model;  // key -> expires
    std::vector<std::uint16_t> next(6, 65530);
    double now = 0.0;
    int noop_sweeps = 0;
    int sweeps = 0;
    for (int op = 0; op < 4000; ++op) {
      SCOPED_TRACE("operation " + std::to_string(op));
      now += 0.25 * static_cast<double>(rng.uniform_int(3));
      if (rng.uniform_int(5) == 0) {
        ++sweeps;
        bool due = false;
        for (const auto& [key, expires] : model) due = due || expires < now;
        const std::size_t size = set.size();
        const std::size_t capacity = set.capacity();
        const std::uint64_t before =
            g_allocations.load(std::memory_order_relaxed);
        set.expire(now);
        const std::uint64_t allocated =
            g_allocations.load(std::memory_order_relaxed) - before;
        std::erase_if(model, [now](const auto& entry) {
          return entry.second < now;
        });
        if (!due) {
          ++noop_sweeps;
          EXPECT_EQ(set.size(), size);
          EXPECT_EQ(set.capacity(), capacity);
          EXPECT_EQ(allocated, 0u);
        }
      } else {
        const auto originator = static_cast<NodeId>(rng.uniform_int(6));
        // Half fresh sequences (wrapping through 65535 -> 0), half a small
        // recurring pool, so expired keys come back as wrapped re-arms.
        std::uint16_t sequence;
        if (rng.uniform01() < 0.5) {
          sequence = next[originator]++;
        } else {
          static const std::uint16_t kPool[] = {65534, 65535, 0, 1};
          sequence = kPool[rng.uniform_int(4)];
        }
        const std::uint64_t k = model_key(originator, sequence);
        auto it = model.find(k);
        bool fresh = true;
        if (it == model.end()) {
          model.emplace(k, now + kHold);
        } else if (it->second < now) {
          it->second = now + kHold;
        } else {
          fresh = false;
        }
        EXPECT_EQ(set.check_and_insert(originator, sequence, now), fresh);
      }
      EXPECT_EQ(set.size(), model.size());
      if (HasFailure()) return;
    }
    std::cout << "[flat_tables] duplicate set seed " << seed << ": " << sweeps
              << " sweeps, " << noop_sweeps << " with nothing due\n";
    EXPECT_GT(noop_sweeps, 0);
  }
}

}  // namespace
}  // namespace qolsr
