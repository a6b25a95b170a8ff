// Steady-state allocation contracts of the packet simulator's hot paths.
// This TU replaces the global operator new/delete pair with counting
// wrappers; each test warms a structure to its high-water capacity, then
// asserts the steady-state window performs zero (duplicate set, knowledge
// cache, a quiescent control round), a constant (a warm identical re-run)
// or strictly bounded (whole forwarding path) heap allocations — the
// regressions this guards against are per-frame closures and buffers in
// the event loop and per-packet to_graph/Dijkstra/map-node allocations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/fnbp.hpp"
#include "metrics/metric_id.hpp"
#include "olsr/selector_registry.hpp"
#include "proto/duplicate_set.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

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

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

OlsrNode::RouteFn workspace_routes(DijkstraWorkspace& dws,
                                   NextHopScratch& bfs) {
  return [&dws, &bfs](const Graph& g, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(g, self, dest, dws, bfs);
  };
}

TEST(Allocation, DuplicateSetSteadyStateAllocatesNothing) {
  DuplicateSet set(/*hold_time=*/5.0);
  double now = 0.0;
  const auto churn = [&](int rounds) {
    for (int r = 0; r < rounds; ++r) {
      now += 1.0;
      for (NodeId originator = 0; originator < 40; ++originator)
        set.check_and_insert(originator,
                             static_cast<std::uint16_t>(r * 40 + originator),
                             now);
      set.expire(now);
    }
  };
  // Warm to the high-water live set (~5 rounds in flight) and let the
  // first expiry sweeps size the compaction spare.
  churn(32);
  const std::size_t warm_capacity = set.capacity();
  const std::uint64_t before = allocations();
  churn(256);
  EXPECT_EQ(allocations() - before, 0u)
      << "pooled duplicate set allocated in steady state";
  EXPECT_EQ(set.capacity(), warm_capacity);
}

TEST(Allocation, KnowledgeCacheHitAllocatesNothing) {
  const Graph g = testing::random_geometric_graph(13, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans,
                [](const Graph& kg, NodeId self, NodeId dest) {
                  return compute_next_hop<BandwidthMetric>(kg, self, dest);
                });
  sim.run_to_convergence();

  OlsrNode& node = sim.node(0);
  (void)node.knowledge_graph();  // one rebuild charges the cache
  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) (void)node.knowledge_graph();
  EXPECT_EQ(allocations() - before, 0u)
      << "cached knowledge view allocated on a pure hit";
}

TEST(Allocation, SteadyStateForwardingIsBounded) {
  // End-to-end budget for the whole data path — route memo hit, serialize,
  // delivery event, journey bookkeeping — once caches are warm. The
  // pre-cache code paid a Graph materialization plus a full Dijkstra per
  // traversed hop (hundreds of allocations per packet); the budget below
  // fails loudly if anything per-hop-heavy creeps back in.
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  Simulator sim(g, flooding, ans, workspace_routes(dws, bfs));
  sim.run_to_convergence();

  // Warm: route memo for the v1->v3 destination, journey-map buckets.
  sim.node(testing::Fig1::v1).send_data(testing::Fig1::v3, 1);
  sim.run_until(sim.now() + 1.0);
  ASSERT_EQ(sim.trace().data_delivered, 1u);

  const int kPackets = 50;
  const std::uint64_t before = allocations();
  for (int i = 0; i < kPackets; ++i) {
    sim.node(testing::Fig1::v1).send_data(testing::Fig1::v3, 100 + i);
    sim.run_until(sim.now() + 0.05);
  }
  const std::uint64_t per_packet = (allocations() - before) / kPackets;
  EXPECT_EQ(sim.trace().data_delivered, 1u + kPackets);
  // 4 hops: frames are pooled and deliveries are plain event records, so
  // only the journey record allocates (its map node and the growth of its
  // 5-entry path). Anything per-hop blows past this.
  EXPECT_LE(per_packet, 5u)
      << "forwarding allocated " << per_packet << " times per packet";
}

/// Every node linked to its kHalfDegree nearest on each side: each
/// broadcast has exactly 2 * kHalfDegree receivers on the loss-free medium.
Graph circulant_graph(NodeId nodes, NodeId half_degree) {
  Graph g;
  for (NodeId i = 0; i < nodes; ++i)
    g.add_node({static_cast<double>(i) * 10.0, 0.0});
  for (NodeId i = 0; i < nodes; ++i)
    for (NodeId k = 1; k <= half_degree; ++k) {
      LinkQos qos;
      qos.bandwidth = 1.0 + static_cast<double>((i * 7 + k * 3) % 11);
      g.add_edge(i, (i + k) % nodes, qos);
    }
  return g;
}

TEST(Allocation, QuiescentControlRoundAllocatesNothing) {
  // One TC interval on a converged network: HELLO refreshes, TC
  // origination and MPR re-flooding all continue, but no node's view
  // changes. Timers and deliveries are plain event records, frames come
  // from the simulator's pool, every fan-out parses once into reused
  // storage, HELLOs and TCs are serialized into one shared buffer, the
  // tables compare before they write, and selection is skipped on an
  // unchanged view — so once everything has reached its high-water mark
  // the round allocates nothing at all.
  constexpr NodeId kHalfDegree = 4;
  constexpr std::uint64_t kDegree = 2 * kHalfDegree;
  const Graph g = circulant_graph(30, kHalfDegree);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  Simulator sim(g, flooding, ans, workspace_routes(dws, bfs));
  ASSERT_TRUE(sim.run_to_convergence().converged);
  // Warm past the duplicate-set hold (DuplicateSet's default, 30 s), so
  // its live set has reached the size at which expiry keeps pace with
  // insertion.
  constexpr double kDuplicateHold = 30.0;
  const double tc_interval = sim.config().node.tc_interval;
  sim.run_until(sim.now() + kDuplicateHold + 2.0 * tc_interval);

  const auto broadcasts = [&sim] {
    const TraceStats& t = sim.trace();
    return t.hello_sent + t.tc_originated + t.tc_forwarded;
  };
  const std::uint64_t mutations_before = sim.mutations().count();
  const std::uint64_t sent_before = broadcasts();
  const std::uint64_t before = allocations();
  sim.run_until(sim.now() + tc_interval);
  const std::uint64_t allocated = allocations() - before;
  const std::uint64_t receptions = (broadcasts() - sent_before) * kDegree;
  EXPECT_EQ(sim.mutations().count(), mutations_before) << "not quiescent";
  ASSERT_GT(receptions, 0u);
  EXPECT_EQ(allocated, 0u)
      << allocated << " allocations for " << receptions << " receptions";
}

TEST(Allocation, WarmIdenticalRerunAllocatesNothing) {
  // The batch-run path: reset + run_to_convergence on the same graph and
  // seed as the previous run. Node objects, tables, the event heap, the
  // frame pool and the shared scratch (selection workspace included) all
  // keep their storage, so the whole re-run — thousands of events through
  // convergence and the dwell — allocates nothing, whatever its event
  // count.
  const Graph g = circulant_graph(40, 5);
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const OlsrNode::RouteFn routes = workspace_routes(dws, bfs);
  for (const std::string& name : registry.names()) {
    const auto ans = registry.create(name, MetricId::kBandwidth);
    const auto flooding = registry.floods_on_ans(name)
                              ? nullptr
                              : registry.create_flooding(
                                    name, MetricId::kBandwidth);
    const AnsSelector& flood = flooding != nullptr ? *flooding : *ans;
    Simulator sim;
    for (int warm = 0; warm < 2; ++warm) {
      sim.reset(g, flood, *ans, routes, 11);
      ASSERT_TRUE(sim.run_to_convergence().converged) << name;
    }
    const std::uint64_t warm_events = sim.queue().processed();
    const std::uint64_t before = allocations();
    sim.reset(g, flood, *ans, routes, 11);
    ASSERT_TRUE(sim.run_to_convergence().converged) << name;
    const std::uint64_t allocated = allocations() - before;
    EXPECT_EQ(sim.queue().processed(), warm_events) << name;
    EXPECT_GT(warm_events, 1000u) << name;
    EXPECT_EQ(allocated, 0u) << name << ": " << allocated
                             << " allocations over " << warm_events
                             << " events";
  }
}

}  // namespace
}  // namespace qolsr
