// Microbenchmarks of the discrete-event control plane: events/sec, the
// cost of converging a whole network, the per-layer cost of the protocol
// tables (HELLO refresh, TC refresh, the duplicate-TC receive path, a
// duplicate-set sweep with nothing due — one operation per iteration, so
// the reported time is ns/op), and the steady-state allocation behavior
// of the pooled duplicate set and data-forwarding paths (the allocation
// counters double as assertions — a benchmark fails with SkipWithError
// when a path contracted to be allocation-free allocates).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <new>

#include "core/fnbp.hpp"
#include "graph/deployment.hpp"
#include "proto/duplicate_set.hpp"
#include "proto/neighbor_tables.hpp"
#include "proto/topology_base.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator: lets the steady-state benchmarks report (and
// assert on) allocs/op alongside time/op.
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

namespace {

using namespace qolsr;

Graph make_network(double degree, std::uint64_t seed = 23) {
  util::Rng rng(seed);
  DeploymentConfig config;
  config.width = 400.0;
  config.height = 400.0;
  config.degree = degree;
  Graph g = sample_poisson_deployment(config, rng);
  assign_uniform_qos(g, {}, rng);
  return g;
}

void BM_EventQueueThroughput(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    int counter = 0;
    for (int i = 0; i < 10000; ++i)
      q.schedule_at(static_cast<SimTime>(i % 97), [&counter] { ++counter; });
    q.run_until(100.0);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}

// The broadcast fan-out hot point: one TC delivered to every neighbor of
// the densest node. The simulator copies the bytes once into a pooled
// frame that every delivery shares, so the steady-state per-delivery cost
// is one event dispatch + one shared parse + the receiver's cheap drop
// (handshake check or duplicate-set hit) — never a per-neighbor copy of
// the message bytes. Regressing to copy-per-neighbor shows up directly in
// items/sec at high degree.
void BM_BroadcastFanout(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  NodeId hub = 0;
  for (NodeId u = 0; u < g.node_count(); ++u)
    if (g.neighbors(u).size() > g.neighbors(hub).size()) hub = u;
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const auto routes = [](const Graph& graph, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest);
  };
  // Park the protocol ticks far in the future and run past the one
  // (jittered) HELLO round before measuring: inside the loop nothing but
  // the measured broadcasts runs on the queue, and the receivers' tables
  // no longer change between iterations.
  SimConfig config;
  config.node.hello_interval = 1e9;
  config.node.tc_interval = 1e9;
  Simulator sim(g, flooding, ans, routes, config);
  sim.run_until(2.0 * config.node.jitter + 1.0);

  TcMessage tc;
  tc.originator = hub;
  for (const Edge& e : g.neighbors(hub))
    tc.advertised.push_back({e.to, LinkStatus::kSymmetric, e.qos});
  PacketHeader header;
  header.type = MessageType::kTc;
  header.originator = hub;
  header.ttl = 1;  // receivers must not re-flood inside the measurement
  const std::vector<std::byte> bytes = serialize(header, tc);

  const double drain = 2.0 * sim.config().propagation_delay;
  for (auto _ : state) {
    sim.broadcast(hub, bytes);
    sim.run_until(sim.now() + drain);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.neighbors(hub).size()));
  state.counters["fanout"] = static_cast<double>(g.neighbors(hub).size());
  state.counters["bytes"] = static_cast<double>(bytes.size());
}

void BM_ControlPlaneConvergence(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const auto routes = [](const Graph& graph, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest);
  };
  std::uint64_t events = 0;
  std::chrono::nanoseconds converging{0};
  for (auto _ : state) {
    Simulator sim(g, flooding, ans, routes);
    const auto start = std::chrono::steady_clock::now();
    sim.run_to_convergence();
    converging += std::chrono::steady_clock::now() - start;
    benchmark::DoNotOptimize(sim.trace().control_bytes);
    events += sim.queue().processed();
    state.counters["events"] = static_cast<double>(sim.queue().processed());
  }
  state.counters["nodes"] = static_cast<double>(g.node_count());
  // Event dispatch cost inside run_to_convergence (construction excluded).
  state.counters["ns_per_event"] = static_cast<double>(converging.count()) /
                                   static_cast<double>(events);
}

// One TC interval on an already-converged network: HELLO refreshes, TC
// origination and MPR re-flooding continue, but no view changes — the
// steady-state control-plane cost a long run pays per round. Reports
// ns/event and allocations per event, and fails when the round allocates
// at all once warm.
void BM_QuiescentControlRound(benchmark::State& state) {
  const Graph g = make_network(static_cast<double>(state.range(0)));
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  const auto routes = [](const Graph& graph, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest);
  };
  Simulator sim(g, flooding, ans, routes);
  sim.run_to_convergence();
  const double round = sim.config().node.tc_interval;
  // Warm the event heap, the frame pool and the duplicate sets past their
  // 30 s hold, where expiry keeps pace with insertion.
  sim.run_until(sim.now() + 30.0 + 2.0 * round);

  const std::uint64_t events_before = sim.queue().processed();
  std::uint64_t allocated = 0;  // inside the rounds, not the framework's
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const std::uint64_t allocs_before = g_allocations.load();
    sim.run_until(sim.now() + round);
    allocated += g_allocations.load() - allocs_before;
  }
  const std::chrono::nanoseconds elapsed =
      std::chrono::steady_clock::now() - start;
  const auto events =
      static_cast<double>(sim.queue().processed() - events_before);
  state.counters["events"] = events / static_cast<double>(state.iterations());
  state.counters["ns_per_event"] = static_cast<double>(elapsed.count()) / events;
  state.counters["allocs/event"] = static_cast<double>(allocated) / events;
  state.counters["nodes"] = static_cast<double>(g.node_count());
  if (allocated != 0)
    state.SkipWithError("quiescent control round allocated once warm");
}

// Steady-state duplicate-set churn at a run's high-water live set: after
// warmup the pooled table must process check_and_insert + expiry sweeps
// with ZERO heap allocations — asserted, not just reported.
void BM_DuplicateSetSteadyState(benchmark::State& state) {
  DuplicateSet set(/*hold_time=*/5.0);
  double now = 0.0;
  std::uint16_t seq = 0;
  const auto round = [&] {
    now += 1.0;
    for (NodeId originator = 0; originator < 64; ++originator)
      set.check_and_insert(originator, seq, now);
    ++seq;
    set.expire(now);
  };
  for (int i = 0; i < 32; ++i) round();  // grow to high water, size spare
  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) round();
  const std::uint64_t allocated = g_allocations.load() - before;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
  state.counters["allocs/op"] =
      static_cast<double>(allocated) / static_cast<double>(state.iterations());
  if (allocated != 0)
    state.SkipWithError("pooled duplicate set allocated in steady state");
}

// The per-layer table benchmarks model one node of a 49-node network
// (ids 0..48): node 0 with 16 symmetric neighbors 1, 4, .., 46.
constexpr NodeId kTableSelf = 0;
constexpr NodeId kTableNodes = 49;
constexpr NodeId kTableDegree = 16;

NodeId table_neighbor(NodeId k) { return 3 * k + 1; }

LinkQos table_qos(NodeId a, NodeId b) {
  LinkQos q;
  q.bandwidth = 1.0 + static_cast<double>((a * 7 + b * 13) % 10);
  return q;
}

/// The HELLO each neighbor sends: it lists us and 15 other nodes, all
/// symmetric.
std::vector<HelloMessage> table_hellos() {
  std::vector<HelloMessage> hellos;
  for (NodeId k = 0; k < kTableDegree; ++k) {
    HelloMessage h;
    h.originator = table_neighbor(k);
    h.links.push_back({kTableSelf, LinkStatus::kSymmetric,
                       table_qos(h.originator, kTableSelf)});
    for (NodeId j = 1; j < kTableDegree; ++j) {
      const NodeId to = (h.originator + 2 * j) % kTableNodes;
      if (to != kTableSelf && to != h.originator)
        h.links.push_back(
            {to, LinkStatus::kSymmetric, table_qos(h.originator, to)});
    }
    hellos.push_back(std::move(h));
  }
  return hellos;
}

/// Node 0's tables after two HELLO rounds: every neighbor symmetric.
NeighborTables table_neighbors(const std::vector<HelloMessage>& hellos) {
  NeighborTables tables(kTableSelf);
  for (int round = 0; round < 2; ++round)
    for (const HelloMessage& h : hellos)
      tables.on_hello(h, table_qos(h.originator, kTableSelf), 0.0);
  return tables;
}

// One HELLO refresh at degree 16: the link entry lookup plus the advert
// compare, with nothing changed — the steady-state HELLO reception.
void BM_OnHelloRefresh(benchmark::State& state) {
  const std::vector<HelloMessage> hellos = table_hellos();
  NeighborTables tables = table_neighbors(hellos);
  double now = 0.0;
  std::size_t k = 0;
  for (auto _ : state) {
    const HelloMessage& h = hellos[k];
    now += 1e-9;
    benchmark::DoNotOptimize(
        tables.on_hello(h, table_qos(h.originator, kTableSelf), now));
    k = k + 1 == hellos.size() ? 0 : k + 1;
  }
}

// One same-ANSN TC refresh in a 49-originator topology base (4 adverts
// per TC) — what every fresh TC reception costs once converged.
void BM_ApplyTcRefresh(benchmark::State& state) {
  std::vector<TcMessage> tcs;
  for (NodeId o = 0; o < kTableNodes; ++o) {
    TcMessage tc;
    tc.originator = o;
    tc.ansn = 7;
    for (NodeId j = 1; j <= 4; ++j) {
      const NodeId to = (o + 5 * j) % kTableNodes;
      tc.advertised.push_back({to, LinkStatus::kSymmetric, table_qos(o, to)});
    }
    tcs.push_back(std::move(tc));
  }
  TopologyBase base;
  for (const TcMessage& tc : tcs) base.apply_tc(tc, 0.0);
  double now = 0.0;
  std::size_t k = 0;
  for (auto _ : state) {
    now += 1e-9;
    benchmark::DoNotOptimize(base.apply_tc(tcs[k], now));
    k = k + 1 == tcs.size() ? 0 : k + 1;
  }
}

// The duplicate-TC receive path (about three in four TC receptions once
// converged): the symmetric-link check on the previous hop, then a
// duplicate-set hit.
void BM_TcDuplicateReceiver(benchmark::State& state) {
  const NeighborTables tables = table_neighbors(table_hellos());
  DuplicateSet duplicates;
  for (std::uint16_t seq = 0; seq < 4; ++seq)
    for (NodeId o = 0; o < kTableNodes; ++o)
      duplicates.check_and_insert(o, seq, 0.0);
  double now = 0.0;
  NodeId k = 0;
  std::uint16_t seq = 0;
  NodeId originator = 0;
  for (auto _ : state) {
    now += 1e-9;
    const NodeId from = table_neighbor(k);
    bool fresh = false;
    if (tables.is_symmetric(from))
      fresh = duplicates.check_and_insert(originator, seq, now);
    benchmark::DoNotOptimize(fresh);
    k = k + 1 == kTableDegree ? 0 : k + 1;
    if (++originator == kTableNodes) {
      originator = 0;
      seq = static_cast<std::uint16_t>((seq + 1) % 4);
    }
  }
}

// A duplicate-set sweep with nothing due yet (the 30 s hold outlives the
// TC interval that triggers each sweep) over 6 floods of 49 originators.
void BM_DuplicateSetExpireNoop(benchmark::State& state) {
  DuplicateSet duplicates;
  for (std::uint16_t seq = 0; seq < 6; ++seq)
    for (NodeId o = 0; o < kTableNodes; ++o)
      duplicates.check_and_insert(o, seq, 0.0);
  double now = 0.0;
  for (auto _ : state) {
    now += 1e-9;
    duplicates.expire(now);
    benchmark::DoNotOptimize(duplicates.size());
  }
  if (duplicates.size() != 6 * kTableNodes)
    state.SkipWithError("a sweep with nothing due dropped entries");
}

// Steady-state data forwarding with warm caches: route memo hits, cached
// knowledge view, workspace Dijkstra, pooled frames. Reports allocs/packet
// (only the journey record allocates) and asserts the per-packet
// to_graph/Dijkstra allocation storm stays gone. The topology is a short
// chain rather than a dense deployment so the measurement window is packet
// work, not amortized HELLO/TC flood noise.
void BM_SteadyStateDataForwarding(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Graph chain;
  util::Rng rng(29);
  for (NodeId i = 0; i < n; ++i)
    chain.add_node({static_cast<double>(i) * 50.0, 0.0});
  for (NodeId i = 0; i + 1 < n; ++i) chain.add_edge(i, i + 1);
  assign_uniform_qos(chain, {}, rng);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  DijkstraWorkspace dws;
  NextHopScratch bfs;
  const auto routes = [&dws, &bfs](const Graph& graph, NodeId self,
                                   NodeId dest) {
    return compute_next_hop<BandwidthMetric>(graph, self, dest, dws, bfs);
  };
  Simulator sim(chain, flooding, ans, routes);
  sim.run_to_convergence();
  // Full-length path; one warm packet fills the route memos.
  const NodeId src = 0;
  const NodeId dst = n - 1;
  std::uint32_t payload = 1;
  const double drain =
      2.0 * static_cast<double>(n) * sim.config().propagation_delay;
  sim.node(src).send_data(dst, payload++);
  sim.run_until(sim.now() + drain);

  const std::uint64_t before = g_allocations.load();
  for (auto _ : state) {
    sim.node(src).send_data(dst, payload++);
    sim.run_until(sim.now() + drain);
  }
  const std::uint64_t allocated = g_allocations.load() - before;
  const double per_packet =
      static_cast<double>(allocated) / static_cast<double>(state.iterations());
  state.counters["allocs/packet"] = per_packet;
  state.counters["delivered"] =
      static_cast<double>(sim.trace().data_delivered);
  state.counters["hops"] = static_cast<double>(n - 1);
  // The journey record's map node and path growth (5 for an 8-node
  // chain's 8-entry path) — nothing per hop. The pre-cache path paid a
  // Graph materialization plus a full Dijkstra per hop, well over a
  // hundred for this chain.
  if (per_packet > 6.0)
    state.SkipWithError("forwarding path allocation regression");
}

}  // namespace

BENCHMARK(BM_EventQueueThroughput);
BENCHMARK(BM_DuplicateSetSteadyState);
BENCHMARK(BM_OnHelloRefresh);
BENCHMARK(BM_ApplyTcRefresh);
BENCHMARK(BM_TcDuplicateReceiver);
BENCHMARK(BM_DuplicateSetExpireNoop);
BENCHMARK(BM_SteadyStateDataForwarding)->Arg(8);
BENCHMARK(BM_BroadcastFanout)->Arg(10)->Arg(30);
BENCHMARK(BM_ControlPlaneConvergence)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_QuiescentControlRound)->Arg(10)->Unit(benchmark::kMillisecond);
