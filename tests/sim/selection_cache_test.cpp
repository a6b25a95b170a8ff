// Cache-equivalence suite for the per-node selection epoch: OlsrNode skips
// re-running its selectors while NeighborTables::view_epoch() holds still,
// so whenever a node reports the epoch its selections were computed on as
// current, flooding_mpr() and ans() must equal both selectors run fresh on
// tables().build_local_view(). Checked at arbitrary clock points across
// all five registry selectors and several seeds — converged, mid-cycle,
// and through crash/restart, link flap and liar runs — so a missed epoch
// bump anywhere in NeighborTables shows up as a selection mismatch here.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/fnbp.hpp"
#include "eval/backend.hpp"
#include "eval/experiment.hpp"
#include "metrics/metric_id.hpp"
#include "olsr/selector_registry.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/paper_graphs.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

OlsrNode::RouteFn bandwidth_routes() {
  return [](const Graph& g, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(g, self, dest);
  };
}

/// Compares every node whose held selections claim the current epoch
/// against a fresh run of both selectors; returns how many nodes were
/// checked. With `require_all`, a node still waiting for its next tick is
/// itself a failure (a converged network has no such node).
std::size_t check_all_nodes(const Simulator& sim, const AnsSelector& flooding,
                            const AnsSelector& ans,
                            const std::string& context,
                            bool require_all = false) {
  std::size_t checked = 0;
  for (NodeId u = 0; u < sim.network().node_count(); ++u) {
    const OlsrNode& node = sim.node(u);
    if (!node.alive()) continue;
    if (node.selected_epoch() != node.tables().view_epoch()) {
      EXPECT_FALSE(require_all) << context << " node " << u
                                << " holds a selection of a stale epoch";
      continue;
    }
    const LocalView view = node.tables().build_local_view();
    EXPECT_EQ(node.flooding_mpr(), flooding.select(view))
        << context << " node " << u;
    EXPECT_EQ(node.ans(), ans.select(view)) << context << " node " << u;
    ++checked;
  }
  return checked;
}

TEST(SelectionCache, MatchesFreshSelectionAcrossSelectorsAndSeeds) {
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  for (const std::string& name : registry.names()) {
    for (const std::uint64_t seed : {3u, 17u, 29u}) {
      const Graph g = testing::random_geometric_graph(seed * 1000 + 7, 6.0,
                                                      250.0);
      const auto ans = registry.create(name, MetricId::kBandwidth);
      const auto flooding =
          registry.create_flooding(name, MetricId::kBandwidth);
      SimConfig config;
      config.seed = seed;
      Simulator sim(g, *flooding, *ans, bandwidth_routes(), config);
      const std::string context = name + " seed " + std::to_string(seed);
      // Through the initial convergence, where the views churn most.
      for (double t = 0.3; t < 12.0; t += 0.7) {
        sim.run_until(t);
        check_all_nodes(sim, *flooding, *ans, context + " t=" +
                                                 std::to_string(t));
      }
      sim.run_to_convergence();
      EXPECT_EQ(check_all_nodes(sim, *flooding, *ans, context + " converged",
                                /*require_all=*/true),
                g.node_count());
      // Mid-refresh-cycle instant (odd offset, off every tick grid).
      sim.run_until(sim.now() + 1.7);
      EXPECT_EQ(check_all_nodes(sim, *flooding, *ans, context + " mid-cycle",
                                /*require_all=*/true),
                g.node_count());
    }
  }
}

/// Steps `sim` through [start + step, start + span) checking every instant,
/// then re-converges and requires every live node to hold a current, exact
/// selection.
void track_through(Simulator& sim, const AnsSelector& flooding,
                   const AnsSelector& ans, double step, double span,
                   const std::string& label) {
  const double start = sim.now();
  std::size_t checked = 0;
  for (double t = start + step; t < start + span; t += step) {
    sim.run_until(t);
    checked += check_all_nodes(sim, flooding, ans,
                               label + " t=" + std::to_string(t));
  }
  EXPECT_GT(checked, 0u) << label << ": no instant was checkable";
  sim.run_to_convergence();
  std::size_t alive = 0;
  for (NodeId u = 0; u < sim.network().node_count(); ++u)
    alive += sim.node(u).alive() ? 1 : 0;
  EXPECT_EQ(check_all_nodes(sim, flooding, ans, label + " reconverged",
                            /*require_all=*/true),
            alive);
}

TEST(SelectionCache, TracksCrashAndRestart) {
  const Graph g = testing::random_geometric_graph(91, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, bandwidth_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = 0;
  crash.duration = 6.0;
  sim.inject(crash);
  track_through(sim, flooding, ans, 0.9, 10.0, "crash/restart");
}

TEST(SelectionCache, TracksPermanentCrashExpiry) {
  // The neighbors' entries for the dead node lapse and erase over the
  // hold windows — both epoch-bumping paths of NeighborTables::expire.
  const Graph g = testing::random_geometric_graph(91, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, bandwidth_routes());
  sim.run_to_convergence();

  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.node = 0;
  crash.duration = 0.0;  // permanent
  sim.inject(crash);
  track_through(sim, flooding, ans, 0.7, 22.0, "permanent crash");
}

TEST(SelectionCache, TracksLinkFlap) {
  const Graph g = testing::Fig1::build();
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  Simulator sim(g, flooding, ans, bandwidth_routes());
  sim.run_to_convergence();

  FaultIncident flap;
  flap.kind = FaultIncident::Kind::kLinkFlap;
  flap.link_u = testing::Fig1::v1;
  flap.link_v = testing::Fig1::v6;
  flap.duration = 8.0;
  sim.inject(flap);
  track_through(sim, flooding, ans, 0.5, 26.0, "flap");
}

TEST(SelectionCache, TracksLiarRun) {
  const Graph g = testing::random_geometric_graph(55, 6.0, 250.0);
  const Rfc3626Selector flooding;
  const FnbpSelector<BandwidthMetric> ans;
  AdversarySpec spec;
  spec.kinds = {AdversaryKind::kLiar};
  spec.nodes = {1};
  Simulator sim(g, flooding, ans, bandwidth_routes(), SimConfig{}, nullptr,
                &spec);
  track_through(sim, flooding, ans, 0.7, 12.0, "liar");
  sim.run_until(sim.now() + 2.3);
  EXPECT_EQ(check_all_nodes(sim, flooding, ans, "liar mid-cycle",
                            /*require_all=*/true),
            g.node_count());
}

TEST(SelectionCache, FloodingOnTheAnsSelectsOnce) {
  // olsr_mpr and qolsr_mpr1/2 flood on the very set they advertise:
  // resolve_protocols hands them one selector object for both roles, and a
  // node given the same object twice selects once and copies the set. The
  // held flooding set must then be the ANS exactly, and both must still
  // match a fresh selection; the split designs keep a distinct RFC 3626
  // flooding selector.
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  ExperimentSpec spec;
  spec.backend = BackendId::kPacket;
  spec.selectors = registry.names();
  const ResolvedProtocols protocols = resolve_protocols(spec, registry);
  const Graph g = testing::random_geometric_graph(4321, 7.0, 250.0);
  std::size_t aliased = 0;
  for (std::size_t i = 0; i < spec.selectors.size(); ++i) {
    const std::string& name = spec.selectors[i];
    const bool own = registry.floods_on_ans(name);
    EXPECT_EQ(protocols.flooding[i] == protocols.ans[i], own) << name;
    if (!own) continue;
    ++aliased;
    const AnsSelector& selector = *protocols.ans[i];
    Simulator sim(g, selector, selector, bandwidth_routes());
    ASSERT_TRUE(sim.run_to_convergence().converged) << name;
    for (NodeId u = 0; u < g.node_count(); ++u)
      EXPECT_EQ(sim.node(u).flooding_mpr(), sim.node(u).ans())
          << name << " node " << u;
    EXPECT_EQ(check_all_nodes(sim, selector, selector, name,
                              /*require_all=*/true),
              g.node_count());
  }
  EXPECT_EQ(aliased, 3u);
}

}  // namespace
}  // namespace qolsr
