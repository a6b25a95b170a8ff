// Pins the packet simulator's event stream: for a fixed deployment, every
// registry selector and several seeds, the number of processed events, the
// mutation count, the control-plane counters at convergence and the final
// state digest after run_to_convergence. Any change to the event order,
// the set of scheduled events or an RNG draw moves at least one of them, so
// a refactor of the event loop or the frame path must leave this table
// exactly as it is. The impaired scenarios cover the loss gate, the
// corruption gate with an adversary roster, the contended per-leg path
// with data traffic, and a crash with a scheduled heal.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "metrics/metric_id.hpp"
#include "olsr/selector_registry.hpp"
#include "routing/routing_table.hpp"
#include "sim/simulator.hpp"
#include "support/random_graphs.hpp"

namespace qolsr {
namespace {

struct Pin {
  std::uint64_t events;
  std::uint64_t mutations;
  std::uint64_t hello_sent;
  std::uint64_t tc_originated;
  std::uint64_t tc_forwarded;
  std::uint64_t tc_dropped_duplicate;
  std::uint64_t control_bytes;
  std::uint64_t digest;
};

Pin observe(Simulator& sim) {
  const TraceStats& t = sim.trace_at_convergence();
  return {sim.queue().processed(), sim.mutations().count(),
          t.hello_sent,            t.tc_originated,
          t.tc_forwarded,          t.tc_dropped_duplicate,
          t.control_bytes,         sim.state_digest()};
}

/// Prints a mismatch as a ready-to-paste table row.
void expect_pin(const Pin& got, const Pin& want, const std::string& label) {
  const bool same =
      got.events == want.events && got.mutations == want.mutations &&
      got.hello_sent == want.hello_sent &&
      got.tc_originated == want.tc_originated &&
      got.tc_forwarded == want.tc_forwarded &&
      got.tc_dropped_duplicate == want.tc_dropped_duplicate &&
      got.control_bytes == want.control_bytes && got.digest == want.digest;
  char row[256];
  std::snprintf(row, sizeof row,
                "{%lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, "
                "0x%016llxULL}",
                static_cast<unsigned long long>(got.events),
                static_cast<unsigned long long>(got.mutations),
                static_cast<unsigned long long>(got.hello_sent),
                static_cast<unsigned long long>(got.tc_originated),
                static_cast<unsigned long long>(got.tc_forwarded),
                static_cast<unsigned long long>(got.tc_dropped_duplicate),
                static_cast<unsigned long long>(got.control_bytes),
                static_cast<unsigned long long>(got.digest));
  EXPECT_TRUE(same) << label << " observed " << row;
}

OlsrNode::RouteFn bandwidth_routes() {
  return [](const Graph& g, NodeId self, NodeId dest) {
    return compute_next_hop<BandwidthMetric>(g, self, dest);
  };
}

const Graph& deployment() {
  static const Graph g = testing::random_geometric_graph(2026, 10.0, 300.0);
  return g;
}

TEST(EventStreamPin, EverySelectorAndSeed) {
  // Rows in registry order, seeds 1, 7, 42 within each selector.
  const Pin want[] = {
      {3094u, 1914u, 140u, 49u, 357u, 1785u, 109630u, 0x9a7bfc4a07e5a960ULL},
      {3153u, 1985u, 140u, 53u, 360u, 1796u, 110332u, 0x9a7bfc4a07e5a960ULL},
      {3175u, 1963u, 140u, 57u, 359u, 1788u, 110860u, 0x9a7bfc4a07e5a960ULL},
      {3096u, 1932u, 140u, 49u, 357u, 1744u, 109524u, 0x26dd6f9ce81a227fULL},
      {3154u, 1975u, 140u, 53u, 360u, 1755u, 110226u, 0x26dd6f9ce81a227fULL},
      {3175u, 1957u, 140u, 57u, 359u, 1747u, 110754u, 0x26dd6f9ce81a227fULL},
      {4788u, 1947u, 140u, 49u, 714u, 4749u, 223925u, 0xa0be76d5a88234ccULL},
      {4885u, 2005u, 140u, 53u, 718u, 4763u, 225333u, 0xa0be76d5a88234ccULL},
      {4916u, 1994u, 140u, 57u, 716u, 4749u, 225155u, 0xa0be76d5a88234ccULL},
      {3095u, 1908u, 140u, 50u, 357u, 1785u, 118816u, 0xc853553df860f681ULL},
      {3153u, 1984u, 140u, 53u, 360u, 1796u, 119713u, 0xc853553df860f681ULL},
      {3175u, 1945u, 140u, 57u, 359u, 1788u, 119605u, 0xc853553df860f681ULL},
      {3095u, 1913u, 140u, 50u, 357u, 1785u, 99206u, 0x4f506d401db79d84ULL},
      {3153u, 1958u, 140u, 53u, 360u, 1796u, 100103u, 0x4f506d401db79d84ULL},
      {3175u, 1950u, 140u, 57u, 359u, 1788u, 100419u, 0x4f506d401db79d84ULL},
  };
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  const std::vector<std::string> names = registry.names();
  ASSERT_EQ(names.size() * 3, std::size(want));
  const OlsrNode::RouteFn routes = bandwidth_routes();
  Simulator sim;  // one simulator, reset per run: the batch-run path
  std::size_t row = 0;
  for (const std::string& name : names) {
    const auto ans = registry.create(name, MetricId::kBandwidth);
    const auto flooding = registry.create_flooding(name, MetricId::kBandwidth);
    for (const std::uint64_t seed : {1u, 7u, 42u}) {
      sim.reset(deployment(), *flooding, *ans, routes, seed);
      ASSERT_TRUE(sim.run_to_convergence().converged) << name << " " << seed;
      expect_pin(observe(sim), want[row++],
                 name + " seed " + std::to_string(seed));
    }
  }
}

TEST(EventStreamPin, ImpairedMedia) {
  const SelectorRegistry& registry = SelectorRegistry::builtin();
  const auto ans = registry.create("fnbp", MetricId::kBandwidth);
  const auto flooding = registry.create_flooding("fnbp", MetricId::kBandwidth);
  const OlsrNode::RouteFn routes = bandwidth_routes();
  Simulator sim;

  // Bernoulli loss: subset fan-outs, loss-gate draws.
  FaultPlan lossy;
  lossy.loss_rate = 0.05;
  sim.reset(deployment(), *flooding, *ans, routes, 5, &lossy);
  sim.run_to_convergence();
  expect_pin(observe(sim),
             {5102u, 1953u, 730u, 268u, 2542u, 11837u, 629465u,
              0xba2fe6b1d75cf5ceULL},
             "loss");

  // Wire corruption plus a misbehaving roster: per-leg corrupted copies
  // next to the batched clean subset, liar and replayer TCs.
  AdversarySpec adversaries;
  adversaries.kinds = {AdversaryKind::kLiar, AdversaryKind::kReplayer,
                       AdversaryKind::kBlackhole};
  adversaries.count = 3;
  adversaries.corrupt_rate = 0.02;
  sim.reset(deployment(), *flooding, *ans, routes, 5, nullptr, nullptr,
            &adversaries);
  sim.run_to_convergence();
  expect_pin(observe(sim),
             {5748u, 1961u, 639u, 257u, 2486u, 12128u, 590330u,
              0x94308b5795be38aeULL},
             "corrupt+roster");

  // Contended medium: one delivery event per leg, then data traffic
  // injected through queue callbacks and forwarded hop by hop.
  TrafficSpec traffic;
  traffic.arrival = TrafficSpec::Arrival::kPoisson;
  traffic.flows = 6;
  traffic.duration = 2.0;
  sim.reset(deployment(), *flooding, *ans, routes, 5, nullptr, &traffic);
  sim.run_to_convergence();
  const TrafficMatrix matrix =
      TrafficMatrix::generate(traffic, deployment(), 5);
  const double t0 = sim.now();
  for (const TrafficMatrix::Packet& packet : matrix.packets()) {
    const TrafficMatrix::Flow flow = matrix.flows()[packet.flow];
    sim.queue().schedule_at(t0 + packet.offset, [&sim, flow, packet] {
      sim.node(flow.source).send_data(flow.destination, packet.payload_id);
    });
  }
  sim.run_until(t0 + traffic.duration + 2.0);
  expect_pin(observe(sim),
             {21848u, 1911u, 140u, 48u, 355u, 1781u, 98025u,
              0x7a93eac573b2e17eULL},
             "contended");
  EXPECT_EQ(sim.trace().data_delivered, 239u);
  EXPECT_EQ(sim.trace().data_forwarded, 1531u);

  // A crash with a scheduled heal, timed re-convergence after it.
  sim.reset(deployment(), *flooding, *ans, routes, 5);
  sim.run_to_convergence();
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.count = 3;
  crash.duration = 4.0;
  sim.inject(crash);
  sim.run_to_convergence();
  expect_pin(observe(sim),
             {6661u, 2316u, 628u, 245u, 2330u, 11488u, 561245u,
              0x4f506d401db79d84ULL},
             "crash+heal");
}

}  // namespace
}  // namespace qolsr
