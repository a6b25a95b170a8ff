#include "workloads.hpp"

#include <stdexcept>

#include "eval/figures.hpp"

namespace perfbench {

namespace {

using qolsr::BackendId;
using qolsr::ExperimentSpec;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

ExperimentSpec field(ExperimentSpec spec, double side) {
  spec.scenario.field.width = side;
  spec.scenario.field.height = side;
  return spec;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> out;

  // The paper's Fig. 6 (1000x1000, three contenders, bandwidth).
  out.push_back({.name = "oracle-fig6",
                 .supersedes = "fig6_sweep",
                 .deck = 300,
                 .tail_percentile = 0.90,
                 .points = qolsr::bandwidth_densities(),
                 .shape = qolsr::figure_spec(6, {})});

  // Control flooding to convergence, no traffic or faults.
  ExperimentSpec control;
  control.name = "packet_control";
  control.backend = BackendId::kPacket;
  out.push_back({.name = "packet-control",
                 .supersedes = "packet_sweep",
                 .deck = 255,
                 .tail_percentile = 0.90,
                 .points = {14, 17, 20},
                 .shape = field(control, 300)});

  // Figure L at load 4: contended medium, per-leg delivery, data plane.
  out.push_back({.name = "packet-load",
                 .supersedes = "figL_point",
                 .deck = 192,
                 .tail_percentile = 0.85,
                 .points = {4.0},
                 .shape = field(qolsr::figure_l_spec({}), 300)});

  // Real processes over the software switch, digest-checked per fleet.
  ExperimentSpec wire;
  wire.name = "wire_fleet";
  wire.backend = BackendId::kWire;
  out.push_back({.name = "wire-fleet",
                 .supersedes = "new",
                 .deck = 32,
                 .tail_percentile = 1.0,
                 .points = {6},
                 .shape = field(wire, 250)});
  // Unit i runs sweep point i mod |points| on every pass over the deck.
  for (const Workload& w : out)
    if (w.deck % w.points.size() != 0)
      throw std::logic_error("perfbench: deck not a multiple of the points");
  return out;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = make_workloads();
  return table;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

ExperimentSpec unit_spec(const Workload& workload, std::uint64_t seed,
                         std::size_t index) {
  index %= workload.deck;
  ExperimentSpec spec = workload.shape;
  spec.scenario.densities = {workload.points[index % workload.points.size()]};
  spec.scenario.runs = 1;
  spec.scenario.seed = splitmix64(splitmix64(seed) + index);
  spec.threads = 1;
  spec.format = "csv";
  return spec;
}

}  // namespace perfbench
