#include "eval/figures.hpp"

#include <cctype>

#include "eval/scenario.hpp"

namespace qolsr {

ExperimentSpec figure_spec(int figure, const FigureConfig& config) {
  // Set size (Figs. 6, 7) and QoS overhead (Figs. 8, 9), each for the
  // bandwidth and the delay metric over that metric's densities.
  struct PaperFigure {
    const char* name;
    MetricId metric;
  };
  constexpr PaperFigure kPaperFigures[] = {
      {"fig6_ans_size_bandwidth", MetricId::kBandwidth},
      {"fig7_ans_size_delay", MetricId::kDelay},
      {"fig8_bandwidth_overhead", MetricId::kBandwidth},
      {"fig9_delay_overhead", MetricId::kDelay},
  };
  if (figure < 6 || figure > 9)
    throw ExperimentError("figure_spec: the paper has figures 6-9, not " +
                          std::to_string(figure));
  const PaperFigure& paper = kPaperFigures[figure - 6];
  ExperimentSpec spec;
  spec.name = paper.name;
  spec.metric = paper.metric;
  spec.scenario.densities = paper.metric == MetricId::kBandwidth
                                ? bandwidth_densities()
                                : delay_densities();
  // spec.selectors already defaults to the paper's legend order.
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

namespace {

/// The frame every canned letter figure shares: all five selectors on the
/// bandwidth metric, swept along `axis` at a fixed mean degree, over
/// any-connected pairs (long multi-hop flows — what each figure measures
/// compounds per traversed hop, which the paper's 2-hop pairs would hide).
ExperimentSpec letter_figure(std::string name, BackendId backend,
                             Scenario::SweepAxis axis,
                             std::vector<double> values, double degree,
                             const FigureConfig& config) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.backend = backend;
  spec.metric = MetricId::kBandwidth;
  spec.selectors = {"olsr_mpr", "qolsr_mpr1", "qolsr_mpr2",
                    "topology_filtering", "fnbp"};
  spec.scenario.sweep_axis = axis;
  spec.scenario.densities = std::move(values);
  spec.scenario.field.degree = degree;
  spec.scenario.pair_mode = Scenario::PairMode::kAnyConnected;
  spec.scenario.runs = config.runs;
  spec.scenario.seed = config.seed;
  spec.threads = config.threads;
  return spec;
}

}  // namespace

ExperimentSpec figure_m_spec(const FigureConfig& config) {
  // Sweep values are waypoint speeds in m/s, at the paper's density.
  ExperimentSpec spec =
      letter_figure("figM_delivery_vs_speed", BackendId::kOracle,
                    Scenario::SweepAxis::kSpeed, {1, 5, 10, 15, 20}, 20.0,
                    config);
  spec.scenario.dynamics.model = DynamicsSpec::Model::kWaypoint;
  spec.scenario.dynamics.epochs = 50;
  spec.scenario.dynamics.epoch_duration = 1.0;  // one HELLO period
  spec.scenario.dynamics.refresh_interval = 5;  // OLSR's TC/HELLO ratio
  return spec;
}

ExperimentSpec figure_r_spec(const FigureConfig& config) {
  // Sweep values are P(frame lost).
  ExperimentSpec spec = letter_figure(
      "figR_delivery_vs_loss", BackendId::kPacket, Scenario::SweepAxis::kLoss,
      {0.0, 0.1, 0.2, 0.3, 0.4}, 10.0, config);
  // Eight probes resolve the per-run delivery ratio in 1/8 steps instead
  // of {0, 1}; one crash incident per run times re-convergence while the
  // loss column measures steady-state degradation.
  spec.scenario.probe_packets = 8;
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  crash.count = 1;
  crash.duration = 10.0;
  spec.scenario.faults.incidents.push_back(crash);
  return spec;
}

ExperimentSpec figure_l_spec(const FigureConfig& config) {
  // Sweep values multiply the offered load. Relay links near the gateway
  // of a flow pattern saturate first.
  ExperimentSpec spec = letter_figure(
      "figL_qos_under_load", BackendId::kPacket, Scenario::SweepAxis::kLoad,
      {0.25, 0.5, 1.0, 2.0, 4.0}, 10.0, config);
  spec.scenario.traffic.arrival = TrafficSpec::Arrival::kPoisson;
  spec.scenario.traffic.pattern = TrafficSpec::Pattern::kUniform;
  spec.scenario.traffic.flows = 16;
  spec.scenario.traffic.packet_rate = 20.0;
  spec.scenario.traffic.duration = 10.0;
  return spec;
}

ExperimentSpec figure_b_spec(const FigureConfig& config) {
  // Sweep values are roster fractions.
  ExperimentSpec spec =
      letter_figure("figB_delivery_vs_adversaries", BackendId::kPacket,
                    Scenario::SweepAxis::kAdversary,
                    {0.0, 0.05, 0.1, 0.2, 0.3}, 10.0, config);
  // Eight probes resolve the per-run delivery ratio; blackholes absorb
  // what is routed through them, liars bend the routes toward phantom
  // links — selectors that concentrate trust in fewer relays pay more.
  spec.scenario.probe_packets = 8;
  spec.scenario.adversaries.kinds = {AdversaryKind::kBlackhole,
                                     AdversaryKind::kLiar};
  return spec;
}

namespace {

/// The one table behind --figure parsing: name → canned spec. Adding a
/// figure is one row here; figure_names() and the unknown-name error both
/// derive from it.
struct FigureEntry {
  std::string_view name;
  ExperimentSpec (*make)(const FigureConfig&);
};

constexpr FigureEntry kFigureTable[] = {
    {"6", [](const FigureConfig& c) { return figure_spec(6, c); }},
    {"7", [](const FigureConfig& c) { return figure_spec(7, c); }},
    {"8", [](const FigureConfig& c) { return figure_spec(8, c); }},
    {"9", [](const FigureConfig& c) { return figure_spec(9, c); }},
    {"M", figure_m_spec},
    {"R", figure_r_spec},
    {"L", figure_l_spec},
    {"B", figure_b_spec},
};

}  // namespace

std::string figure_names() {
  std::string out;
  for (const FigureEntry& entry : kFigureTable) {
    if (!out.empty()) out += "|";
    out += entry.name;
  }
  return out;
}

ExperimentSpec figure_by_name(std::string_view name,
                              const FigureConfig& config) {
  std::string upper(name);
  for (char& c : upper)
    c = static_cast<char>(
        std::toupper(static_cast<unsigned char>(c)));
  for (const FigureEntry& entry : kFigureTable)
    if (upper == entry.name) return entry.make(config);
  throw ExperimentError("'" + std::string(name) +
                        "' is not a figure (valid: " + figure_names() + ")");
}

util::Table protocol_table(const std::vector<DensityStats>& sweep,
                           Scenario::SweepAxis axis,
                           std::span<const TableColumn> columns) {
  const int axis_decimals = axis == Scenario::SweepAxis::kDensity ||
                                    axis == Scenario::SweepAxis::kSpeed
                                ? 0
                                : 2;
  std::vector<std::string> header{sweep_axis_name(axis)};
  for (const TableColumn& c : columns)
    if (c.point_cell) header.emplace_back(c.name);
  if (!sweep.empty())
    for (const ProtocolStats& p : sweep.front().protocols)
      for (const TableColumn& c : columns)
        if (c.protocol_cell) header.push_back(p.name + std::string(c.name));
  util::Table table(std::move(header));
  for (const DensityStats& d : sweep) {
    std::vector<std::string> cells{
        util::format_double(d.density, axis_decimals)};
    for (const TableColumn& c : columns)
      if (c.point_cell) cells.push_back(c.point_cell(d));
    for (const ProtocolStats& p : d.protocols)
      for (const TableColumn& c : columns)
        if (c.protocol_cell) cells.push_back(c.protocol_cell(p));
    table.add_row(std::move(cells));
  }
  return table;
}

}  // namespace qolsr
