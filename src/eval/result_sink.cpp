#include "eval/result_sink.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "eval/figures.hpp"

namespace qolsr {

DistributionSummary summarize_distribution(
    const util::DistributionAccumulator& dist) {
  DistributionSummary summary;
  summary.count = dist.count();
  if (dist.empty()) return summary;
  // Everything derives from the one sorted copy — including the mean,
  // whose floating-point summation order must not depend on how many
  // worker threads contributed samples.
  const std::vector<double> sorted = dist.sorted();
  double sum = 0.0;
  for (const double x : sorted) sum += x;
  summary.mean = sum / static_cast<double>(sorted.size());
  summary.p50 = util::quantile_sorted(sorted, 0.50);
  summary.p95 = util::quantile_sorted(sorted, 0.95);
  summary.p99 = util::quantile_sorted(sorted, 0.99);
  summary.min = sorted.front();
  summary.max = sorted.back();
  summary.histogram = util::histogram_sorted(
      sorted, summary.min, summary.max, kDistributionHistogramBuckets);
  return summary;
}

namespace {

/// Shortest-ish decimal that round-trips our aggregate magnitudes; stable
/// across platforms for the golden-output tests ("2" not "2.000000").
std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.10g", v);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                    static_cast<unsigned>(c));
      out += buffer;
    } else {
      out += c;
    }
  }
  return out;
}

/// JSON has no literal for non-finite numbers; an infinite overhead (zero
/// additive optimum beaten by a nonzero route) becomes null.
std::string json_num(double v) {
  return std::isfinite(v) ? fmt(v) : "null";
}

std::string json_stats(const util::RunningStats& s) {
  return "{\"mean\": " + json_num(s.mean()) +
         ", \"stddev\": " + json_num(s.stddev()) +
         ", \"min\": " + json_num(s.min()) + ", \"max\": " + json_num(s.max()) +
         "}";
}

/// JSON object form of a DistributionSummary.
std::string json_distribution(const util::DistributionAccumulator& dist) {
  const DistributionSummary s = summarize_distribution(dist);
  std::string out = "{\"count\": " + std::to_string(s.count) +
                    ", \"mean\": " + json_num(s.mean) +
                    ", \"p50\": " + json_num(s.p50) +
                    ", \"p95\": " + json_num(s.p95) +
                    ", \"p99\": " + json_num(s.p99) +
                    ", \"min\": " + json_num(s.min) +
                    ", \"max\": " + json_num(s.max) + ", \"histogram\": [";
  for (std::size_t i = 0; i < s.histogram.size(); ++i)
    out += (i ? ", " : "") + std::to_string(s.histogram[i]);
  out += "]}";
  return out;
}

// ---------------------------------------------------------- output blocks --

/// The blocks a result's output is made of. Each is declared once below —
/// a CSV column list and, where the pretty view shows it, a table section —
/// and switched on for a result by active_blocks().
enum Block : unsigned {
  kCore = 1u << 0,          ///< static-sweep aggregates (Figs. 6-9)
  kDynamics = 1u << 1,      ///< epoch-loop aggregates, in place of kCore
  kControlPlane = 1u << 2,  ///< packet backend: control-plane cost
  kFaults = 1u << 3,        ///< fault engine
  kTraffic = 1u << 4,       ///< traffic workload
  kAdversary = 1u << 5,     ///< adversary engine
};
using Blocks = unsigned;

/// The one decision of which blocks a result emits, shared by every sink.
/// An engine block exists only where it can be nonzero: a packet-backend
/// result whose scenario carries that engine's active spec or sweeps its
/// axis. Everything else — including a packet sweep with no engine flags —
/// keeps the byte layout that predates the engine, which is what the
/// fault-free golden pins (and the loss = 0, load = 0 and fraction = 0
/// column checks) hold the engines to.
Blocks active_blocks(const ExperimentSpec& spec) {
  const Scenario& s = spec.scenario;
  if (s.dynamics.enabled()) return kDynamics;
  if (spec.backend != BackendId::kPacket) return kCore;
  Blocks blocks = kCore | kControlPlane;
  if (s.faults.active() || s.sweep_axis == Scenario::SweepAxis::kLoss)
    blocks |= kFaults;
  if (s.traffic.active() || s.sweep_axis == Scenario::SweepAxis::kLoad)
    blocks |= kTraffic;
  if (s.adversaries.active() ||
      s.sweep_axis == Scenario::SweepAxis::kAdversary)
    blocks |= kAdversary;
  return blocks;
}

/// One emitted value, rendered by each format in its own syntax: a blank
/// is an empty CSV field and an omitted JSON field, a flag is 1/0 in CSV
/// and true/false in JSON, and a non-finite number is null in JSON.
using Value =
    std::variant<std::monostate, double, std::uint64_t, bool, std::string_view>;

void write_csv_value(std::ostream& os, const Value& v) {
  if (const auto* x = std::get_if<double>(&v)) os << fmt(*x);
  else if (const auto* n = std::get_if<std::uint64_t>(&v)) os << *n;
  else if (const auto* b = std::get_if<bool>(&v)) os << (*b ? 1 : 0);
  else if (const auto* t = std::get_if<std::string_view>(&v)) os << *t;
}

/// JSON renders only per-run record fields, which carry no text.
void write_json_value(std::ostream& os, const Value& v) {
  if (const auto* x = std::get_if<double>(&v)) os << json_num(*x);
  else if (const auto* n = std::get_if<std::uint64_t>(&v)) os << *n;
  else if (const auto* b = std::get_if<bool>(&v)) os << (*b ? "true" : "false");
}

/// One column: its header and the cell it reads from a row.
template <typename Row>
struct Column {
  /// Takes the cell as a captureless lambda over the row whose result
  /// converts to a Value.
  template <typename Cell>
  constexpr Column(std::string_view header, Cell,
                   std::string_view json_key = {})
      : header(header),
        json_key(json_key),
        cell([](const Row& row) -> Value { return Cell{}(row); }) {}

  /// CSV header; empty labels the column with the result's sweep axis.
  std::string_view header;
  /// JSON key where it differs from the CSV header (record fields only).
  std::string_view json_key;
  Value (*cell)(const Row&);
};

/// A block's column list, emitted when its block is active.
template <typename Row>
struct ColumnBlock {
  Blocks block;
  std::span<const Column<Row>> columns;
};

/// One aggregate row: a protocol at a sweep point, plus the distribution
/// summaries its active blocks report (one sort each per row).
struct AggregateRow {
  const ExperimentSpec& spec;
  const DensityStats& d;
  const ProtocolStats& p;
  DistributionSummary probe_delivery, latency, flow_delivery, throughput;
};
using Agg = const AggregateRow&;

AggregateRow aggregate_row(const ExperimentSpec& spec, const DensityStats& d,
                           const ProtocolStats& p, Blocks active) {
  AggregateRow row{spec, d, p};
  if (active & kFaults)
    row.probe_delivery = summarize_distribution(p.probe_delivery);
  if (active & kTraffic) {
    row.latency = summarize_distribution(p.traffic.latency);
    row.flow_delivery = summarize_distribution(p.traffic.flow_delivery);
    row.throughput = summarize_distribution(p.traffic.flow_throughput);
  }
  return row;
}

/// The value of an engine's swept parameter at a row: the sweep value on
/// that engine's own axis, the spec's setting otherwise.
double swept(Agg r, Scenario::SweepAxis axis, double fixed) {
  return r.spec.scenario.sweep_axis == axis ? r.d.density : fixed;
}

constexpr Column<AggregateRow> kMetric{
    "metric", [](Agg r) { return metric_name(r.spec.metric); }};
constexpr Column<AggregateRow> kAxis{"", [](Agg r) { return r.d.density; }};
constexpr Column<AggregateRow> kRuns{"runs", [](Agg r) { return r.d.runs; }};
constexpr Column<AggregateRow> kAvgNodes{
    "avg_nodes", [](Agg r) { return r.d.node_count.mean(); }};
constexpr Column<AggregateRow> kProtocol{
    "protocol", [](Agg r) { return std::string_view(r.p.name); }};
constexpr Column<AggregateRow> kSetSizeMean{
    "set_size_mean", [](Agg r) { return r.p.set_size.mean(); }};
constexpr Column<AggregateRow> kSetSizeStddev{
    "set_size_stddev", [](Agg r) { return r.p.set_size.stddev(); }};
constexpr Column<AggregateRow> kDelivered{
    "delivered", [](Agg r) { return r.p.delivered; }};
constexpr Column<AggregateRow> kFailed{
    "failed", [](Agg r) { return r.p.failed; }};
constexpr Column<AggregateRow> kOverheadMean{
    "overhead_mean", [](Agg r) { return r.p.overhead.mean(); }};
constexpr Column<AggregateRow> kPathHopsMean{
    "path_hops_mean", [](Agg r) { return r.p.path_hops.mean(); }};
constexpr Column<AggregateRow> kDeliveryRatio{
    "delivery_ratio", [](Agg r) { return r.p.delivery_ratio(); }};

/// The static-sweep aggregates, shared by the oracle and packet layouts so
/// figure tooling reads either.
constexpr Column<AggregateRow> kCoreColumns[] = {
    kMetric, kAxis, kRuns, kAvgNodes, kProtocol, kSetSizeMean, kSetSizeStddev,
    kDelivered, kFailed, kOverheadMean,
    {"overhead_stddev", [](Agg r) { return r.p.overhead.stddev(); }},
    kPathHopsMean,
};

/// The epoch-loop aggregates. Every attempted epoch packet had a connected
/// (source, destination) pair; `failed` counts all undelivered packets and
/// `stale_losses` the subset dropped handing off over a vanished
/// advertised link — the losses chargeable to advertisement age.
constexpr Column<AggregateRow> kDynamicsColumns[] = {
    kMetric, kAxis, kRuns,
    {"epochs", [](Agg r) { return r.spec.scenario.dynamics.epochs; }},
    kAvgNodes, kProtocol, kSetSizeMean, kSetSizeStddev,
    {"packets", [](Agg r) { return r.p.delivered + r.p.failed; }},
    kDelivered, kFailed,
    {"stale_losses", [](Agg r) { return r.p.stale_losses; }},
    kDeliveryRatio, kOverheadMean,
    {"stretch_mean", [](Agg r) { return r.p.stretch.mean(); }},
    kPathHopsMean,
    {"readvertised_mean", [](Agg r) { return r.p.readvertised.mean(); }},
};

/// What the oracle cannot measure: per-run mean message and byte counts,
/// duplicate-set hits, and the measured convergence time.
constexpr Column<AggregateRow> kControlPlaneColumns[] = {
    {"hello_msgs_mean", [](Agg r) { return r.p.control.hello_msgs.mean(); }},
    {"tc_msgs_mean", [](Agg r) { return r.p.control.tc_msgs.mean(); }},
    {"tc_forwards_mean", [](Agg r) { return r.p.control.tc_forwards.mean(); }},
    {"duplicate_drops_mean",
     [](Agg r) { return r.p.control.duplicate_drops.mean(); }},
    {"control_bytes_mean",
     [](Agg r) { return r.p.control.control_bytes.mean(); }},
    {"convergence_time_mean",
     [](Agg r) { return r.p.control.convergence_time.mean(); }},
    {"convergence_time_stddev",
     [](Agg r) { return r.p.control.convergence_time.stddev(); }},
    {"unconverged_runs", [](Agg r) { return r.p.control.unconverged; }},
};

constexpr Column<AggregateRow> kFaultColumns[] = {
    {"loss_rate", [](Agg r) {
       return swept(r, Scenario::SweepAxis::kLoss,
                    r.spec.scenario.faults.loss_rate);
     }},
    {"probes", [](Agg r) { return r.spec.scenario.probe_packets; }},
    kDeliveryRatio,
    {"no_route_drops", [](Agg r) { return r.p.no_route_losses; }},
    {"loop_drops", [](Agg r) { return r.p.loop_losses; }},
    {"medium_drops", [](Agg r) { return r.p.medium_losses; }},
    {"frames_lost_mean", [](Agg r) { return r.p.control.frames_lost.mean(); }},
    {"frames_blocked_mean",
     [](Agg r) { return r.p.control.frames_blocked.mean(); }},
    {"reconvergence_time_mean",
     [](Agg r) { return r.p.control.reconvergence_time.mean(); }},
    {"reconv_unconverged",
     [](Agg r) { return r.p.control.reconv_unconverged; }},
    {"probe_delivery_p50", [](Agg r) { return r.probe_delivery.p50; }},
    {"probe_delivery_p95", [](Agg r) { return r.probe_delivery.p95; }},
    {"probe_delivery_p99", [](Agg r) { return r.probe_delivery.p99; }},
};

constexpr Column<AggregateRow> kTrafficColumns[] = {
    {"load", [](Agg r) {
       return swept(r, Scenario::SweepAxis::kLoad,
                    r.spec.scenario.traffic.load);
     }},
    {"offered", [](Agg r) { return r.p.traffic.offered; }},
    {"traffic_delivered", [](Agg r) { return r.p.traffic.delivered; }},
    {"traffic_delivery_ratio",
     [](Agg r) { return r.p.traffic.delivery_ratio(); }},
    {"queue_drops", [](Agg r) { return r.p.traffic.queue_drops; }},
    {"traffic_no_route_drops",
     [](Agg r) { return r.p.traffic.no_route_drops; }},
    {"traffic_loop_drops", [](Agg r) { return r.p.traffic.loop_drops; }},
    {"traffic_medium_drops", [](Agg r) { return r.p.traffic.medium_drops; }},
    {"latency_p50", [](Agg r) { return r.latency.p50; }},
    {"latency_p95", [](Agg r) { return r.latency.p95; }},
    {"latency_p99", [](Agg r) { return r.latency.p99; }},
    {"flow_delivery_p50", [](Agg r) { return r.flow_delivery.p50; }},
    {"flow_delivery_p95", [](Agg r) { return r.flow_delivery.p95; }},
    {"flow_delivery_p99", [](Agg r) { return r.flow_delivery.p99; }},
    {"throughput_p50", [](Agg r) { return r.throughput.p50; }},
    {"throughput_p95", [](Agg r) { return r.throughput.p95; }},
    {"throughput_p99", [](Agg r) { return r.throughput.p99; }},
};

constexpr Column<AggregateRow> kAdversaryColumns[] = {
    {"adversary_fraction", [](Agg r) {
       const double fraction = r.spec.scenario.adversaries.fraction;
       return swept(r, Scenario::SweepAxis::kAdversary,
                    fraction >= 0.0 ? fraction : 0.0);
     }},
    {"adversary_count",
     [](Agg r) { return r.spec.scenario.adversaries.count; }},
    {"corrupt_rate",
     [](Agg r) { return r.spec.scenario.adversaries.corrupt_rate; }},
    {"adversary_delivery_ratio", [](Agg r) { return r.p.delivery_ratio(); }},
    {"invariant_violations",
     [](Agg r) { return r.p.invariants.counters.total(); }},
    {"forwarding_loops",
     [](Agg r) { return r.p.invariants.counters.forwarding_loops; }},
    {"blackhole_absorptions",
     [](Agg r) { return r.p.invariants.counters.blackhole_absorptions; }},
    {"mpr_refusals",
     [](Agg r) { return r.p.invariants.counters.mpr_refusals; }},
    {"ansn_regressions",
     [](Agg r) { return r.p.invariants.counters.ansn_regressions; }},
    {"stale_tc_rejections",
     [](Agg r) { return r.p.invariants.counters.stale_tc_rejections; }},
    {"phantom_links",
     [](Agg r) { return r.p.invariants.counters.phantom_links; }},
    {"inflated_qos",
     [](Agg r) { return r.p.invariants.counters.inflated_qos; }},
    {"poisoned_nodes",
     [](Agg r) { return r.p.invariants.counters.poisoned_nodes; }},
    {"poisoned_routes", [](Agg r) { return r.p.invariants.poisoned_routes; }},
    {"frames_corrupted_mean",
     [](Agg r) { return r.p.invariants.frames_corrupted.mean(); }},
    {"frames_malformed_mean",
     [](Agg r) { return r.p.invariants.frames_malformed.mean(); }},
    {"first_violation_mean",
     [](Agg r) { return r.p.invariants.time_to_first_violation.mean(); }},
};

constexpr ColumnBlock<AggregateRow> kAggregateBlocks[] = {
    {kCore, kCoreColumns}, {kDynamics, kDynamicsColumns},
    {kControlPlane, kControlPlaneColumns}, {kFaults, kFaultColumns},
    {kTraffic, kTrafficColumns}, {kAdversary, kAdversaryColumns},
};

/// One per-run record row: one protocol's outcome in run `r` at sweep
/// point `d`.
struct RecordRow {
  const DensityStats& d;
  const RunRecord& r;
  std::string_view protocol;
  const RunRecord::Protocol& rp;
};
using Rec = const RecordRow&;

/// A run's routed value, overhead and hop count exist when at least one of
/// its probes arrived; otherwise they are blank.
template <typename T>
Value when_routed(Rec r, T value) {
  if (r.rp.delivered || r.rp.probes_delivered > 0) return value;
  return std::monostate{};
}

constexpr Column<RecordRow> kRecordKeyColumns[] = {
    {"", [](Rec r) { return r.d.density; }},
    {"run", [](Rec r) { return r.r.run_index; }},
    {"nodes", [](Rec r) { return r.r.nodes; }},
    {"protocol", [](Rec r) { return r.protocol; }},
};

constexpr Column<RecordRow> kRecordColumns[] = {
    {"set_size", [](Rec r) { return r.rp.set_size; }},
    {"delivered", [](Rec r) { return r.rp.delivered; }},
    {"value", [](Rec r) { return when_routed(r, r.rp.value); }},
    {"overhead", [](Rec r) { return when_routed(r, r.rp.overhead); }},
    {"path_hops", [](Rec r) { return when_routed(r, r.rp.hops); }, "hops"},
};

constexpr Column<RecordRow> kRecordControlPlaneColumns[] = {
    {"convergence_time", [](Rec r) { return r.rp.convergence_time; }},
    {"converged", [](Rec r) { return r.rp.converged; }},
    {"control_bytes", [](Rec r) { return r.rp.control_bytes; }},
    {"probes_delivered", [](Rec r) { return r.rp.probes_delivered; }},
    {"probes_failed", [](Rec r) { return r.rp.probes_failed; }},
};

constexpr Column<RecordRow> kRecordTrafficColumns[] = {
    {"traffic_offered", [](Rec r) { return r.rp.traffic_offered; }},
    {"traffic_delivered", [](Rec r) { return r.rp.traffic_delivered; }},
    {"traffic_latency_p95", [](Rec r) { return r.rp.traffic_latency_p95; }},
};

constexpr Column<RecordRow> kRecordAdversaryColumns[] = {
    {"invariant_violations", [](Rec r) { return r.rp.invariant_violations; }},
    {"poisoned_routes", [](Rec r) { return r.rp.poisoned_routes; }},
};

/// The per-run record columns. The first block is the record's identity,
/// which the JSON document nests as the enclosing object instead.
constexpr ColumnBlock<RecordRow> kRecordBlocks[] = {
    {kCore, kRecordKeyColumns},
    {kCore, kRecordColumns},
    {kControlPlane, kRecordControlPlaneColumns},
    {kTraffic, kRecordTrafficColumns},
    {kAdversary, kRecordAdversaryColumns},
};

/// Calls `f` on every column of the active blocks, in emission order.
template <typename Row, typename F>
void for_each_column(std::span<const ColumnBlock<Row>> blocks, Blocks active,
                     F&& f) {
  for (const ColumnBlock<Row>& block : blocks)
    if (active & block.block)
      for (const Column<Row>& column : block.columns) f(column);
}

/// Writes one CSV table — the header, then one line per row — from the
/// active column lists.
template <typename Row>
void write_csv_table(std::ostream& os, std::span<const ColumnBlock<Row>> blocks,
                     Blocks active, std::string_view axis,
                     const std::vector<Row>& rows) {
  std::string line;
  for_each_column(blocks, active, [&](const Column<Row>& column) {
    if (!line.empty()) line += ',';
    line += column.header.empty() ? axis : column.header;
  });
  os << line << '\n';
  for (const Row& row : rows) {
    const char* separator = "";
    for_each_column(blocks, active, [&](const Column<Row>& column) {
      os << separator;
      write_csv_value(os, column.cell(row));
      separator = ",";
    });
    os << '\n';
  }
}

// ------------------------------------------------------ pretty sections --

using P = const ProtocolStats&;

std::string fixed(double v, int decimals) {
  return util::format_double(v, decimals);
}
std::string count(std::uint64_t n) {
  return util::format_double(static_cast<double>(n), 0);
}

constexpr TableColumn kDeliveryRatioCell{
    "_delivery", [](P p) { return fixed(p.delivery_ratio(), 3); }};

constexpr TableColumn kSetSizeSection[] = {
    {"", [](P p) { return fixed(p.set_size.mean(), 3); }}};
constexpr TableColumn kDynamicsSection[] = {
    kDeliveryRatioCell,
    {"_stretch", [](P p) { return fixed(p.stretch.mean(), 3); }},
    {"_readv", [](P p) { return fixed(p.readvertised.mean(), 1); }},
};
constexpr TableColumn kOverheadSection[] = {
    {"", [](P p) { return fixed(p.overhead.mean(), 4); }}};
constexpr TableColumn kDiagnosticsSection[] = {
    {"avg_nodes", nullptr,
     [](const DensityStats& d) { return fixed(d.node_count.mean(), 1); }},
    {"_delivered", [](P p) {
       return count(p.delivered) + "/" + count(p.delivered + p.failed);
     }},
    {"_hops", [](P p) { return fixed(p.path_hops.mean(), 2); }},
};
constexpr TableColumn kDegradationSection[] = {
    kDeliveryRatioCell,
    {"_blackhole", [](P p) { return count(p.no_route_losses); }},
    {"_reconv_s", [](P p) {
       return fixed(p.control.reconvergence_time.mean(), 2);
     }},
};
constexpr TableColumn kTrafficSection[] = {
    {"_delivery", [](P p) { return fixed(p.traffic.delivery_ratio(), 3); }},
    {"_qdrops", [](P p) { return count(p.traffic.queue_drops); }},
    {"_p95_ms", [](P p) {
       return fixed(summarize_distribution(p.traffic.latency).p95 * 1000.0, 2);
     }},
};
constexpr TableColumn kAdversarySection[] = {
    kDeliveryRatioCell,
    {"_violations", [](P p) { return count(p.invariants.counters.total()); }},
    {"_poisoned", [](P p) { return count(p.invariants.poisoned_routes); }},
};
constexpr TableColumn kControlPlaneSection[] = {
    {"_tcs", [](P p) {
       return fixed(p.control.tc_msgs.mean() + p.control.tc_forwards.mean(), 1);
     }},
    {"_bytes", [](P p) { return fixed(p.control.control_bytes.mean(), 0); }},
    {"_conv_s", [](P p) {
       return fixed(p.control.convergence_time.mean(), 2);
     }},
};

}  // namespace

void PrettyTableSink::write(const ExperimentResult& result,
                            std::ostream& os) const {
  const ExperimentSpec& spec = result.spec;
  const Scenario& s = spec.scenario;
  const Blocks active = active_blocks(spec);
  const auto swept_or = [&](Scenario::SweepAxis axis, std::string value) {
    return s.sweep_axis == axis ? std::string("<sweep axis>") : value;
  };
  os << "# " << spec.name << " — metric=" << metric_name(spec.metric)
     << " runs/density=" << s.runs << " seed=" << s.seed << "\n";
  if (active & kControlPlane)
    os << "# backend=packet — discrete-event HELLO/TC simulation, measured "
          "from converged protocol state\n";
  if (active & kFaults)
    os << "# faults: loss="
       << swept_or(Scenario::SweepAxis::kLoss, fmt(s.faults.loss_rate))
       << " incidents=" << s.faults.incidents.size()
       << " probes/run=" << s.probe_packets << "\n";
  if (active & kTraffic)
    os << "# traffic: arrival="
       << util::name_of(kTrafficArrivals, s.traffic.arrival)
       << " pattern=" << util::name_of(kTrafficPatterns, s.traffic.pattern)
       << " flows=" << s.traffic.flows << " load="
       << swept_or(Scenario::SweepAxis::kLoad, fmt(s.traffic.load)) << "\n";
  if (active & kAdversary) {
    std::string kinds;
    for (const AdversaryKind kind : s.adversaries.kinds) {
      if (!kinds.empty()) kinds += ",";
      kinds += util::name_of(kAdversaryKinds, kind);
    }
    os << "# adversaries: roster="
       << swept_or(Scenario::SweepAxis::kAdversary,
                   std::to_string(s.adversaries.count))
       << " kinds=" << (kinds.empty() ? "none" : kinds)
       << " corrupt=" << fmt(s.adversaries.corrupt_rate) << "\n";
  }
  if (active & kDynamics)
    os << "# mobility=" << util::name_of(kMobilityModels, s.dynamics.model)
       << " epochs/run=" << s.dynamics.epochs
       << " refresh=" << s.dynamics.refresh_interval << "\n";
  const auto section = [&](std::string_view title,
                           std::span<const TableColumn> columns) {
    os << "\n## " << title << "\n"
       << protocol_table(result.sweep, s.sweep_axis, columns).to_string();
  };
  section("advertised set size (mean |ANS| per node)", kSetSizeSection);
  if (active & kDynamics)
    section("delivery ratio / hop stretch / TC re-advertisements",
            kDynamicsSection);
  section("QoS overhead vs. centralized optimum", kOverheadSection);
  section("diagnostics", kDiagnosticsSection);
  if (active & kFaults)
    section("graceful degradation (delivery ratio, blackhole drops, mean "
            "re-convergence seconds after injected faults)",
            kDegradationSection);
  if (active & kTraffic)
    section("traffic under load (flow delivery ratio, queue-tail drops, p95 "
            "end-to-end latency in ms)",
            kTrafficSection);
  if (active & kAdversary)
    section("adversary engine (delivery ratio, invariant violations caught "
            "by the runtime monitor, poisoned routes)",
            kAdversarySection);

  // The control-plane section follows what was measured rather than a
  // block: the wire backend reports convergence without the CSV columns.
  std::size_t measured = 0, unconverged = 0, reconv_unconverged = 0;
  for (const DensityStats& d : result.sweep)
    for (const ProtocolStats& p : d.protocols) {
      measured += p.control.measured() ? 1 : 0;
      unconverged += p.control.unconverged;
      reconv_unconverged += p.control.reconv_unconverged;
    }
  if (measured > 0) {
    section("control plane (mean per run: TC messages incl. forwards, "
            "broadcast bytes, measured convergence seconds)",
            kControlPlaneSection);
    if (unconverged > 0)
      os << "\nWARNING: " << unconverged
         << " simulation run(s) hit the hard time cap before the control "
            "plane quiesced; their measurements are from unconverged state "
            "(see the unconverged_runs column in csv/json).\n";
    if (reconv_unconverged > 0)
      os << "\nWARNING: " << reconv_unconverged
         << " post-fault re-convergence window(s) hit the hard time cap "
            "still changing; their reconvergence_time samples are lower "
            "bounds (see reconv_unconverged in csv/json).\n";
  }
  std::size_t records = 0;
  for (const DensityStats& d : result.sweep) records += d.run_records.size();
  if (records > 0)
    os << "\n(" << records
       << " per-run records recorded; use --format=csv or json to export "
          "them)\n";
}

void CsvSink::write(const ExperimentResult& result, std::ostream& os) const {
  const ExperimentSpec& spec = result.spec;
  const Blocks active = active_blocks(spec);
  const std::string_view axis = sweep_axis_name(spec.scenario.sweep_axis);
  std::vector<AggregateRow> rows;
  std::vector<RecordRow> records;
  rows.reserve(result.sweep.size() * spec.selectors.size());
  for (const DensityStats& d : result.sweep) {
    for (const ProtocolStats& p : d.protocols)
      rows.push_back(aggregate_row(spec, d, p, active));
    for (const RunRecord& r : d.run_records)
      for (std::size_t si = 0; si < r.protocols.size(); ++si)
        records.push_back({d, r, d.protocols[si].name, r.protocols[si]});
  }
  write_csv_table<AggregateRow>(os, kAggregateBlocks, active, axis, rows);
  // The per-run records follow as a second table after a blank line.
  if (records.empty()) return;
  os << '\n';
  write_csv_table<RecordRow>(os, kRecordBlocks, active, axis, records);
}

void JsonSink::write(const ExperimentResult& result, std::ostream& os) const {
  const ExperimentSpec& spec = result.spec;
  const Blocks active = active_blocks(spec);
  os << "{\n";
  os << "  \"name\": \"" << json_escape(spec.name) << "\",\n";
  // Only the non-default backend is echoed: pre-existing oracle documents
  // stay byte-identical.
  if (spec.backend != BackendId::kOracle)
    os << "  \"backend\": \"" << util::name_of(kBackends, spec.backend)
       << "\",\n";
  os << "  \"metric\": \"" << metric_name(spec.metric) << "\",\n";
  os << "  \"metric_kind\": \""
     << (metric_kind(spec.metric) == MetricKind::kConcave ? "concave"
                                                          : "additive")
     << "\",\n";
  os << "  \"selectors\": [";
  for (std::size_t i = 0; i < spec.selectors.size(); ++i)
    os << (i ? ", " : "") << '"' << json_escape(spec.selectors[i]) << '"';
  os << "],\n";
  os << "  \"runs\": " << spec.scenario.runs << ",\n";
  os << "  \"seed\": " << spec.scenario.seed << ",\n";
  os << "  \"threads\": " << spec.threads << ",\n";

  // Each active engine block echoes its spec. The sweep-axis label is
  // written once, in front of the fault echo if there is one, else in
  // front of the first echo (the layout the golden documents pin).
  bool axis_pending = true;
  const auto echo = [&](Blocks block) {
    if (!(active & block)) return false;
    if (axis_pending && (block == kFaults || !(active & kFaults))) {
      os << "  \"axis\": \"" << sweep_axis_name(spec.scenario.sweep_axis)
         << "\",\n";
      axis_pending = false;
    }
    return true;
  };
  if (echo(kTraffic)) {
    const TrafficSpec& t = spec.scenario.traffic;
    os << "  \"traffic\": {\"arrival\": \""
       << util::name_of(kTrafficArrivals, t.arrival) << "\", \"pattern\": \""
       << util::name_of(kTrafficPatterns, t.pattern)
       << "\", \"flows\": " << t.flows << ", \"load\": " << fmt(t.load)
       << ", \"packet_rate\": " << fmt(t.packet_rate)
       << ", \"duration\": " << fmt(t.duration)
       << ", \"packet_bytes\": " << t.packet_bytes
       << ", \"link_capacity\": " << fmt(t.link_capacity)
       << ", \"queue_bytes\": " << t.queue_bytes << "},\n";
  }
  if (echo(kFaults)) {
    const FaultPlan& plan = spec.scenario.faults;
    std::size_t crashes = 0, flaps = 0, partitions = 0;
    for (const FaultIncident& incident : plan.incidents) {
      switch (incident.kind) {
        case FaultIncident::Kind::kNodeCrash: ++crashes; break;
        case FaultIncident::Kind::kLinkFlap: ++flaps; break;
        case FaultIncident::Kind::kPartition: ++partitions; break;
      }
    }
    os << "  \"faults\": {\"loss_rate\": " << fmt(plan.loss_rate)
       << ", \"link_loss_overrides\": " << plan.link_loss.size()
       << ", \"crash_incidents\": " << crashes
       << ", \"flap_incidents\": " << flaps
       << ", \"partition_incidents\": " << partitions
       << ", \"probe_packets\": " << spec.scenario.probe_packets << "},\n";
  }
  if (echo(kAdversary)) {
    const AdversarySpec& adv = spec.scenario.adversaries;
    os << "  \"adversaries\": {\"count\": " << adv.count
       << ", \"fraction\": " << fmt(adv.fraction) << ", \"kinds\": [";
    for (std::size_t i = 0; i < adv.kinds.size(); ++i)
      os << (i ? ", " : "") << '"'
         << util::name_of(kAdversaryKinds, adv.kinds[i]) << '"';
    os << "], \"corrupt_rate\": " << fmt(adv.corrupt_rate) << "},\n";
  }
  if (echo(kDynamics)) {
    const DynamicsSpec& dyn = spec.scenario.dynamics;
    os << "  \"dynamics\": {\"model\": \""
       << util::name_of(kMobilityModels, dyn.model)
       << "\", \"epochs\": " << dyn.epochs
       << ", \"epoch_duration\": " << fmt(dyn.epoch_duration)
       << ", \"refresh_interval\": " << dyn.refresh_interval
       << ", \"speed_min\": " << fmt(dyn.speed_min)
       << ", \"speed_max\": " << fmt(dyn.speed_max)
       << ", \"pause_epochs\": " << dyn.pause_epochs
       << ", \"link_down_rate\": " << fmt(dyn.link_down_rate)
       << ", \"link_up_rate\": " << fmt(dyn.link_up_rate) << "},\n";
  }

  // JSON nests the per-run fields under their record, so the record's
  // identity block is written here instead of per field.
  const auto record_fields = std::span(kRecordBlocks).subspan(1);
  os << "  \"densities\": [";
  for (std::size_t di = 0; di < result.sweep.size(); ++di) {
    const DensityStats& d = result.sweep[di];
    os << (di ? "," : "") << "\n    {\n";
    os << "      \"density\": " << fmt(d.density) << ",\n";
    os << "      \"runs\": " << d.runs << ",\n";
    os << "      \"avg_nodes\": " << fmt(d.node_count.mean()) << ",\n";
    os << "      \"protocols\": [";
    for (std::size_t pi = 0; pi < d.protocols.size(); ++pi) {
      const ProtocolStats& p = d.protocols[pi];
      os << (pi ? "," : "") << "\n        {\"name\": \"" << json_escape(p.name)
         << "\", \"delivered\": " << p.delivered
         << ", \"failed\": " << p.failed
         << ",\n         \"set_size\": " << json_stats(p.set_size)
         << ",\n         \"overhead\": " << json_stats(p.overhead)
         << ",\n         \"path_hops\": " << json_stats(p.path_hops);
      if (active & kDynamics) {
        os << ",\n         \"delivery_ratio\": " << json_num(p.delivery_ratio())
           << ", \"stale_losses\": " << p.stale_losses
           << ",\n         \"stretch\": " << json_stats(p.stretch)
           << ",\n         \"readvertised\": " << json_stats(p.readvertised);
      }
      if (active & kFaults) {
        os << ",\n         \"delivery_ratio\": " << json_num(p.delivery_ratio())
           << ", \"no_route_drops\": " << p.no_route_losses
           << ", \"loop_drops\": " << p.loop_losses
           << ", \"medium_drops\": " << p.medium_losses
           << ",\n         \"probe_delivery\": "
           << json_distribution(p.probe_delivery);
      }
      if ((active & kTraffic) && p.traffic.measured()) {
        os << ",\n         \"traffic\": {"
           << "\n           \"offered\": " << p.traffic.offered
           << ", \"delivered\": " << p.traffic.delivered
           << ", \"delivery_ratio\": " << json_num(p.traffic.delivery_ratio())
           << ",\n           \"queue_drops\": " << p.traffic.queue_drops
           << ", \"no_route_drops\": " << p.traffic.no_route_drops
           << ", \"loop_drops\": " << p.traffic.loop_drops
           << ", \"medium_drops\": " << p.traffic.medium_drops
           << ",\n           \"latency\": "
           << json_distribution(p.traffic.latency)
           << ",\n           \"flow_delivery\": "
           << json_distribution(p.traffic.flow_delivery)
           << ",\n           \"flow_throughput\": "
           << json_distribution(p.traffic.flow_throughput) << "}";
      }
      if (active & kAdversary) {
        const InvariantCounters& c = p.invariants.counters;
        os << ",\n         \"invariants\": {"
           << "\n           \"total\": " << c.total()
           << ", \"forwarding_loops\": " << c.forwarding_loops
           << ", \"blackhole_absorptions\": " << c.blackhole_absorptions
           << ", \"mpr_refusals\": " << c.mpr_refusals
           << ",\n           \"ansn_regressions\": " << c.ansn_regressions
           << ", \"stale_tc_rejections\": " << c.stale_tc_rejections
           << ", \"phantom_links\": " << c.phantom_links
           << ", \"inflated_qos\": " << c.inflated_qos
           << ", \"poisoned_nodes\": " << c.poisoned_nodes
           << ",\n           \"poisoned_routes\": "
           << p.invariants.poisoned_routes
           << ",\n           \"frames_corrupted\": "
           << json_stats(p.invariants.frames_corrupted)
           << ",\n           \"frames_malformed\": "
           << json_stats(p.invariants.frames_malformed)
           << ",\n           \"time_to_first_violation\": "
           << json_stats(p.invariants.time_to_first_violation) << "}";
      }
      if (p.control.measured()) {
        os << ",\n         \"control_plane\": {"
           << "\n           \"hello_msgs\": " << json_stats(p.control.hello_msgs)
           << ",\n           \"tc_msgs\": " << json_stats(p.control.tc_msgs)
           << ",\n           \"tc_forwards\": "
           << json_stats(p.control.tc_forwards)
           << ",\n           \"duplicate_drops\": "
           << json_stats(p.control.duplicate_drops)
           << ",\n           \"control_bytes\": "
           << json_stats(p.control.control_bytes)
           << ",\n           \"convergence_time\": "
           << json_stats(p.control.convergence_time)
           << ",\n           \"unconverged_runs\": " << p.control.unconverged;
        if (active & kFaults) {
          os << ",\n           \"frames_lost\": "
             << json_stats(p.control.frames_lost)
             << ",\n           \"frames_blocked\": "
             << json_stats(p.control.frames_blocked)
             << ",\n           \"reconvergence_time\": "
             << json_stats(p.control.reconvergence_time)
             << ",\n           \"reconv_unconverged\": "
             << p.control.reconv_unconverged;
        }
        os << "}";
      }
      os << "}";
    }
    os << "\n      ]";
    if (!d.run_records.empty()) {
      os << ",\n      \"run_records\": [";
      for (std::size_t ri = 0; ri < d.run_records.size(); ++ri) {
        const RunRecord& r = d.run_records[ri];
        os << (ri ? "," : "") << "\n        {\"run\": " << r.run_index
           << ", \"nodes\": " << r.nodes << ", \"protocols\": [";
        for (std::size_t si = 0; si < r.protocols.size(); ++si) {
          const RecordRow row{d, r, d.protocols[si].name, r.protocols[si]};
          os << (si ? ", " : "") << "{";
          const char* separator = "";
          for_each_column(record_fields, active, [&](const auto& field) {
            const Value value = field.cell(row);
            if (std::holds_alternative<std::monostate>(value)) return;
            os << separator << '"'
               << (field.json_key.empty() ? field.header : field.json_key)
               << "\": ";
            write_json_value(os, value);
            separator = ", ";
          });
          os << "}";
        }
        os << "]}";
      }
      os << "\n      ]";
    }
    os << "\n    }";
  }
  os << "\n  ]\n}\n";
}

std::unique_ptr<ResultSink> make_result_sink(std::string_view format) {
  if (format == "table") return std::make_unique<PrettyTableSink>();
  if (format == "csv") return std::make_unique<CsvSink>();
  if (format == "json") return std::make_unique<JsonSink>();
  throw ExperimentError("unknown output format '" + std::string(format) +
                        "' (known: table csv json)");
}

}  // namespace qolsr
