// Pins the emitters: hand-built, exactly-representable ExperimentResults
// (oracle, packet with every optional block active, and mobility) must
// render to these byte-for-byte CSV, JSON and pretty-table documents.
// Downstream tooling (BENCH_sweep.json, plotting scripts) parses these
// formats — changing them is a breaking change and must show up here.
#include "eval/result_sink.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <sstream>

namespace qolsr {
namespace {

ExperimentResult golden_result() {
  ExperimentResult result;
  result.spec.name = "golden";
  result.spec.metric = MetricId::kBandwidth;
  result.spec.selectors = {"fnbp"};
  result.spec.scenario.runs = 2;
  result.spec.scenario.seed = 1;
  result.spec.threads = 1;
  result.spec.per_run = true;

  DensityStats d;
  d.density = 10.0;
  d.runs = 2;
  d.node_count.add(20.0);
  d.node_count.add(22.0);

  ProtocolStats p;
  p.name = "fnbp_bandwidth";
  // Equal samples keep every derived statistic exactly representable.
  p.set_size.add(2.5);
  p.set_size.add(2.5);
  p.overhead.add(0.125);
  p.path_hops.add(2.0);
  p.delivered = 1;
  p.failed = 1;
  d.protocols.push_back(p);

  RunRecord r0;
  r0.run_index = 0;
  r0.nodes = 20;
  r0.protocols.push_back({2.5, true, 7.0, 0.125, 2});
  RunRecord r1;
  r1.run_index = 1;
  r1.nodes = 22;
  r1.protocols.push_back({2.5, false, 0.0, 0.0, 0});
  d.run_records = {r0, r1};

  result.sweep.push_back(std::move(d));
  return result;
}

/// A packet-backend result with every optional block active at once: the
/// fault plan, the traffic workload, the adversary roster (swept on the
/// adversary axis) and per-run records. Equal samples keep the RunningStats
/// exact; the distribution samples are dyadic so every quantile is too.
ExperimentResult packet_golden_result() {
  ExperimentResult result;
  result.spec.name = "golden_packet";
  result.spec.backend = BackendId::kPacket;
  result.spec.metric = MetricId::kBandwidth;
  result.spec.selectors = {"fnbp"};
  result.spec.threads = 1;
  result.spec.per_run = true;
  Scenario& s = result.spec.scenario;
  s.runs = 2;
  s.seed = 3;
  s.sweep_axis = Scenario::SweepAxis::kAdversary;
  s.probe_packets = 4;
  s.faults.loss_rate = 0.125;
  s.faults.link_loss.push_back({0, 1, 0.5});
  FaultIncident crash;
  crash.kind = FaultIncident::Kind::kNodeCrash;
  FaultIncident partition;
  partition.kind = FaultIncident::Kind::kPartition;
  s.faults.incidents = {crash, partition};
  s.traffic.arrival = TrafficSpec::Arrival::kCbr;
  s.traffic.pattern = TrafficSpec::Pattern::kHotspot;
  s.traffic.flows = 4;
  s.traffic.load = 0.5;
  s.adversaries.kinds = {AdversaryKind::kBlackhole, AdversaryKind::kLiar};
  s.adversaries.count = 2;
  s.adversaries.corrupt_rate = 0.0625;

  DensityStats d;
  d.density = 0.25;
  d.runs = 2;
  d.node_count.add(20.0);
  d.node_count.add(22.0);

  ProtocolStats p;
  p.name = "fnbp_bandwidth";
  for (int i = 0; i < 2; ++i) {
    p.set_size.add(2.5);
    p.control.hello_msgs.add(40.0);
    p.control.tc_msgs.add(12.0);
    p.control.tc_forwards.add(24.0);
    p.control.duplicate_drops.add(30.0);
    p.control.control_bytes.add(1024.0);
    p.control.convergence_time.add(3.5);
    p.control.frames_lost.add(6.0);
    p.control.frames_blocked.add(2.0);
    p.invariants.frames_corrupted.add(4.0);
    p.invariants.frames_malformed.add(2.0);
  }
  p.overhead.add(0.125);
  p.path_hops.add(3.0);
  p.delivered = 5;
  p.failed = 3;
  p.control.unconverged = 1;
  p.control.reconvergence_time.add(1.5);
  p.control.reconv_unconverged = 1;
  p.no_route_losses = 1;
  p.loop_losses = 1;
  p.medium_losses = 1;
  p.probe_delivery.add(0.5);
  p.probe_delivery.add(0.75);
  p.traffic.offered = 40;
  p.traffic.delivered = 30;
  p.traffic.queue_drops = 4;
  p.traffic.no_route_drops = 3;
  p.traffic.loop_drops = 2;
  p.traffic.medium_drops = 1;
  p.traffic.latency.add(0.25);
  p.traffic.latency.add(0.5);
  p.traffic.flow_delivery.add(0.5);
  p.traffic.flow_delivery.add(1.0);
  p.traffic.flow_throughput.add(1024.0);
  p.traffic.flow_throughput.add(2048.0);
  InvariantCounters& c = p.invariants.counters;
  c.forwarding_loops = 1;
  c.blackhole_absorptions = 2;
  c.mpr_refusals = 3;
  c.ansn_regressions = 4;
  c.stale_tc_rejections = 5;
  c.phantom_links = 6;
  c.inflated_qos = 7;
  c.poisoned_nodes = 8;
  p.invariants.time_to_first_violation.add(0.5);
  p.invariants.poisoned_routes = 2;
  d.protocols.push_back(p);

  // Run 0 lost half its probes (so its route columns are still filled);
  // run 1 lost all of them and never converged.
  RunRecord::Protocol partial{2.5, false, 7.0, 0.125, 3};
  partial.convergence_time = 3.5;
  partial.control_bytes = 1024.0;
  partial.probes_delivered = 2;
  partial.probes_failed = 2;
  partial.traffic_offered = 20;
  partial.traffic_delivered = 15;
  partial.traffic_latency_p95 = 0.5;
  partial.invariant_violations = 14;
  partial.poisoned_routes = 1;
  RunRecord::Protocol lost{2.5, false, 0.0, 0.0, 0};
  lost.convergence_time = 3.5;
  lost.converged = false;
  lost.control_bytes = 1024.0;
  lost.probes_failed = 4;
  lost.traffic_offered = 20;
  lost.traffic_delivered = 15;
  lost.traffic_latency_p95 = 0.25;
  lost.invariant_violations = 14;
  lost.poisoned_routes = 1;
  RunRecord r0;
  r0.run_index = 0;
  r0.nodes = 20;
  r0.protocols.push_back(partial);
  RunRecord r1;
  r1.run_index = 1;
  r1.nodes = 22;
  r1.protocols.push_back(lost);
  d.run_records = {r0, r1};

  result.sweep.push_back(std::move(d));
  return result;
}

/// An oracle mobility (epoch-loop) result swept on the speed axis: two
/// sweep points, two protocols, exact statistics.
ExperimentResult dynamics_golden_result() {
  ExperimentResult result;
  result.spec.name = "golden_dynamics";
  result.spec.metric = MetricId::kDelay;
  result.spec.selectors = {"olsr_mpr", "fnbp"};
  result.spec.threads = 1;
  Scenario& s = result.spec.scenario;
  s.runs = 2;
  s.seed = 5;
  s.sweep_axis = Scenario::SweepAxis::kSpeed;
  s.dynamics.model = DynamicsSpec::Model::kWaypoint;
  s.dynamics.epochs = 4;
  s.dynamics.refresh_interval = 2;

  for (const double speed : {5.0, 10.0}) {
    DensityStats d;
    d.density = speed;
    d.runs = 2;
    d.node_count.add(30.0);
    d.node_count.add(30.0);
    ProtocolStats a;
    a.name = "olsr_mpr";
    a.set_size.add(4.0);
    a.overhead.add(0.25);
    a.path_hops.add(3.0);
    a.delivered = 6;
    a.failed = 2;
    a.stale_losses = 1;
    a.stretch.add(1.25);
    a.readvertised.add(3.0);
    ProtocolStats b;
    b.name = "fnbp_delay";
    b.set_size.add(1.5);
    b.overhead.add(0.5);
    b.path_hops.add(4.0);
    b.delivered = 7;
    b.failed = 1;
    b.stretch.add(1.5);
    b.readvertised.add(1.0);
    d.protocols = {a, b};
    result.sweep.push_back(std::move(d));
  }
  return result;
}

std::string render(const ResultSink& sink, const ExperimentResult& result) {
  std::ostringstream os;
  sink.write(result, os);
  return os.str();
}

std::string render(const ResultSink& sink) {
  std::ostringstream os;
  sink.write(golden_result(), os);
  return os.str();
}

TEST(ResultSink, GoldenCsv) {
  const std::string expected =
      "metric,density,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,"
      "delivered,failed,overhead_mean,overhead_stddev,path_hops_mean\n"
      "bandwidth,10,2,21,fnbp_bandwidth,2.5,0,1,1,0.125,0,2\n"
      "\n"
      "density,run,nodes,protocol,set_size,delivered,value,overhead,"
      "path_hops\n"
      "10,0,20,fnbp_bandwidth,2.5,1,7,0.125,2\n"
      "10,1,22,fnbp_bandwidth,2.5,0,,,\n";
  EXPECT_EQ(render(CsvSink{}), expected);
}

TEST(ResultSink, CsvWithoutRecordsHasNoSecondBlock) {
  ExperimentResult result = golden_result();
  result.sweep.front().run_records.clear();
  std::ostringstream os;
  CsvSink{}.write(result, os);
  const std::string csv = os.str();
  EXPECT_EQ(csv.find("\n\n"), std::string::npos);
  EXPECT_EQ(csv.find("density,run,"), std::string::npos);
}

TEST(ResultSink, GoldenJson) {
  const std::string expected = R"({
  "name": "golden",
  "metric": "bandwidth",
  "metric_kind": "concave",
  "selectors": ["fnbp"],
  "runs": 2,
  "seed": 1,
  "threads": 1,
  "densities": [
    {
      "density": 10,
      "runs": 2,
      "avg_nodes": 21,
      "protocols": [
        {"name": "fnbp_bandwidth", "delivered": 1, "failed": 1,
         "set_size": {"mean": 2.5, "stddev": 0, "min": 2.5, "max": 2.5},
         "overhead": {"mean": 0.125, "stddev": 0, "min": 0.125, "max": 0.125},
         "path_hops": {"mean": 2, "stddev": 0, "min": 2, "max": 2}}
      ],
      "run_records": [
        {"run": 0, "nodes": 20, "protocols": [{"set_size": 2.5, "delivered": true, "value": 7, "overhead": 0.125, "hops": 2}]},
        {"run": 1, "nodes": 22, "protocols": [{"set_size": 2.5, "delivered": false}]}
      ]
    }
  ]
}
)";
  EXPECT_EQ(render(JsonSink{}), expected);
}

TEST(ResultSink, JsonKeepsNonFiniteValuesOutOfTheDocument) {
  // An infinite overhead (zero additive optimum beaten by a nonzero route,
  // see qos_overhead) must render as JSON null, never as a bare `inf`.
  ExperimentResult result = golden_result();
  result.sweep.front().protocols.front().overhead.add(
      std::numeric_limits<double>::infinity());
  std::ostringstream os;
  JsonSink{}.write(result, os);
  const std::string json = os.str();
  EXPECT_EQ(json.find("inf"), std::string::npos);
  EXPECT_NE(json.find("\"mean\": null"), std::string::npos);
}

TEST(ResultSink, PrettyTableReportsRecordedRunCount) {
  const std::string text = render(PrettyTableSink{});
  EXPECT_NE(text.find("2 per-run records"), std::string::npos);
}

TEST(ResultSink, PrettyTableNamesEverySection) {
  const std::string text = render(PrettyTableSink{});
  EXPECT_NE(text.find("golden"), std::string::npos);
  EXPECT_NE(text.find("metric=bandwidth"), std::string::npos);
  EXPECT_NE(text.find("advertised set size"), std::string::npos);
  EXPECT_NE(text.find("QoS overhead"), std::string::npos);
  EXPECT_NE(text.find("diagnostics"), std::string::npos);
  EXPECT_NE(text.find("fnbp_bandwidth"), std::string::npos);
}

TEST(ResultSink, GoldenTable) {
  const std::string expected = R"golden(# golden — metric=bandwidth runs/density=2 seed=1

## advertised set size (mean |ANS| per node)
density | fnbp_bandwidth
------- | --------------
     10 |          2.500

## QoS overhead vs. centralized optimum
density | fnbp_bandwidth
------- | --------------
     10 |         0.1250

## diagnostics
density | avg_nodes | fnbp_bandwidth_delivered | fnbp_bandwidth_hops
------- | --------- | ------------------------ | -------------------
     10 |      21.0 |                      1/2 |                2.00

(2 per-run records recorded; use --format=csv or json to export them)
)golden";
  EXPECT_EQ(render(PrettyTableSink{}, golden_result()), expected);
}

TEST(ResultSink, GoldenPacketCsv) {
  const std::string expected = R"golden(metric,adversary,runs,avg_nodes,protocol,set_size_mean,set_size_stddev,delivered,failed,overhead_mean,overhead_stddev,path_hops_mean,hello_msgs_mean,tc_msgs_mean,tc_forwards_mean,duplicate_drops_mean,control_bytes_mean,convergence_time_mean,convergence_time_stddev,unconverged_runs,loss_rate,probes,delivery_ratio,no_route_drops,loop_drops,medium_drops,frames_lost_mean,frames_blocked_mean,reconvergence_time_mean,reconv_unconverged,probe_delivery_p50,probe_delivery_p95,probe_delivery_p99,load,offered,traffic_delivered,traffic_delivery_ratio,queue_drops,traffic_no_route_drops,traffic_loop_drops,traffic_medium_drops,latency_p50,latency_p95,latency_p99,flow_delivery_p50,flow_delivery_p95,flow_delivery_p99,throughput_p50,throughput_p95,throughput_p99,adversary_fraction,adversary_count,corrupt_rate,adversary_delivery_ratio,invariant_violations,forwarding_loops,blackhole_absorptions,mpr_refusals,ansn_regressions,stale_tc_rejections,phantom_links,inflated_qos,poisoned_nodes,poisoned_routes,frames_corrupted_mean,frames_malformed_mean,first_violation_mean
bandwidth,0.25,2,21,fnbp_bandwidth,2.5,0,5,3,0.125,0,3,40,12,24,30,1024,3.5,0,1,0.125,4,0.625,1,1,1,6,2,1.5,1,0.625,0.7375,0.7475,0.5,40,30,0.75,4,3,2,1,0.375,0.4875,0.4975,0.75,0.975,0.995,1536,1996.8,2037.76,0.25,2,0.0625,0.625,28,1,2,3,4,5,6,7,8,2,4,2,0.5

adversary,run,nodes,protocol,set_size,delivered,value,overhead,path_hops,convergence_time,converged,control_bytes,probes_delivered,probes_failed,traffic_offered,traffic_delivered,traffic_latency_p95,invariant_violations,poisoned_routes
0.25,0,20,fnbp_bandwidth,2.5,0,7,0.125,3,3.5,1,1024,2,2,20,15,0.5,14,1
0.25,1,22,fnbp_bandwidth,2.5,0,,,,3.5,0,1024,0,4,20,15,0.25,14,1
)golden";
  EXPECT_EQ(render(CsvSink{}, packet_golden_result()), expected);
}

TEST(ResultSink, GoldenPacketJson) {
  const std::string expected = R"golden({
  "name": "golden_packet",
  "backend": "packet",
  "metric": "bandwidth",
  "metric_kind": "concave",
  "selectors": ["fnbp"],
  "runs": 2,
  "seed": 3,
  "threads": 1,
  "traffic": {"arrival": "cbr", "pattern": "hotspot", "flows": 4, "load": 0.5, "packet_rate": 20, "duration": 10, "packet_bytes": 512, "link_capacity": 20000, "queue_bytes": 16384},
  "axis": "adversary",
  "faults": {"loss_rate": 0.125, "link_loss_overrides": 1, "crash_incidents": 1, "flap_incidents": 0, "partition_incidents": 1, "probe_packets": 4},
  "adversaries": {"count": 2, "fraction": -1, "kinds": ["blackhole", "liar"], "corrupt_rate": 0.0625},
  "densities": [
    {
      "density": 0.25,
      "runs": 2,
      "avg_nodes": 21,
      "protocols": [
        {"name": "fnbp_bandwidth", "delivered": 5, "failed": 3,
         "set_size": {"mean": 2.5, "stddev": 0, "min": 2.5, "max": 2.5},
         "overhead": {"mean": 0.125, "stddev": 0, "min": 0.125, "max": 0.125},
         "path_hops": {"mean": 3, "stddev": 0, "min": 3, "max": 3},
         "delivery_ratio": 0.625, "no_route_drops": 1, "loop_drops": 1, "medium_drops": 1,
         "probe_delivery": {"count": 2, "mean": 0.625, "p50": 0.625, "p95": 0.7375, "p99": 0.7475, "min": 0.5, "max": 0.75, "histogram": [1, 0, 0, 0, 0, 0, 0, 1]},
         "traffic": {
           "offered": 40, "delivered": 30, "delivery_ratio": 0.75,
           "queue_drops": 4, "no_route_drops": 3, "loop_drops": 2, "medium_drops": 1,
           "latency": {"count": 2, "mean": 0.375, "p50": 0.375, "p95": 0.4875, "p99": 0.4975, "min": 0.25, "max": 0.5, "histogram": [1, 0, 0, 0, 0, 0, 0, 1]},
           "flow_delivery": {"count": 2, "mean": 0.75, "p50": 0.75, "p95": 0.975, "p99": 0.995, "min": 0.5, "max": 1, "histogram": [1, 0, 0, 0, 0, 0, 0, 1]},
           "flow_throughput": {"count": 2, "mean": 1536, "p50": 1536, "p95": 1996.8, "p99": 2037.76, "min": 1024, "max": 2048, "histogram": [1, 0, 0, 0, 0, 0, 0, 1]}},
         "invariants": {
           "total": 28, "forwarding_loops": 1, "blackhole_absorptions": 2, "mpr_refusals": 3,
           "ansn_regressions": 4, "stale_tc_rejections": 5, "phantom_links": 6, "inflated_qos": 7, "poisoned_nodes": 8,
           "poisoned_routes": 2,
           "frames_corrupted": {"mean": 4, "stddev": 0, "min": 4, "max": 4},
           "frames_malformed": {"mean": 2, "stddev": 0, "min": 2, "max": 2},
           "time_to_first_violation": {"mean": 0.5, "stddev": 0, "min": 0.5, "max": 0.5}},
         "control_plane": {
           "hello_msgs": {"mean": 40, "stddev": 0, "min": 40, "max": 40},
           "tc_msgs": {"mean": 12, "stddev": 0, "min": 12, "max": 12},
           "tc_forwards": {"mean": 24, "stddev": 0, "min": 24, "max": 24},
           "duplicate_drops": {"mean": 30, "stddev": 0, "min": 30, "max": 30},
           "control_bytes": {"mean": 1024, "stddev": 0, "min": 1024, "max": 1024},
           "convergence_time": {"mean": 3.5, "stddev": 0, "min": 3.5, "max": 3.5},
           "unconverged_runs": 1,
           "frames_lost": {"mean": 6, "stddev": 0, "min": 6, "max": 6},
           "frames_blocked": {"mean": 2, "stddev": 0, "min": 2, "max": 2},
           "reconvergence_time": {"mean": 1.5, "stddev": 0, "min": 1.5, "max": 1.5},
           "reconv_unconverged": 1}}
      ],
      "run_records": [
        {"run": 0, "nodes": 20, "protocols": [{"set_size": 2.5, "delivered": false, "value": 7, "overhead": 0.125, "hops": 3, "convergence_time": 3.5, "converged": true, "control_bytes": 1024, "probes_delivered": 2, "probes_failed": 2, "traffic_offered": 20, "traffic_delivered": 15, "traffic_latency_p95": 0.5, "invariant_violations": 14, "poisoned_routes": 1}]},
        {"run": 1, "nodes": 22, "protocols": [{"set_size": 2.5, "delivered": false, "convergence_time": 3.5, "converged": false, "control_bytes": 1024, "probes_delivered": 0, "probes_failed": 4, "traffic_offered": 20, "traffic_delivered": 15, "traffic_latency_p95": 0.25, "invariant_violations": 14, "poisoned_routes": 1}]}
      ]
    }
  ]
}
)golden";
  EXPECT_EQ(render(JsonSink{}, packet_golden_result()), expected);
}

// The fractional sweep axis labels every section with two decimals.
TEST(ResultSink, GoldenPacketTable) {
  const std::string expected = R"golden(# golden_packet — metric=bandwidth runs/density=2 seed=3
# backend=packet — discrete-event HELLO/TC simulation, measured from converged protocol state
# faults: loss=0.125 incidents=2 probes/run=4
# traffic: arrival=cbr pattern=hotspot flows=4 load=0.5
# adversaries: roster=<sweep axis> kinds=blackhole,liar corrupt=0.0625

## advertised set size (mean |ANS| per node)
adversary | fnbp_bandwidth
--------- | --------------
     0.25 |          2.500

## QoS overhead vs. centralized optimum
adversary | fnbp_bandwidth
--------- | --------------
     0.25 |         0.1250

## diagnostics
adversary | avg_nodes | fnbp_bandwidth_delivered | fnbp_bandwidth_hops
--------- | --------- | ------------------------ | -------------------
     0.25 |      21.0 |                      5/8 |                3.00

## graceful degradation (delivery ratio, blackhole drops, mean re-convergence seconds after injected faults)
adversary | fnbp_bandwidth_delivery | fnbp_bandwidth_blackhole | fnbp_bandwidth_reconv_s
--------- | ----------------------- | ------------------------ | -----------------------
     0.25 |                   0.625 |                        1 |                    1.50

## traffic under load (flow delivery ratio, queue-tail drops, p95 end-to-end latency in ms)
adversary | fnbp_bandwidth_delivery | fnbp_bandwidth_qdrops | fnbp_bandwidth_p95_ms
--------- | ----------------------- | --------------------- | ---------------------
     0.25 |                   0.750 |                     4 |                487.50

## adversary engine (delivery ratio, invariant violations caught by the runtime monitor, poisoned routes)
adversary | fnbp_bandwidth_delivery | fnbp_bandwidth_violations | fnbp_bandwidth_poisoned
--------- | ----------------------- | ------------------------- | -----------------------
     0.25 |                   0.625 |                        28 |                       2

## control plane (mean per run: TC messages incl. forwards, broadcast bytes, measured convergence seconds)
adversary | fnbp_bandwidth_tcs | fnbp_bandwidth_bytes | fnbp_bandwidth_conv_s
--------- | ------------------ | -------------------- | ---------------------
     0.25 |               36.0 |                 1024 |                  3.50

WARNING: 1 simulation run(s) hit the hard time cap before the control plane quiesced; their measurements are from unconverged state (see the unconverged_runs column in csv/json).

WARNING: 1 post-fault re-convergence window(s) hit the hard time cap still changing; their reconvergence_time samples are lower bounds (see reconv_unconverged in csv/json).

(2 per-run records recorded; use --format=csv or json to export them)
)golden";
  EXPECT_EQ(render(PrettyTableSink{}, packet_golden_result()), expected);
}

TEST(ResultSink, GoldenDynamicsCsv) {
  const std::string expected = R"golden(metric,speed,runs,epochs,avg_nodes,protocol,set_size_mean,set_size_stddev,packets,delivered,failed,stale_losses,delivery_ratio,overhead_mean,stretch_mean,path_hops_mean,readvertised_mean
delay,5,2,4,30,olsr_mpr,4,0,8,6,2,1,0.75,0.25,1.25,3,3
delay,5,2,4,30,fnbp_delay,1.5,0,8,7,1,0,0.875,0.5,1.5,4,1
delay,10,2,4,30,olsr_mpr,4,0,8,6,2,1,0.75,0.25,1.25,3,3
delay,10,2,4,30,fnbp_delay,1.5,0,8,7,1,0,0.875,0.5,1.5,4,1
)golden";
  EXPECT_EQ(render(CsvSink{}, dynamics_golden_result()), expected);
}

TEST(ResultSink, GoldenDynamicsJson) {
  const std::string expected = R"golden({
  "name": "golden_dynamics",
  "metric": "delay",
  "metric_kind": "additive",
  "selectors": ["olsr_mpr", "fnbp"],
  "runs": 2,
  "seed": 5,
  "threads": 1,
  "axis": "speed",
  "dynamics": {"model": "waypoint", "epochs": 4, "epoch_duration": 1, "refresh_interval": 2, "speed_min": 1, "speed_max": 10, "pause_epochs": 0, "link_down_rate": 0.05, "link_up_rate": 0.25},
  "densities": [
    {
      "density": 5,
      "runs": 2,
      "avg_nodes": 30,
      "protocols": [
        {"name": "olsr_mpr", "delivered": 6, "failed": 2,
         "set_size": {"mean": 4, "stddev": 0, "min": 4, "max": 4},
         "overhead": {"mean": 0.25, "stddev": 0, "min": 0.25, "max": 0.25},
         "path_hops": {"mean": 3, "stddev": 0, "min": 3, "max": 3},
         "delivery_ratio": 0.75, "stale_losses": 1,
         "stretch": {"mean": 1.25, "stddev": 0, "min": 1.25, "max": 1.25},
         "readvertised": {"mean": 3, "stddev": 0, "min": 3, "max": 3}},
        {"name": "fnbp_delay", "delivered": 7, "failed": 1,
         "set_size": {"mean": 1.5, "stddev": 0, "min": 1.5, "max": 1.5},
         "overhead": {"mean": 0.5, "stddev": 0, "min": 0.5, "max": 0.5},
         "path_hops": {"mean": 4, "stddev": 0, "min": 4, "max": 4},
         "delivery_ratio": 0.875, "stale_losses": 0,
         "stretch": {"mean": 1.5, "stddev": 0, "min": 1.5, "max": 1.5},
         "readvertised": {"mean": 1, "stddev": 0, "min": 1, "max": 1}}
      ]
    },
    {
      "density": 10,
      "runs": 2,
      "avg_nodes": 30,
      "protocols": [
        {"name": "olsr_mpr", "delivered": 6, "failed": 2,
         "set_size": {"mean": 4, "stddev": 0, "min": 4, "max": 4},
         "overhead": {"mean": 0.25, "stddev": 0, "min": 0.25, "max": 0.25},
         "path_hops": {"mean": 3, "stddev": 0, "min": 3, "max": 3},
         "delivery_ratio": 0.75, "stale_losses": 1,
         "stretch": {"mean": 1.25, "stddev": 0, "min": 1.25, "max": 1.25},
         "readvertised": {"mean": 3, "stddev": 0, "min": 3, "max": 3}},
        {"name": "fnbp_delay", "delivered": 7, "failed": 1,
         "set_size": {"mean": 1.5, "stddev": 0, "min": 1.5, "max": 1.5},
         "overhead": {"mean": 0.5, "stddev": 0, "min": 0.5, "max": 0.5},
         "path_hops": {"mean": 4, "stddev": 0, "min": 4, "max": 4},
         "delivery_ratio": 0.875, "stale_losses": 0,
         "stretch": {"mean": 1.5, "stddev": 0, "min": 1.5, "max": 1.5},
         "readvertised": {"mean": 1, "stddev": 0, "min": 1, "max": 1}}
      ]
    }
  ]
}
)golden";
  EXPECT_EQ(render(JsonSink{}, dynamics_golden_result()), expected);
}

TEST(ResultSink, GoldenDynamicsTable) {
  const std::string expected = R"golden(# golden_dynamics — metric=delay runs/density=2 seed=5
# mobility=waypoint epochs/run=4 refresh=2

## advertised set size (mean |ANS| per node)
speed | olsr_mpr | fnbp_delay
----- | -------- | ----------
    5 |    4.000 |      1.500
   10 |    4.000 |      1.500

## delivery ratio / hop stretch / TC re-advertisements
speed | olsr_mpr_delivery | olsr_mpr_stretch | olsr_mpr_readv | fnbp_delay_delivery | fnbp_delay_stretch | fnbp_delay_readv
----- | ----------------- | ---------------- | -------------- | ------------------- | ------------------ | ----------------
    5 |             0.750 |            1.250 |            3.0 |               0.875 |              1.500 |              1.0
   10 |             0.750 |            1.250 |            3.0 |               0.875 |              1.500 |              1.0

## QoS overhead vs. centralized optimum
speed | olsr_mpr | fnbp_delay
----- | -------- | ----------
    5 |   0.2500 |     0.5000
   10 |   0.2500 |     0.5000

## diagnostics
speed | avg_nodes | olsr_mpr_delivered | olsr_mpr_hops | fnbp_delay_delivered | fnbp_delay_hops
----- | --------- | ------------------ | ------------- | -------------------- | ---------------
    5 |      30.0 |                6/8 |          3.00 |                  7/8 |            4.00
   10 |      30.0 |                6/8 |          3.00 |                  7/8 |            4.00
)golden";
  EXPECT_EQ(render(PrettyTableSink{}, dynamics_golden_result()), expected);
}

/// Value of `column` in the first aggregate row of a CSV document.
std::string first_row_field(const std::string& csv, const std::string& column) {
  std::istringstream in(csv);
  std::string header, row;
  std::getline(in, header);
  std::getline(in, row);
  std::istringstream h(header), r(row);
  std::string name, value;
  while (std::getline(h, name, ',') && std::getline(r, value, ','))
    if (name == column) return value;
  return "<missing>";
}

TEST(ResultSink, CsvReportsTheSweptValueInItsOwnBlock) {
  // On its own axis each engine column carries the sweep value (0.25);
  // off-axis it echoes the spec (loss 0.125, load 0.5, roster fraction
  // unset -> 0).
  struct Case {
    Scenario::SweepAxis axis;
    const char* loss;
    const char* load;
    const char* fraction;
  };
  for (const Case& c : {Case{Scenario::SweepAxis::kLoss, "0.25", "0.5", "0"},
                        Case{Scenario::SweepAxis::kLoad, "0.125", "0.25", "0"},
                        Case{Scenario::SweepAxis::kAdversary, "0.125", "0.5",
                             "0.25"}}) {
    ExperimentResult result = packet_golden_result();
    result.spec.scenario.sweep_axis = c.axis;
    const std::string csv = render(CsvSink{}, result);
    SCOPED_TRACE(sweep_axis_name(c.axis));
    EXPECT_EQ(first_row_field(csv, sweep_axis_name(c.axis)), "0.25");
    EXPECT_EQ(first_row_field(csv, "loss_rate"), c.loss);
    EXPECT_EQ(first_row_field(csv, "load"), c.load);
    EXPECT_EQ(first_row_field(csv, "adversary_fraction"), c.fraction);
  }
}

TEST(ResultSink, FactoryCoversTheThreeFormatsAndRejectsOthers) {
  EXPECT_EQ(make_result_sink("table")->format_name(), "table");
  EXPECT_EQ(make_result_sink("csv")->format_name(), "csv");
  EXPECT_EQ(make_result_sink("json")->format_name(), "json");
  EXPECT_THROW(make_result_sink("xml"), ExperimentError);
  EXPECT_THROW(make_result_sink(""), ExperimentError);
}

}  // namespace
}  // namespace qolsr
