#include "replica.hpp"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/resource.h>

#include "eval/backend.hpp"
#include "eval/packet_runner.hpp"
#include "eval/result_sink.hpp"
#include "gate.hpp"
#include "net/wire_format.hpp"
#include "net/wire_harness.hpp"
#include "proto/duplicate_set.hpp"
#include "proto/messages.hpp"
#include "proto/neighbor_tables.hpp"
#include "proto/topology_base.hpp"

namespace perfbench {

// ------------------------------------------------------------- tracer --

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, now(), 0.0, parent, unit_});
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int id) {
  spans_[static_cast<std::size_t>(id)].end = now();
  stack_.pop_back();
}

void Counters::max(const std::string& key, double value) {
  double& slot = sums_[key];
  slot = std::max(slot, value);
}

double Counters::get(const std::string& key) const {
  const auto it = sums_.find(key);
  return it == sums_.end() ? 0.0 : it->second;
}

namespace {

using namespace qolsr;
using M = BandwidthMetric;

// ------------------------------------------------ workload-shaped replay --

/// Receivers whose neighbor tables replay every neighbor's HELLO, and the
/// TC originators whose messages the other replays use. Capped so the
/// replay stays a small fraction of a 1000-node oracle unit.
constexpr std::size_t kReplayReceivers = 8;
constexpr std::size_t kReplayTcs = 64;
constexpr int kTcRounds = 3;

/// The unit's HELLO/TC messages as its nodes would send them.
struct Frames {
  std::vector<HelloMessage> hellos;
  std::vector<std::size_t> hello_of;  ///< node -> index into hellos
  std::vector<TcMessage> tcs;
  std::size_t receivers = 0;
  double duplicate_share = 0.0;  ///< of TC receptions, as measured
};

/// `hello(u)` and `tc(u)` build node u's messages.
template <typename HelloFn, typename TcFn>
Frames make_frames(const Graph& g, HelloFn hello, TcFn tc,
                   double duplicate_share) {
  Frames f;
  const std::size_t n = g.node_count();
  f.receivers = std::min(n, kReplayReceivers);
  f.duplicate_share = duplicate_share;
  f.hello_of.assign(n, SIZE_MAX);
  auto need_hello = [&](NodeId u) {
    if (f.hello_of[u] != SIZE_MAX) return;
    f.hello_of[u] = f.hellos.size();
    f.hellos.push_back(hello(u));
  };
  for (NodeId v = 0; v < f.receivers; ++v) {
    need_hello(v);
    for (const Edge& e : g.neighbors(v)) need_hello(e.to);
  }
  for (NodeId u = 0; u < std::min(n, kReplayTcs); ++u) f.tcs.push_back(tc(u));
  return f;
}

void replay_frames(const Graph& g, const Frames& f, Tracer& tr,
                   Counters& c) {
  std::vector<std::vector<std::byte>> bytes;
  bytes.reserve(f.hellos.size() + f.tcs.size());
  std::uint16_t seq = 0;
  {
    Scope s(tr, "proto.serialize");
    for (const HelloMessage& h : f.hellos)
      bytes.push_back(serialize(
          PacketHeader{MessageType::kHello, h.originator, seq++, 1, 0}, h));
    for (const TcMessage& t : f.tcs)
      bytes.push_back(serialize(
          PacketHeader{MessageType::kTc, t.originator, seq++, 255, 0}, t));
  }
  c.add("proto.serialize_ops", static_cast<double>(bytes.size()));

  std::size_t parsed = 0;
  {
    Scope s(tr, "proto.parse");
    for (const auto& b : bytes) parsed += parse_packet(b).has_value();
  }
  c.add("proto.parse_ops", static_cast<double>(bytes.size()));
  if (parsed != bytes.size())
    throw std::runtime_error("replay: a serialized frame did not parse");

  // Duplicate checks at the unit's measured duplicate share: after each
  // fresh (originator, sequence) key, repeats follow in that proportion.
  const std::size_t checks = 4 * std::max<std::size_t>(f.tcs.size(), 1);
  const std::size_t n = g.node_count();
  std::size_t fresh = 0;
  {
    Scope s(tr, "proto.dup_check");
    DuplicateSet dup;
    std::uint64_t keys = 0;  // distinct keys inserted so far
    double owed = 0.0;
    for (std::size_t i = 0; i < checks; ++i) {
      const bool repeat = owed >= 1.0 && keys > 0;
      const std::uint64_t k = repeat ? keys - 1 : keys++;
      if (repeat) owed -= 1.0;
      else owed += f.duplicate_share / (1.0 - f.duplicate_share);
      fresh += dup.check_and_insert(static_cast<NodeId>(k % n),
                                    static_cast<std::uint16_t>(k / n), 1.0);
    }
  }
  c.add("proto.dup_check_ops", static_cast<double>(checks));

  {
    Scope s(tr, "proto.apply_tc");
    TopologyBase base;
    for (int round = 0; round < kTcRounds; ++round)
      for (const TcMessage& t : f.tcs)
        fresh += base.apply_tc(t, 1.0 + round).fresh;
  }
  c.add("proto.apply_tc_ops", static_cast<double>(kTcRounds * f.tcs.size()));

  std::size_t hellos = 0;
  {
    Scope s(tr, "proto.on_hello");
    for (NodeId v = 0; v < f.receivers; ++v) {
      NeighborTables tables(v);
      for (int pass = 0; pass < 2; ++pass)
        for (const Edge& e : g.neighbors(v)) {
          fresh += tables.on_hello(f.hellos[f.hello_of[e.to]], e.qos,
                                   1.0 + pass)
                       .digest_changed;
          ++hellos;
        }
    }
  }
  c.add("proto.on_hello_ops", static_cast<double>(hellos));

  std::vector<std::vector<std::byte>> frames;
  frames.reserve(bytes.size());
  {
    Scope s(tr, "net.encode");
    for (const auto& b : bytes) {
      net::Frame frame;
      frame.kind = net::kKindPacket;
      frame.sender = 0;
      frame.dest = net::kBroadcastDest;
      frame.payload = b;
      frames.push_back(net::encode_frame(frame));
    }
  }
  std::size_t decoded = 0;
  {
    Scope s(tr, "net.decode");
    for (const auto& b : frames) decoded += net::decode_frame(b).has_value();
  }
  c.add("net.codec_ops", static_cast<double>(frames.size()));
  if (decoded != frames.size())
    throw std::runtime_error("replay: an encoded frame did not decode");
  c.add("replay.checksum", static_cast<double>(fresh));
}

/// Oracle-shaped messages: HELLO lists every radio neighbor as symmetric,
/// TC advertises the unit's ANS — the converged protocol's content.
Frames oracle_frames(const Graph& g,
                     const std::vector<std::vector<NodeId>>& ans) {
  return make_frames(
      g,
      [&](NodeId u) {
        HelloMessage h;
        h.originator = u;
        for (const Edge& e : g.neighbors(u))
          h.links.push_back({e.to, LinkStatus::kSymmetric, e.qos});
        return h;
      },
      [&](NodeId u) {
        TcMessage t;
        t.originator = u;
        t.ansn = 1;
        for (const NodeId w : ans[u])
          t.advertised.push_back(
              {w, LinkStatus::kSymmetric, *g.edge_qos(u, w)});
        return t;
      },
      0.0);
}

/// Messages built from a converged simulator's own tables and selections.
Frames node_frames(const Simulator& sim, double duplicate_share) {
  const Graph& g = sim.network();
  return make_frames(
      g,
      [&](NodeId u) {
        const OlsrNode& node = sim.node(u);
        HelloMessage h;
        h.originator = u;
        const auto& mprs = node.flooding_mpr();
        node.tables().for_each_symmetric([&](NodeId v, const LinkQos& qos) {
          const bool mpr = std::find(mprs.begin(), mprs.end(), v) != mprs.end();
          h.links.push_back(
              {v, mpr ? LinkStatus::kMpr : LinkStatus::kSymmetric, qos});
        });
        return h;
      },
      [&](NodeId u) {
        const OlsrNode& node = sim.node(u);
        TcMessage t;
        t.originator = u;
        t.ansn = 1;
        for (const NodeId w : node.ans())
          if (const LinkQos* q = node.tables().link_qos(w))
            t.advertised.push_back({w, LinkStatus::kSymmetric, *q});
        return t;
      },
      duplicate_share);
}

/// Selection and routing replay on a converged simulator: every node's
/// HELLO-built local view through the ANS selector, then the advertised
/// topology of the converged ANS and one source-routed packet.
void replay_selection(const Simulator& sim, const AnsSelector& selector,
                      NodeId source, NodeId destination, Tracer& tr,
                      Counters& c) {
  const Graph& g = sim.network();
  const std::size_t n = g.node_count();
  std::vector<std::vector<NodeId>> ans(n);
  SelectionWorkspace ws;
  double total = 0.0;
  {
    Scope s(tr, "olsr.select");
    for (NodeId u = 0; u < n; ++u) {
      const LocalView view = sim.node(u).tables().build_local_view();
      selector.select_into(view, ws, ans[u]);
    }
  }
  for (const auto& a : ans) total += static_cast<double>(a.size());
  c.add("olsr.selections", static_cast<double>(n));
  c.add("olsr.ans_total", total);

  // Route on what the nodes advertise (their converged ANS).
  for (NodeId u = 0; u < n; ++u) ans[u] = sim.node(u).ans();
  AdvertisedTopologyBuilder builder;
  CsrTopology advertised;
  ForwardingWorkspace fws;
  {
    Scope s(tr, "routing.advertised");
    builder.build_advertised(g, ans, advertised);
  }
  ForwardingOptions options;
  options.min_hop_routing = !selector.qos_first_routing();
  {
    Scope s(tr, "routing.forward");
    const ForwardingResult r =
        source_route_packet<M>(g, advertised, source, destination, options,
                               fws);
    c.add("replay.checksum", static_cast<double>(r.path.size()));
  }
}

// ------------------------------------------------------ fidelity checks --

std::string differs(const char* what, const std::string& protocol,
                    double replica, double reference) {
  if (replica == reference) return "";
  std::ostringstream os;
  os.precision(17);
  os << what << " (" << protocol << "): replica " << replica
     << " vs run_experiment " << reference;
  return os.str();
}

std::uint64_t run_seed_of(const ExperimentSpec& spec) {
  // sweep_harness: seed + 0x1000003 * (point + 1) + run, one point, run 0.
  return spec.scenario.seed + 0x1000003;
}

void count_sim_run(Simulator& sim, const TraceStats& conv,
                   Counters& c) {
  c.add("sim.runs", 1);
  c.add("sim.events", static_cast<double>(sim.queue().processed()));
  c.add("sim.mutations", static_cast<double>(sim.mutations().count()));
  c.add("sim.hello_sent", static_cast<double>(conv.hello_sent));
  c.add("sim.tc_tx",
        static_cast<double>(conv.tc_originated + conv.tc_forwarded));
  c.add("sim.tc_dup", static_cast<double>(conv.tc_dropped_duplicate));
  c.add("sim.control_bytes", static_cast<double>(conv.control_bytes));
  c.add("sim.data_forwarded",
        static_cast<double>(sim.trace().data_forwarded));
  c.add("sim.queue_drops",
        static_cast<double>(sim.trace().frames_queue_dropped));
}

/// Duplicate drops per TC reception (each transmission reaches every
/// radio neighbor of its sender: mean degree receptions).
double duplicate_share(const Graph& g, const TraceStats& conv) {
  const double n = static_cast<double>(g.node_count());
  const double receptions =
      static_cast<double>(conv.tc_originated + conv.tc_forwarded) *
      (n > 0 ? 2.0 * static_cast<double>(g.edge_count()) / n : 0.0);
  if (receptions <= 0.0) return 0.0;
  return std::min(static_cast<double>(conv.tc_dropped_duplicate) / receptions,
                  0.95);
}

// -------------------------------------------------------------- oracle --

std::string replica_oracle(const ExperimentSpec& spec,
                           const ResolvedProtocols& protocols,
                           const DensityStats& ref, Tracer& tr, Counters& c) {
  const Scenario& sc = spec.scenario;
  if (sc.routing_model != Scenario::RoutingModel::kAdvertisedUnion)
    throw std::runtime_error("replica: only the advertised-union model");
  EvalWorkspace ws;
  util::Rng rng(run_seed_of(spec));
  SampledRun run;
  {
    Scope s(tr, "graph.sample_run");
    run = sample_run<M>(sc, sc.densities.front(), rng, ws);
  }
  const std::size_t n = run.graph.node_count();
  const std::size_t selectors = protocols.ans.size();
  c.add("graph.nodes", static_cast<double>(n));

  auto& ans = ws.ans;
  ans.resize(selectors);
  for (auto& per_node : ans) per_node.resize(n);
  {
    Scope s(tr, "olsr.select");
    for (NodeId u = 0; u < n; ++u) {
      ws.view_builder.build(run.graph, u, ws.view);
      for (std::size_t si = 0; si < selectors; ++si)
        protocols.ans[si]->select_into(ws.view, ws.selection, ans[si][u]);
    }
  }
  c.add("olsr.selections", static_cast<double>(n * selectors));

  std::string mismatch;
  for (std::size_t si = 0; si < selectors; ++si) {
    const ProtocolStats& ps = ref.protocols[si];
    const double set_size = average_set_size(ans[si]);
    c.add("olsr.ans_total", set_size * static_cast<double>(n));
    ForwardingOptions options;
    options.use_local_views = sc.use_local_views;
    options.min_hop_routing = !protocols.ans[si]->qos_first_routing();
    {
      Scope s(tr, "routing.advertised");
      ws.advertised_builder.build_advertised(run.graph, ans[si],
                                             ws.advertised);
    }
    ForwardingResult routed;
    {
      Scope s(tr, "routing.forward");
      routed = sc.hop_by_hop
                   ? forward_packet<M>(run.graph, ws.advertised, run.source,
                                       run.destination, options,
                                       ws.forwarding)
                   : source_route_packet<M>(run.graph, ws.advertised,
                                            run.source, run.destination,
                                            options, ws.forwarding);
    }
    if (mismatch.empty())
      mismatch = differs("set size", ps.name, set_size, ps.set_size.mean());
    if (mismatch.empty())
      mismatch = differs("delivered", ps.name, routed.delivered() ? 1 : 0,
                         static_cast<double>(ps.delivered));
    if (mismatch.empty() && routed.delivered()) {
      mismatch = differs("overhead", ps.name,
                         qos_overhead<M>(routed.value, run.optimal_value),
                         ps.overhead.mean());
      if (mismatch.empty())
        mismatch = differs("path hops", ps.name,
                           static_cast<double>(routed.path.size() - 1),
                           ps.path_hops.mean());
    }
    Scope r(tr, "replay");
    replay_frames(run.graph, oracle_frames(run.graph, ans[si]), tr, c);
  }
  return mismatch;
}

// -------------------------------------------------------------- packet --

std::string replica_packet(const ExperimentSpec& spec,
                           const ResolvedProtocols& protocols,
                           const DensityStats& ref, Tracer& tr, Counters& c) {
  const Scenario& sc = spec.scenario;
  const bool load_axis = sc.sweep_axis == Scenario::SweepAxis::kLoad;
  if ((!load_axis && sc.sweep_axis != Scenario::SweepAxis::kDensity) ||
      sc.faults.active() || sc.adversaries.active())
    throw std::runtime_error(
        "replica: packet units without faults or adversaries only");
  const double density = load_axis ? sc.field.degree : sc.densities.front();
  TrafficSpec traffic = sc.traffic;
  if (load_axis) traffic.load = sc.densities.front();
  const TrafficSpec* traffic_spec = traffic.active() ? &traffic : nullptr;
  const std::uint64_t run_seed = run_seed_of(spec);

  PacketEvalWorkspace ws;
  util::Rng rng(run_seed);
  SampledRun run;
  {
    Scope s(tr, "graph.sample_run");
    run = sample_run<M>(sc, density, rng, ws.eval);
  }
  const std::size_t n = run.graph.node_count();
  c.add("graph.nodes", static_cast<double>(n));

  std::string mismatch;
  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    const AnsSelector& ans = *protocols.ans[si];
    DijkstraWorkspace* const dws = &ws.route_dijkstra;
    NextHopScratch* const bfs = &ws.route_bfs;
    OlsrNode::RouteFn route =
        ans.qos_first_routing()
            ? OlsrNode::RouteFn(
                  [dws, bfs](const Graph& g, NodeId self, NodeId dest) {
                    return compute_next_hop<M>(g, self, dest, *dws, *bfs);
                  })
            : OlsrNode::RouteFn(
                  [dws](const Graph& g, NodeId self, NodeId dest) {
                    return compute_min_hop_next_hop<M>(g, self, dest, *dws);
                  });
    {
      Scope s(tr, "sim.reset");
      ws.sim.reset(run.graph, *protocols.flooding[si], ans, std::move(route),
                   run_seed, nullptr, traffic_spec, nullptr);
    }
    ConvergenceReport report;
    {
      Scope s(tr, "sim.converge");
      report = ws.sim.run_to_convergence();
    }
    const TraceStats conv = ws.sim.trace_at_convergence();
    double total_ans = 0.0;
    for (NodeId u = 0; u < n; ++u)
      total_ans += static_cast<double>(ws.sim.node(u).ans().size());

    const std::size_t probes =
        std::max<std::size_t>(sc.probe_packets, 1);
    std::size_t delivered = 0;
    {
      Scope s(tr, "sim.probe");
      for (std::uint32_t pid = 1; pid <= probes; ++pid)
        ws.sim.node(run.source).send_data(run.destination, pid);
      ws.sim.run_until(ws.sim.now() + 1.0);
      for (std::uint32_t pid = 1; pid <= probes; ++pid) {
        const auto j = ws.sim.trace().journeys.find(pid);
        delivered += j != ws.sim.trace().journeys.end() && j->second.delivered;
      }
    }
    std::size_t offered = 0;
    std::size_t arrived = 0;
    if (traffic_spec != nullptr) {
      Scope s(tr, "sim.traffic");
      const TrafficMatrix matrix =
          TrafficMatrix::generate(traffic, run.graph, run_seed);
      const double t0 = ws.sim.now();
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        const TrafficMatrix::Flow& flow = matrix.flows()[packet.flow];
        ws.sim.queue().schedule_at(t0 + packet.offset, [&ws, flow, packet] {
          ws.sim.node(flow.source).send_data(flow.destination,
                                             packet.payload_id);
        });
      }
      const double drain =
          2.0 + static_cast<double>(traffic.queue_bytes) /
                    traffic.link_capacity * 10.0;
      ws.sim.run_until(t0 + traffic.duration + drain);
      offered = matrix.packets().size();
      for (const TrafficMatrix::Packet& packet : matrix.packets()) {
        const auto j = ws.sim.trace().journeys.find(packet.payload_id);
        arrived += j != ws.sim.trace().journeys.end() && j->second.delivered;
      }
    }
    count_sim_run(ws.sim, conv, c);
    c.add("sim.unconverged", report.converged ? 0 : 1);

    const ProtocolStats& ps = ref.protocols[si];
    const ControlPlaneStats& cp = ps.control;
    const std::pair<double, double> checks[] = {
        {total_ans / static_cast<double>(n), ps.set_size.mean()},
        {static_cast<double>(conv.hello_sent), cp.hello_msgs.mean()},
        {static_cast<double>(conv.tc_originated), cp.tc_msgs.mean()},
        {static_cast<double>(conv.tc_forwarded), cp.tc_forwards.mean()},
        {static_cast<double>(conv.tc_dropped_duplicate),
         cp.duplicate_drops.mean()},
        {static_cast<double>(conv.control_bytes), cp.control_bytes.mean()},
        {report.converged_at, cp.convergence_time.mean()},
        {static_cast<double>(delivered), static_cast<double>(ps.delivered)},
        {static_cast<double>(offered),
         static_cast<double>(ps.traffic.offered)},
        {static_cast<double>(arrived),
         static_cast<double>(ps.traffic.delivered)},
    };
    const char* names[] = {"set size",      "HELLOs",     "TCs originated",
                           "TC forwards",   "duplicates", "control bytes",
                           "convergence time", "probes delivered",
                           "traffic offered", "traffic delivered"};
    for (std::size_t k = 0; k < std::size(checks) && mismatch.empty(); ++k)
      mismatch = differs(names[k], ps.name, checks[k].first, checks[k].second);

    Scope r(tr, "replay");
    replay_frames(run.graph,
                  node_frames(ws.sim, duplicate_share(run.graph, conv)), tr,
                  c);
    replay_selection(ws.sim, ans, run.source, run.destination, tr, c);
  }
  return mismatch;
}

// ---------------------------------------------------------------- wire --

/// Polls the peak resident set of this process's children (the fleet's
/// daemons and switch) until stopped.
class ChildRssSampler {
 public:
  ChildRssSampler() : thread_([this] { run(); }) {}
  ~ChildRssSampler() { stop(); }
  ChildRssSampler(const ChildRssSampler&) = delete;
  ChildRssSampler& operator=(const ChildRssSampler&) = delete;

  /// Joins the sampler; returns the largest VmHWM seen, in KiB.
  long stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return peak_kb_;
  }

 private:
  void run() {
    while (!stop_) {
      for (const int pid : child_pids())
        peak_kb_ = std::max(peak_kb_.load(), peak_rss_kb(pid));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<long> peak_kb_{0};
  std::thread thread_;
};

double children_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
             1e-6;
}

std::string replica_wire(const ExperimentSpec& spec,
                         const ResolvedProtocols& protocols,
                         const DensityStats& ref, Tracer& tr, Counters& c) {
  const std::uint64_t run_seed = run_seed_of(spec);
  EvalWorkspace ws;
  util::Rng rng(run_seed);
  SampledRun run;
  {
    Scope s(tr, "graph.sample_run");
    run = sample_run<M>(spec.scenario, spec.scenario.densities.front(), rng,
                        ws);
  }
  const std::size_t n = run.graph.node_count();
  c.add("graph.nodes", static_cast<double>(n));

  std::string mismatch;
  for (std::size_t si = 0; si < protocols.ans.size(); ++si) {
    net::WireRunConfig wire;
    wire.protocol = spec.selectors[si];
    wire.metric = spec.metric;
    wire.seed = run_seed;
    wire.timing = ProtocolTiming{}.scaled(spec.wire_scale);

    const double cpu_before = children_cpu_seconds();
    net::WireRunResult fleet;
    long rss_kb = 0;
    {
      ChildRssSampler sampler;
      Scope s(tr, "net.fleet");
      fleet = net::run_wire_network(run.graph, wire);
      rss_kb = sampler.stop();
    }
    c.add("net.fleets", 1);
    c.add("net.fleet_cpu_s", children_cpu_seconds() - cpu_before);
    c.max("net.daemon_rss_kb", static_cast<double>(rss_kb));

    const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
      return kInvalidNode;
    };
    SimConfig config;
    static_cast<ProtocolTiming&>(config.node) = wire.timing;
    config.seed = run_seed;
    std::optional<Simulator> twin;
    ConvergenceReport report;
    // The twin's set-up and convergence carry the packet backend's phase
    // names, so the sim metrics mean the same on both workloads.
    {
      Scope s(tr, "sim.reset");
      twin.emplace(run.graph, *protocols.flooding[si], *protocols.ans[si],
                   no_routes, config);
    }
    {
      Scope s(tr, "sim.converge");
      report = twin->run_to_convergence();
    }
    const TraceStats conv = twin->trace_at_convergence();
    count_sim_run(*twin, conv, c);
    c.add("sim.unconverged", report.converged ? 0 : 1);

    double total_ans = 0.0;
    double settled_at = 0.0;
    for (NodeId id = 0; id < n; ++id) {
      if (fleet.reports[id].digest != twin->node(id).converged_digest())
        throw std::runtime_error("replica: wire digest mismatch at node " +
                                 std::to_string(id));
      total_ans += static_cast<double>(fleet.reports[id].ans_size);
      settled_at = std::max(settled_at, fleet.reports[id].last_mutation);
    }
    c.add("net.lag_s", settled_at - report.converged_at);
    const ProtocolStats& ps = ref.protocols[si];
    if (mismatch.empty())
      mismatch = differs("set size", ps.name,
                         total_ans / static_cast<double>(n),
                         ps.set_size.mean());

    Scope r(tr, "replay");
    replay_frames(run.graph,
                  node_frames(*twin, duplicate_share(run.graph, conv)), tr,
                  c);
    replay_selection(*twin, *protocols.ans[si], run.source, run.destination,
                     tr, c);
  }
  return mismatch;
}

}  // namespace

std::string trace_unit(const ExperimentSpec& spec,
                       const ExperimentResult& reference, Tracer& tracer,
                       Counters& counters) {
  if (spec.metric != MetricId::kBandwidth || spec.scenario.runs != 1 ||
      spec.scenario.densities.size() != 1 ||
      spec.scenario.dynamics.enabled())
    throw std::runtime_error("replica: one static bandwidth unit only");
  const double nodes = counters.get("graph.nodes");
  std::string mismatch;
  {
    Scope unit(tracer, "unit");
    const ResolvedProtocols protocols =
        resolve_protocols(spec, SelectorRegistry::builtin());
    const DensityStats& ref = reference.sweep.front();
    switch (spec.backend) {
      case BackendId::kOracle:
        mismatch = replica_oracle(spec, protocols, ref, tracer, counters);
        break;
      case BackendId::kPacket:
        mismatch = replica_packet(spec, protocols, ref, tracer, counters);
        break;
      case BackendId::kWire:
        mismatch = replica_wire(spec, protocols, ref, tracer, counters);
        break;
    }
    Scope s(tracer, "eval.sink");
    std::ostringstream os;
    make_result_sink("csv")->write(reference, os);
  }
  if (mismatch.empty())
    mismatch = differs("nodes", "all", counters.get("graph.nodes") - nodes,
                       reference.sweep.front().node_count.mean());
  return mismatch;
}

// ------------------------------------------------------------ summary --

namespace {

/// Layer of a span: the name's prefix; the unit root is eval glue.
std::string layer_of(const char* name) {
  const std::string s(name);
  if (s == "unit") return "eval";
  return s.substr(0, s.find('.'));
}

struct SpanTotals {
  std::map<std::string, double> self;   ///< by span name
  std::map<std::string, double> count;  ///< by span name
  std::map<std::string, double> layer_self;  ///< unit tree only
  double unit_time = 0.0;                    ///< unit tree, minus replay
};

SpanTotals totals(const Tracer& tracer) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<double> child(spans.size(), 0.0);
  std::vector<bool> in_replay(spans.size(), false);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child[p] += s.end - s.start;
    in_replay[i] = in_replay[p] || std::string(spans[p].name) == "replay";
  }
  SpanTotals t;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name(s.name);
    const double self = s.end - s.start - child[i];
    t.self[name] += self;
    t.count[name] += 1;
    if (name == "replay") {
      t.unit_time -= s.end - s.start;
    } else if (!in_replay[i]) {
      t.layer_self[layer_of(s.name)] += self;
      if (name == "unit") t.unit_time += s.end - s.start;
    }
  }
  return t;
}

}  // namespace

double traced_unit_seconds(const Tracer& tracer) {
  return totals(tracer).unit_time;
}

std::vector<LayerMetric> layer_metrics(const Tracer& tracer,
                                       const Counters& c, std::size_t units) {
  const SpanTotals t = totals(tracer);
  auto self = [&](const char* name) {
    const auto it = t.self.find(name);
    return it == t.self.end() ? 0.0 : it->second;
  };
  auto count = [&](const char* name) {
    const auto it = t.count.find(name);
    return it == t.count.end() ? 0.0 : it->second;
  };
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double u = static_cast<double>(units);
  const double runs = c.get("sim.runs");
  const double fleets = c.get("net.fleets");
  const double sim_busy = self("sim.converge") + self("sim.probe") +
                          self("sim.traffic");
  std::vector<LayerMetric> m = {
      {"graph.sample_ms", per(self("graph.sample_run"), u) * 1e3, "ms"},
      {"graph.nodes", per(c.get("graph.nodes"), u), "count"},
      {"olsr.select_us",
       per(self("olsr.select"), c.get("olsr.selections")) * 1e6, "us"},
      {"olsr.ans_size", per(c.get("olsr.ans_total"), c.get("olsr.selections")),
       "count"},
      {"routing.advertised_ms",
       per(self("routing.advertised"), count("routing.advertised")) * 1e3,
       "ms"},
      {"routing.forward_us",
       per(self("routing.forward"), count("routing.forward")) * 1e6,
       "us"},
      {"sim.reset_ms", per(self("sim.reset"), runs) * 1e3, "ms"},
      {"sim.converge_ms", per(self("sim.converge"), runs) * 1e3, "ms"},
      {"sim.events", per(c.get("sim.events"), runs), "count"},
      {"sim.ns_per_event", per(sim_busy, c.get("sim.events")) * 1e9, "ns"},
      {"sim.mutations", per(c.get("sim.mutations"), runs), "count"},
      {"sim.unconverged", per(c.get("sim.unconverged"), runs), "ratio"},
      {"sim.probe_ms", per(self("sim.probe"), runs) * 1e3, "ms"},
      {"sim.traffic_ms", per(self("sim.traffic"), runs) * 1e3, "ms"},
      {"sim.hello_sent", per(c.get("sim.hello_sent"), runs), "count"},
      {"sim.tc_tx", per(c.get("sim.tc_tx"), runs), "count"},
      {"sim.dup_per_tc_tx", per(c.get("sim.tc_dup"), c.get("sim.tc_tx")),
       "ratio"},
      {"sim.control_bytes", per(c.get("sim.control_bytes"), runs), "bytes"},
      {"sim.data_forwarded", per(c.get("sim.data_forwarded"), runs), "count"},
      {"sim.queue_drops", per(c.get("sim.queue_drops"), runs), "count"},
      {"proto.parse_ns", per(self("proto.parse"), c.get("proto.parse_ops")) *
                             1e9, "ns"},
      {"proto.serialize_ns",
       per(self("proto.serialize"), c.get("proto.serialize_ops")) * 1e9, "ns"},
      {"proto.dup_check_ns",
       per(self("proto.dup_check"), c.get("proto.dup_check_ops")) * 1e9, "ns"},
      {"proto.apply_tc_ns",
       per(self("proto.apply_tc"), c.get("proto.apply_tc_ops")) * 1e9, "ns"},
      {"proto.on_hello_ns",
       per(self("proto.on_hello"), c.get("proto.on_hello_ops")) * 1e9, "ns"},
      {"net.fleet_ms", per(self("net.fleet"), fleets) * 1e3, "ms"},
      {"net.fleet_cpu_ms", per(c.get("net.fleet_cpu_s"), fleets) * 1e3, "ms"},
      {"net.daemon_rss_mb", c.get("net.daemon_rss_kb") / 1024.0, "MB"},
      {"net.twin_ms",
       fleets > 0 ? per(self("sim.reset") + self("sim.converge"), fleets) * 1e3
                  : 0.0,
       "ms"},
      {"net.lag_ms", per(c.get("net.lag_s"), fleets) * 1e3, "ms"},
      {"net.encode_ns", per(self("net.encode"), c.get("net.codec_ops")) * 1e9,
       "ns"},
      {"net.decode_ns", per(self("net.decode"), c.get("net.codec_ops")) * 1e9,
       "ns"},
      {"net.leaked_children", c.get("net.leaked_children"), "count"},
      {"eval.sink_ms", per(self("eval.sink"), u) * 1e3, "ms"},
  };
  for (const char* layer :
       {"graph", "olsr", "routing", "sim", "proto", "net", "eval"}) {
    const auto it = t.layer_self.find(layer);
    const double share =
        it == t.layer_self.end() ? 0.0 : per(it->second, t.unit_time) * 100;
    m.push_back({std::string(layer) + ".share", share, "%"});
  }
  return m;
}

void write_spans(const Tracer& tracer, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out.precision(9);
  out << "[\n";
  const std::vector<Span>& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"unit\":"
        << s.unit << ",\"parent\":" << s.parent << ",\"start\":" << s.start
        << ",\"end\":" << s.end << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace perfbench
