#include "eval/backend.hpp"

#include "eval/dynamic_runner.hpp"
#include "eval/packet_runner.hpp"
#include "eval/wire_runner.hpp"

namespace qolsr {

namespace {

/// The analytic path: exact local views from the sampled graph, oracle
/// advertised topology, templated allocation-free sweeps — the engine the
/// paper's figures are reproduced with (and the byte-stability reference
/// every golden test pins).
class OracleBackend final : public EvalBackend {
 public:
  BackendId id() const override { return BackendId::kOracle; }

  std::vector<DensityStats> run(
      const ExperimentSpec& spec,
      const ResolvedProtocols& protocols) const override {
    return dispatch_metric(spec.metric, [&](auto tag) {
      using M = typename decltype(tag)::type;
      return spec.scenario.dynamics.enabled()
                 ? run_dynamic_sweep<M>(spec.scenario, protocols.ans,
                                        spec.threads)
                 : run_sweep<M>(spec.scenario, protocols.ans, spec.threads);
    });
  }
};

/// The distributed path: one discrete-event control plane per (run,
/// protocol), converged and then measured from protocol state. See
/// eval/packet_runner.hpp.
class PacketBackend final : public EvalBackend {
 public:
  BackendId id() const override { return BackendId::kPacket; }

  std::vector<DensityStats> run(
      const ExperimentSpec& spec,
      const ResolvedProtocols& protocols) const override {
    if (spec.scenario.dynamics.enabled())
      throw ExperimentError(
          "experiment '" + spec.name +
          "': the packet backend does not run mobility epochs yet "
          "(ROADMAP open item) - drop --mobility or use --backend=oracle");
    if (spec.scenario.routing_model == Scenario::RoutingModel::kAnsChain)
      throw ExperimentError(
          "experiment '" + spec.name +
          "': the packet backend's nodes route hop-by-hop on their own "
          "knowledge (the advertised-union model); --routing=chain is an "
          "oracle-only discipline");
    return dispatch_metric(spec.metric, [&](auto tag) {
      using M = typename decltype(tag)::type;
      return run_packet_sweep<M>(spec.scenario, protocols, spec.threads);
    });
  }
};

/// The multi-process path: one fleet of real qolsr_node daemons over the
/// software switch per (run, protocol), digest-verified against an
/// in-process Simulator twin. See eval/wire_runner.hpp.
class WireBackend final : public EvalBackend {
 public:
  BackendId id() const override { return BackendId::kWire; }

  std::vector<DensityStats> run(
      const ExperimentSpec& spec,
      const ResolvedProtocols& protocols) const override {
    if (spec.scenario.dynamics.enabled())
      throw ExperimentError(
          "experiment '" + spec.name +
          "': the wire backend runs static deployments only - drop "
          "--mobility or use --backend=oracle");
    if (spec.scenario.sweep_axis != Scenario::SweepAxis::kDensity)
      throw ExperimentError(
          "experiment '" + spec.name +
          "': the wire backend sweeps density only (loss/load/adversary "
          "axes live on --backend=packet)");
    if (spec.per_run || spec.scenario.record_runs)
      throw ExperimentError(
          "experiment '" + spec.name +
          "': the wire backend reports aggregates only (drop --per-run)");
    // Every node of every run is a real OS process; refuse deployments
    // whose expected fleets would fork-bomb the machine instead of timing
    // out one by one.
    DeploymentConfig field = spec.scenario.field;
    for (const double density : spec.scenario.densities) {
      field.degree = density;
      if (field.expected_nodes() > 64.0)
        throw ExperimentError(
            "experiment '" + spec.name + "': density " +
            std::to_string(density) + " expects ~" +
            std::to_string(static_cast<long>(field.expected_nodes())) +
            " nodes per deployment - every node is a real process; shrink "
            "--field (e.g. 250x250) to keep wire fleets under 64");
    }
    return dispatch_metric(spec.metric, [&](auto tag) {
      using M = typename decltype(tag)::type;
      return run_wire_sweep<M>(spec, protocols);
    });
  }
};

}  // namespace

const EvalBackend& backend_for(BackendId id) {
  static const OracleBackend oracle;
  static const PacketBackend packet;
  static const WireBackend wire;
  switch (id) {
    case BackendId::kPacket:
      return packet;
    case BackendId::kWire:
      return wire;
    case BackendId::kOracle:
      break;
  }
  return oracle;
}

ResolvedProtocols resolve_protocols(const ExperimentSpec& spec,
                                    const SelectorRegistry& registry) {
  ResolvedProtocols protocols;
  protocols.owned.reserve(2 * spec.selectors.size());
  protocols.ans.reserve(spec.selectors.size());
  try {
    for (const std::string& name : spec.selectors) {
      protocols.owned.push_back(registry.create(name, spec.metric));
      protocols.ans.push_back(protocols.owned.back().get());
    }
    // Backends that flood real packets (in-process or across processes)
    // also need each protocol's TC-flooding role; the oracle does not. A
    // protocol that floods on its own advertised set gets its ANS selector
    // in both roles, so its nodes select once per recompute.
    if (spec.backend != BackendId::kOracle) {
      protocols.flooding.reserve(spec.selectors.size());
      for (std::size_t i = 0; i < spec.selectors.size(); ++i) {
        const std::string& name = spec.selectors[i];
        if (registry.floods_on_ans(name)) {
          protocols.flooding.push_back(protocols.ans[i]);
          continue;
        }
        protocols.owned.push_back(
            registry.create_flooding(name, spec.metric));
        protocols.flooding.push_back(protocols.owned.back().get());
      }
    }
  } catch (const std::invalid_argument& e) {
    throw ExperimentError("experiment '" + spec.name + "': " + e.what());
  }
  return protocols;
}

}  // namespace qolsr
