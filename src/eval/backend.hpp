#pragma once

#include <memory>
#include <vector>

#include "eval/experiment.hpp"

namespace qolsr {

/// The named selection heuristics of one experiment, resolved from the
/// SelectorRegistry exactly once by run_experiment and shared by every
/// backend (and every worker thread — selection is const and stateless).
/// `ans` is the column order of every emitted result; `flooding` pairs
/// each protocol with its TC-flooding role (SelectorRegistry::
/// create_flooding, or the `ans` entry itself for a protocol that floods
/// on its own advertised set) and is resolved only for backends that
/// flood real packets — it stays empty under the oracle.
struct ResolvedProtocols {
  std::vector<std::unique_ptr<AnsSelector>> owned;
  std::vector<const AnsSelector*> ans;
  std::vector<const AnsSelector*> flooding;
};

/// The execution seam of the experiment engine: a backend turns a spec
/// plus resolved selectors into per-sweep-point aggregates. Both
/// implementations run the same threaded sweep harness and fill the same
/// DensityStats, so every result sink works on either's output unchanged:
///
///  * OracleBackend (BackendId::kOracle) — the templated run_sweep /
///    run_dynamic_sweep analytic path;
///  * PacketBackend (BackendId::kPacket) — run_packet_sweep: one
///    discrete-event Simulator per (run, protocol), converged, then
///    measured from protocol state, including ControlPlaneStats;
///  * WireBackend (BackendId::kWire) — run_wire_sweep: one fleet of real
///    qolsr_node processes over the software switch per (run, protocol),
///    digest-verified against an in-process Simulator twin.
///
/// `run` validates backend-specific spec constraints (e.g. the packet
/// backend rejects mobility epochs for now) and throws ExperimentError.
class EvalBackend {
 public:
  virtual ~EvalBackend() = default;
  virtual BackendId id() const = 0;
  virtual std::vector<DensityStats> run(
      const ExperimentSpec& spec,
      const ResolvedProtocols& protocols) const = 0;
};

/// The backend registered for `id`. Backends are stateless singletons;
/// the reference stays valid for the program's lifetime.
const EvalBackend& backend_for(BackendId id);

/// Resolves the spec's selector names (and, for backends that need it,
/// their flooding roles) through `registry`. Throws ExperimentError on
/// unknown names.
ResolvedProtocols resolve_protocols(const ExperimentSpec& spec,
                                    const SelectorRegistry& registry);

}  // namespace qolsr
