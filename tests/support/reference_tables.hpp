#pragma once

// The std::map forms of NeighborTables and TopologyBase, kept verbatim as
// the reference oracle of the flat, NodeId-indexed tables in src/proto
// (tests/proto/flat_tables_property_test.cpp replays random operation
// sequences against both). Ordered maps make every iteration ascending by
// id — the order the flat tables must reproduce.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "proto/messages.hpp"
#include "proto/topology_base.hpp"  // ansn_newer

namespace qolsr::reference {

/// HELLO-derived neighbor state of one node: the link set (with the RFC
/// 3626 two-way handshake), each symmetric neighbor's own advertised link
/// table (giving the 2-hop view), and who selected us as MPR.
///
/// Timers are simulated seconds; an entry not refreshed within `hold_time`
/// vanishes, so a dead link heals out of the tables automatically.
class NeighborTables {
 public:
  explicit NeighborTables(NodeId self, double hold_time = 6.0)
      : self_(self), hold_time_(hold_time) {}

  /// What a mutation (on_hello / expire) changed — the two facets derived
  /// state cares about: `digest_changed` means the fold `digest` computes
  /// is different (an entry appeared/vanished, a sym bit or MPR-selector
  /// bit flipped), i.e. the convergence detector must see a state change;
  /// `view_changed` means the node's own symmetric-link contribution to
  /// its knowledge graph (symmetric neighbor set or a symmetric link's
  /// QoS) is different, i.e. a cached routing view must be invalidated.
  /// Timer refreshes that alter neither report {false, false}.
  struct Outcome {
    bool digest_changed = false;
    bool view_changed = false;
  };

  /// Processes a received HELLO. `qos` is the measured QoS of the link the
  /// HELLO arrived on (link measurement is out of the paper's scope; the
  /// simulator supplies the ground-truth value).
  Outcome on_hello(const HelloMessage& hello, const LinkQos& qos, double now);

  /// Drops expired links / neighbor tables / selector entries.
  Outcome expire(double now);

  /// Forgets every neighbor — the per-run reset of a reused protocol stack.
  void clear() {
    links_.clear();
    ++view_epoch_;
  }

  /// Selection epoch: bumped by every mutation that changes what
  /// build_local_view reads — the symmetric neighbor set, a symmetric
  /// link's QoS bits, or a symmetric neighbor's advertised (neighbor, qos)
  /// sequence. Equal epochs on the same tables object ⇒ build_local_view
  /// returns the same view, so a caller that memoizes a pure function of
  /// that view (OlsrNode's selection) may skip recomputing it. Timer
  /// refreshes, asymmetric entries, and advert status flips between
  /// kSymmetric and kMpr (which the view does not carry) leave it alone.
  std::uint64_t view_epoch() const { return view_epoch_; }

  /// Folds the link-state that selection depends on — symmetric neighbor
  /// ids and who selected us as MPR — into a running state digest. Hold
  /// timers are excluded so periodic HELLO refreshes don't read as change
  /// (see Simulator::run_to_convergence).
  std::uint64_t digest(std::uint64_t h) const;

  /// The cross-process comparison fold: everything `digest` covers *plus*
  /// the measured link QoS (exact IEEE bits) and each neighbor's
  /// advertised link table — but still no timers, sequence numbers or any
  /// other history of how the state was reached. The converged link state
  /// on a loss-free medium is a pure function of (topology, selectors),
  /// so a wall-clock wire daemon and the discrete-event Simulator fold to
  /// the *same* value here even though their schedules (and hold-time
  /// deadlines) differ — the equality the wire backend asserts.
  std::uint64_t converged_digest(std::uint64_t h) const;

  /// Symmetric neighbors, ascending id.
  std::vector<NodeId> symmetric_neighbors() const;

  /// Visits every symmetric neighbor as (id, qos), ascending id — the
  /// allocation-free counterpart of symmetric_neighbors() + link_qos()
  /// used by the cached knowledge-graph rebuild.
  template <typename Fn>
  void for_each_symmetric(Fn&& fn) const {
    for (const auto& [id, entry] : links_)
      if (entry.sym_until >= 0.0) fn(id, entry.qos);
  }

  /// Every neighbor with a live (possibly still asymmetric) link entry,
  /// ascending id — what a HELLO must list for the two-way handshake.
  std::vector<NodeId> heard_neighbors() const;

  /// True when `neighbor` advertises us as its MPR — i.e. we must forward
  /// its floods (and it belongs to our MPR-selector set).
  bool selected_us_as_mpr(NodeId neighbor) const;

  /// True when the two-way handshake with `neighbor` completed.
  bool is_symmetric(NodeId neighbor) const;

  /// QoS of the (symmetric) link to `neighbor`; nullptr when unknown.
  const LinkQos* link_qos(NodeId neighbor) const;

  /// Nodes that advertise us as their MPR (our MPR-selector set — what
  /// original OLSR would advertise in TCs).
  std::vector<NodeId> mpr_selectors() const;

  /// Builds the local view G_self from the HELLO state: our symmetric
  /// links plus every symmetric neighbor's advertised links.
  LocalView build_local_view() const;

 private:
  struct LinkEntry {
    LinkQos qos;
    double sym_until = -1.0;   ///< symmetric while now < sym_until
    double asym_until = -1.0;  ///< heard-from while now < asym_until
    bool selected_us_mpr = false;
    std::vector<LinkAdvert> advertised;  ///< neighbor's own link table
  };

  NodeId self_;
  double hold_time_;
  std::map<NodeId, LinkEntry> links_;  // ordered => deterministic iteration
  std::uint64_t view_epoch_ = 0;       ///< see view_epoch()
};

/// RFC 3626 topology information base: what a node has learned from TC
/// floods. Keyed by originator; a newer ANSN replaces the stale advert,
/// and entries expire when not refreshed.
class TopologyBase {
 public:
  explicit TopologyBase(double hold_time = 15.0) : hold_time_(hold_time) {}

  /// What apply_tc did with a TC — the change taxonomy the caller needs to
  /// keep derived state coherent without diffing the whole base:
  ///  - `fresh`: the TC was accepted (not rejected as a stale ANSN).
  ///  - `links_changed`: the held advertised neighbor-id sequence changed,
  ///    i.e. the accept is visible to `digest` (a pure refresh that renews
  ///    the hold time of an identical advertisement is not).
  ///  - `view_changed`: the *routing view* contribution of this originator
  ///    changed — neighbor ids or QoS differ, or a held-but-expired entry
  ///    (excluded from the validity-aware to_graph) came back to life — so
  ///    any cached to_graph product must be invalidated.
  struct TcOutcome {
    bool fresh = false;
    bool links_changed = false;
    bool view_changed = false;
  };

  /// Processes a TC and reports exactly what changed.
  TcOutcome apply_tc(const TcMessage& tc, double now);

  /// Processes a TC. Returns false when the TC is stale (older ANSN than
  /// what we hold) and was ignored.
  bool on_tc(const TcMessage& tc, double now) {
    return apply_tc(tc, now).fresh;
  }

  /// Drops entries past their hold time. Returns true when anything was
  /// removed — a digest-visible state change.
  bool expire(double now);

  /// Earliest hold-time deadline over every held entry (+infinity when the
  /// base is empty) — when the next expiry-driven purge event is due.
  double next_expiry() const;

  /// Drops every entry — the per-run reset of a reused protocol stack.
  void clear() { entries_.clear(); }

  /// All live advertised links, as an undirected QoS graph over
  /// `node_count` nodes — the knowledge a routing-table computation merges
  /// with the local view.
  Graph to_graph(std::size_t node_count) const;

  /// Validity-aware form (RFC 3626 soft state): entries whose hold time
  /// has passed by `now` are excluded even when the periodic purge has not
  /// run yet — what a node should route on between expiry sweeps. With a
  /// healthy control plane every entry is continually refreshed and both
  /// forms agree; under loss or crash faults this is where stale links
  /// disappear first.
  Graph to_graph(std::size_t node_count, double now) const;

  /// Rebuilds `out` in place (capacity-preserving) with exactly what the
  /// validity-aware to_graph would return, and reports how long the result
  /// stays faithful: the earliest hold-time deadline among the *included*
  /// entries (+infinity when none expire). Until that instant — and absent
  /// any mutation — a caller may keep routing on `out` without rebuilding.
  double to_graph_into(Graph& out, std::size_t node_count, double now) const;

  /// Live advertised set of one originator (empty when unknown).
  std::vector<NodeId> advertised_of(NodeId originator) const;

  /// The ANSN currently held for `originator` (nullopt when unknown) — the
  /// value a fresher TC must beat under ansn_newer.
  std::optional<std::uint16_t> ansn_of(NodeId originator) const;

  /// Visits every held advert as (originator, advert), in deterministic
  /// (ordered-map) order — the invariant monitor's audit walks this to
  /// compare a converged base against the ground-truth graph.
  template <typename Fn>
  void for_each_advert(Fn&& fn) const {
    for (const auto& [originator, entry] : entries_)
      for (const LinkAdvert& a : entry.advertised) fn(originator, a);
  }

  std::size_t originator_count() const { return entries_.size(); }

  /// Folds the advertised topology — (originator, advertised neighbor)
  /// pairs, deterministic order — into a running state digest. Expiry
  /// timestamps are deliberately excluded: periodic TC refreshes that keep
  /// the same advertisement alive must not look like state changes to the
  /// convergence detector (see Simulator::run_to_convergence).
  std::uint64_t digest(std::uint64_t h) const;

  /// The cross-process comparison fold: the advertised topology *with*
  /// each advert's status and QoS bits — but still excluding ANSN and
  /// expiry timestamps. ANSN is history (how many TC generations it took
  /// to reach the fixpoint differs between a wall-clock wire run and the
  /// event-driven Simulator); the converged advert content is not. See
  /// NeighborTables::converged_digest for the equality this underwrites.
  std::uint64_t converged_digest(std::uint64_t h) const;

 private:
  struct Entry {
    std::uint16_t ansn = 0;
    double expires = 0.0;
    std::vector<LinkAdvert> advertised;
  };

  /// ANSN comparison with wrap-around (RFC 3626 §9.2 semantics).
  static bool newer(std::uint16_t a, std::uint16_t b) {
    return ansn_newer(a, b);
  }

  double hold_time_;
  std::map<NodeId, Entry> entries_;
};

}  // namespace qolsr::reference
