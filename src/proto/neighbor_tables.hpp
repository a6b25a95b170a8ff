#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "proto/messages.hpp"

namespace qolsr {

/// HELLO-derived neighbor state of one node: the link set (with the RFC
/// 3626 two-way handshake), each symmetric neighbor's own advertised link
/// table (giving the 2-hop view), and who selected us as MPR.
///
/// Timers are simulated seconds; an entry not refreshed within `hold_time`
/// vanishes, so a dead link heals out of the tables automatically.
///
/// Storage is flat (DESIGN.md §5 "Per-node protocol state"): the link
/// entries sit in one contiguous vector in ascending neighbor id, and a
/// NodeId-indexed slot array maps an id to its entry, so the per-frame
/// lookups (is_symmetric, selected_us_as_mpr, link_qos, on_hello's refresh)
/// are array reads. A neighbor appearing or expiring — rare next to the
/// refreshes — shifts the entries behind it and fixes their slots.
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

  /// Forgets every neighbor — the crash of a reused protocol stack. Keeps
  /// every allocation (the slot array, the entries and their advert
  /// buffers) for the next neighbors to reuse.
  void clear();

  /// The per-run reset: clear(), rebind the hold time, and size the slot
  /// array for ids 0..node_count-1. An id past it still works — the insert
  /// grows the array — but a simulation's ids never are (OlsrNode drops any
  /// frame naming an id outside the deployment before it gets here).
  void reset(double hold_time, std::size_t node_count);

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
    for (std::size_t i = 0; i < live_; ++i)
      if (links_[i].sym_until >= 0.0) fn(links_[i].id, links_[i].qos);
  }

  /// Every neighbor with a live (possibly still asymmetric) link entry,
  /// ascending id — what a HELLO must list for the two-way handshake.
  std::vector<NodeId> heard_neighbors() const;

  /// Visits every live link entry as (id, qos, symmetric), ascending id —
  /// the allocation-free walk a HELLO is built from.
  template <typename Fn>
  void for_each_heard(Fn&& fn) const {
    for (std::size_t i = 0; i < live_; ++i)
      fn(links_[i].id, links_[i].qos, links_[i].sym_until >= 0.0);
  }

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
  /// links plus every symmetric neighbor's advertised links. This form
  /// goes through intermediate neighbor-link vectors, independently of
  /// build_local_view_into — the reference the selection cache is checked
  /// against.
  LocalView build_local_view() const;

  /// The same view built straight from the link entries into `out` with
  /// `builder`'s scratch: allocation-free once both are warm.
  void build_local_view_into(LocalViewBuilder& builder, LocalView& out) const;

 private:
  struct LinkEntry {
    NodeId id = kInvalidNode;
    LinkQos qos;
    double sym_until = -1.0;   ///< symmetric while now < sym_until
    double asym_until = -1.0;  ///< heard-from while now < asym_until
    bool selected_us_mpr = false;
    std::vector<LinkAdvert> advertised;  ///< neighbor's own link table
  };

  /// slot_ value of an id with no entry.
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  const LinkEntry* find(NodeId id) const {
    if (id >= slot_.size() || slot_[id] == kNoSlot) return nullptr;
    return &links_[slot_[id]];
  }
  /// Makes a fresh entry for `id` in its ascending position and returns its
  /// index. Reuses a spare entry (and its advert buffer) when there is one.
  std::size_t insert(NodeId id);

  NodeId self_;
  double hold_time_;
  /// links_[0, live_) are the entries, ascending id — the deterministic
  /// order every fold and list walks. links_[live_, size) are spares left
  /// by expiry and clear(), kept for their advert buffers.
  std::vector<LinkEntry> links_;
  std::size_t live_ = 0;
  std::vector<std::uint32_t> slot_;  ///< id -> index into links_, or kNoSlot
  std::uint64_t view_epoch_ = 0;     ///< see view_epoch()
};

}  // namespace qolsr
