#pragma once

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/frame_pool.hpp"
#include "sim/medium.hpp"
#include "sim/trace.hpp"
#include "util/rng.hpp"

namespace qolsr {

class Simulator;

/// The fault layer of the packet backend: a Medium decorator between the
/// protocol nodes and the Simulator's ideal delivery core. Every frame —
/// broadcast fan-out leg or unicast — passes three gates before it is
/// scheduled for delivery:
///
///   1. up/down overlay: frames from or to a crashed node, over a downed
///      link (flap incidents, Simulator::fail_link), or across an active
///      partition boundary are suppressed (trace.frames_blocked);
///   2. Bernoulli loss: the frame is dropped with the link's loss rate
///      (FaultPlan per-link override, else the global rate), drawn from a
///      dedicated RNG seeded per run (trace.frames_lost);
///   3. otherwise it is handed to Simulator::deliver unchanged (or, on
///      the uncontended path, batched into one Simulator::deliver_fanout).
///
/// The overlay never mutates the ground-truth Graph — that is what lets
/// the Simulator borrow it const — and when no fault source is active the
/// decorator is contractually invisible: gate checks reduce to one flag
/// test, no random numbers are drawn, and event order is byte-identical
/// to the pre-fault-engine medium.
class LossyMedium final : public Medium {
 public:
  explicit LossyMedium(Simulator& sim, TraceStats& trace)
      : sim_(&sim), trace_(&trace) {}

  /// Per-run (re)configuration: binds the plan (nullptr = fault-free),
  /// reseeds the loss and corruption RNGs, and clears all overlay state.
  /// The plan is borrowed and must stay alive until the next reset.
  /// `corrupt_rate` is the adversary engine's wire-corruption probability
  /// per delivered frame (0 = the gate is contractually invisible: no
  /// draws, fan-out batching preserved).
  void reset(const FaultPlan* plan, std::uint64_t seed,
             double corrupt_rate = 0.0);

  // ---- overlay state (driven by Simulator::inject / fail_link) ----------
  void set_link_down(NodeId u, NodeId v, bool down);
  bool link_down(NodeId u, NodeId v) const {
    return down_links_.count(link_key(u, v)) != 0;
  }
  void set_node_down(NodeId id, bool down);
  bool node_down(NodeId id) const {
    return id < node_down_.size() && node_down_[id] != 0;
  }
  /// Partitions nest: each active partition blocks frames between the two
  /// id-halves of the network (u < n/2 vs. the rest).
  void add_partition(int delta) { partitions_ += delta; }
  bool partitioned() const { return partitions_ > 0; }

  /// Any reason left for a frame not to be delivered verbatim?
  bool impaired() const {
    return ambient_loss_ || !down_links_.empty() || down_nodes_ > 0 ||
           partitions_ > 0;
  }

  // ---- Medium (what the protocol nodes see) -----------------------------
  SimTime now() const override;
  void arm(SimTime delay, NodeTimer timer, NodeId node) override;
  void broadcast(NodeId from, std::span<const std::byte> bytes) override;
  void unicast(NodeId from, NodeId to,
               std::span<const std::byte> bytes) override;
  const LinkQos* measured_qos(NodeId a, NodeId b) const override;
  std::size_t node_count() const override;

 private:
  static std::uint64_t link_key(NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }
  bool blocked(NodeId from, NodeId to) const;
  /// Draws the Bernoulli loss gate for one delivery. Zero-rate links draw
  /// nothing, so overlay-only faults (fail_link, crash) stay RNG-silent.
  bool lost(NodeId from, NodeId to);
  /// Draws the wire-corruption gate for one surviving delivery of pooled
  /// `frame`: with probability `corrupt_rate_` returns a new frame (one
  /// hold, the caller's) holding a copy with 1-3 seeded bit flips — the
  /// receiver still gets it; its hardened parser decides the fate — else
  /// `frame` itself. Data frames are fate-marked kMalformed from the
  /// *pre-flip* payload id, so a corrupted probe that dies is charged to
  /// corruption, not the medium.
  FramePool::Id maybe_corrupt(FramePool::Id frame);

  Simulator* sim_;
  TraceStats* trace_;
  const FaultPlan* plan_ = nullptr;
  util::Rng rng_{1};
  util::Rng corrupt_rng_{1};
  double corrupt_rate_ = 0.0;
  bool ambient_loss_ = false;  ///< plan has a nonzero loss source
  std::vector<char> node_down_;
  std::size_t down_nodes_ = 0;
  std::unordered_set<std::uint64_t> down_links_;
  std::unordered_map<std::uint64_t, double> link_loss_;
  int partitions_ = 0;
  /// Surviving broadcast receivers, reused across calls (an impaired
  /// fan-out hands this subset to its frame instead of scheduling one
  /// event per leg).
  std::vector<NodeId> scratch_receivers_;
  /// Uncorrupted subset of a corrupt-gated fan-out (same reuse rationale).
  std::vector<NodeId> scratch_clean_;
};

}  // namespace qolsr
