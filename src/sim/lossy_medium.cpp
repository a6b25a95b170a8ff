#include "sim/lossy_medium.hpp"

#include "proto/messages.hpp"
#include "sim/simulator.hpp"

namespace qolsr {

namespace {
/// Domain-separates the loss stream from the node RNGs and the fault
/// (victim-drawing) stream, all of which derive from the same run seed.
constexpr std::uint64_t kLossStreamSalt = 0xa5a5a5a5a5a5a5a5ULL;
/// The wire-corruption stream: its own domain, so turning corruption on
/// never perturbs the loss draws (and vice versa).
constexpr std::uint64_t kCorruptStreamSalt = 0x6a09e667f3bcc909ULL;
}  // namespace

void LossyMedium::reset(const FaultPlan* plan, std::uint64_t seed,
                        double corrupt_rate) {
  plan_ = plan;
  rng_ = util::Rng(seed ^ kLossStreamSalt);
  corrupt_rng_ = util::Rng(seed ^ kCorruptStreamSalt);
  corrupt_rate_ = corrupt_rate;
  node_down_.assign(node_count(), 0);
  down_nodes_ = 0;
  down_links_.clear();
  link_loss_.clear();
  partitions_ = 0;
  ambient_loss_ = false;
  if (plan_ != nullptr) {
    ambient_loss_ = plan_->loss_rate > 0.0;
    for (const LinkLossSpec& l : plan_->link_loss) {
      link_loss_[link_key(l.u, l.v)] = l.rate;
      ambient_loss_ = ambient_loss_ || l.rate > 0.0;
    }
  }
}

void LossyMedium::set_link_down(NodeId u, NodeId v, bool down) {
  if (down) {
    down_links_.insert(link_key(u, v));
  } else {
    down_links_.erase(link_key(u, v));
  }
}

void LossyMedium::set_node_down(NodeId id, bool down) {
  if (id >= node_down_.size()) node_down_.resize(id + 1, 0);
  if (node_down_[id] == static_cast<char>(down ? 1 : 0)) return;
  node_down_[id] = down ? 1 : 0;
  down_nodes_ += down ? 1 : -1;
}

bool LossyMedium::blocked(NodeId from, NodeId to) const {
  if (node_down(from) || node_down(to)) return true;
  if (!down_links_.empty() && link_down(from, to)) return true;
  if (partitions_ > 0) {
    const NodeId half = static_cast<NodeId>(node_count() / 2);
    if ((from < half) != (to < half)) return true;
  }
  return false;
}

bool LossyMedium::lost(NodeId from, NodeId to) {
  if (!ambient_loss_) return false;
  double rate = plan_ != nullptr ? plan_->loss_rate : 0.0;
  if (!link_loss_.empty()) {
    const auto it = link_loss_.find(link_key(from, to));
    if (it != link_loss_.end()) rate = it->second;
  }
  if (rate <= 0.0) return false;
  return rate >= 1.0 || rng_.uniform01() < rate;
}

FramePool::Id LossyMedium::maybe_corrupt(FramePool::Id frame) {
  FramePool& frames = sim_->frames();
  if (frames.bytes(frame).empty() ||
      corrupt_rng_.uniform01() >= corrupt_rate_)
    return frame;
  // The shared frame may still be in flight to other receivers — corrupt
  // a private copy, never the original.
  const FramePool::Id copy = frames.acquire(frames.bytes(frame));
  const std::span<std::byte> flipped = frames.mutable_bytes(copy);
  const std::size_t bit_count = flipped.size() * 8;
  const std::uint64_t flips = 1 + corrupt_rng_.uniform_int(3);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::uint64_t bit = corrupt_rng_.uniform_int(bit_count);
    flipped[bit / 8] ^= static_cast<std::byte>(1u << (bit % 8));
  }
  trace_->frames_corrupted += 1;
  const std::span<const std::byte> original = frames.bytes(frame);
  if (is_data_frame(original)) {
    // Charge the journey from the pre-flip payload id (the flip may have
    // landed in that very field). Only read when the probe never arrives.
    const auto it = trace_->journeys.find(peek_data_payload_id(original));
    if (it != trace_->journeys.end() &&
        it->second.drop == TraceStats::Journey::Drop::kNone)
      it->second.drop = TraceStats::Journey::Drop::kMalformed;
  }
  return copy;
}

SimTime LossyMedium::now() const { return sim_->queue().now(); }

void LossyMedium::arm(SimTime delay, NodeTimer timer, NodeId node) {
  sim_->arm(delay, timer, node);
}

const LinkQos* LossyMedium::measured_qos(NodeId a, NodeId b) const {
  // Link-quality *measurement* is outside the paper's scope (the ideal-MAC
  // assumption): nodes read the true value even on a lossy link. Loss
  // degrades what they learn by dropping the frames that carry it.
  return sim_->network().edge_qos(a, b);
}

std::size_t LossyMedium::node_count() const {
  return sim_->network().node_count();
}

void LossyMedium::broadcast(NodeId from, std::span<const std::byte> bytes) {
  // The fan-out iterates ground-truth neighbors in sorted order whether or
  // not faults are active, so the gate draws (and the event sequence) are
  // deterministic — and with no fault source active the loop is exactly
  // the ideal medium's.
  FramePool& frames = sim_->frames();
  const FramePool::Id frame = frames.acquire(bytes);
  const bool clean = !impaired();
  if (clean && corrupt_rate_ <= 0.0 && !sim_->contention_active()) {
    // Every neighbor receives: the fan-out reads them from the network
    // at dispatch, so no receiver list is built at all.
    sim_->deliver_fanout(from, frame);
    frames.release(frame);
    return;
  }
  scratch_receivers_.clear();
  for (const Edge& e : sim_->network().neighbors(from)) {
    if (!clean) {
      if (blocked(from, e.to)) {
        trace_->frames_blocked += 1;
        continue;
      }
      if (lost(from, e.to)) {
        trace_->frames_lost += 1;
        continue;
      }
    }
    scratch_receivers_.push_back(e.to);
  }
  if (corrupt_rate_ > 0.0) {
    // Each leg draws its own corruption gate, and a corrupted leg carries
    // its own flipped copy — those must be delivered individually. The
    // untouched majority still shares the batched fan-out (same delivery
    // timestamp), so a small corrupt rate keeps near-fast-path event cost
    // instead of reverting every broadcast to one event per neighbor.
    scratch_clean_.clear();
    for (const NodeId to : scratch_receivers_) {
      const FramePool::Id leg = maybe_corrupt(frame);
      if (leg == frame && !sim_->contention_active()) {
        scratch_clean_.push_back(to);
      } else {
        sim_->deliver(from, to, leg);
      }
      if (leg != frame) frames.release(leg);
    }
    if (!scratch_clean_.empty()) {
      frames.set_receivers(frame, scratch_clean_);
      sim_->deliver_fanout(from, frame);
    }
  } else if (sim_->contention_active()) {
    // Per-leg delivery: each leg pays its own queueing delay (or drop).
    for (const NodeId to : scratch_receivers_) sim_->deliver(from, to, frame);
  } else {
    // All surviving legs share one delivery time, so the whole fan-out is
    // batched into a single event — equivalent ordering (the per-leg
    // events would hold contiguous sequence numbers at the same time) at
    // a fraction of the scheduling cost.
    frames.set_receivers(frame, scratch_receivers_);
    sim_->deliver_fanout(from, frame);
  }
  frames.release(frame);
}

void LossyMedium::unicast(NodeId from, NodeId to,
                          std::span<const std::byte> bytes) {
  if (!sim_->network().has_edge(from, to)) return;  // out of range: lost
  if (impaired()) {
    if (blocked(from, to)) {
      trace_->frames_blocked += 1;
      return;
    }
    if (lost(from, to)) {
      trace_->frames_lost += 1;
      return;
    }
  }
  FramePool& frames = sim_->frames();
  const FramePool::Id frame = frames.acquire(bytes);
  const FramePool::Id leg =
      corrupt_rate_ > 0.0 ? maybe_corrupt(frame) : frame;
  sim_->deliver(from, to, leg);
  if (leg != frame) frames.release(leg);
  frames.release(frame);
}

}  // namespace qolsr
