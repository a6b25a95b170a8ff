#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "graph/node_id.hpp"

namespace qolsr {

/// The Simulator's in-flight frames: one immutable byte buffer per
/// transmission, shared by every delivery event it fans out to and
/// recycled when the last of them has fired. Slots keep their buffers'
/// capacity, so once the pool has reached a run's high-water mark of
/// frames in flight, transmitting allocates nothing.
///
/// Lifetime is a reference count: `acquire` hands the caller one hold,
/// every event scheduled on the frame takes another (`retain`), and each
/// `release` drops one; the slot returns to the free list at zero. A
/// frame therefore lives until its last event has been dispatched, and a
/// transmission whose every leg was dropped frees it when the caller lets
/// go of its hold.
///
/// Slots live in a deque, so a slot's bytes stay put while handlers
/// dispatched from it acquire new frames.
class FramePool {
 public:
  using Id = std::uint32_t;

  /// A fresh frame holding a copy of `bytes`, with one hold for the caller
  /// and no receiver subset (a fan-out reaches every neighbor).
  Id acquire(std::span<const std::byte> bytes) {
    Id id = 0;
    if (free_.empty()) {
      id = static_cast<Id>(slots_.size());
      slots_.emplace_back();
    } else {
      id = free_.back();
      free_.pop_back();
    }
    Slot& slot = slots_[id];
    // A slot that must grow grows to the largest frame seen, so every slot
    // reaches the run's largest frame after one growth instead of creeping
    // up as frames of mixed sizes rotate through the free list.
    largest_ = std::max(largest_, bytes.size());
    if (slot.bytes.capacity() < bytes.size()) slot.bytes.reserve(largest_);
    slot.bytes.assign(bytes.begin(), bytes.end());
    slot.subset = false;
    slot.refs = 1;
    return id;
  }

  void retain(Id id) { ++slots_[id].refs; }
  void release(Id id) {
    if (--slots_[id].refs == 0) free_.push_back(id);
  }

  std::span<const std::byte> bytes(Id id) const { return slots_[id].bytes; }
  /// Writable bytes — only for a frame no event refers to yet (the
  /// corruption gate flips bits in its private copy).
  std::span<std::byte> mutable_bytes(Id id) { return slots_[id].bytes; }

  /// Restricts the frame's fan-out to `receivers` (the legs that survived
  /// the fault gates), copied into the slot's reused list.
  void set_receivers(Id id, std::span<const NodeId> receivers) {
    Slot& slot = slots_[id];
    slot.receivers.assign(receivers.begin(), receivers.end());
    slot.subset = true;
  }
  bool has_subset(Id id) const { return slots_[id].subset; }
  std::span<const NodeId> receivers(Id id) const {
    return slots_[id].receivers;
  }

  /// Frees every slot — the batch-run reset, after the event queue that
  /// held the references was cleared. Keeps every buffer.
  void clear() {
    free_.clear();
    for (std::size_t id = slots_.size(); id-- > 0;) {
      slots_[id].refs = 0;
      free_.push_back(static_cast<Id>(id));
    }
  }

 private:
  struct Slot {
    std::vector<std::byte> bytes;
    std::vector<NodeId> receivers;
    bool subset = false;
    std::uint32_t refs = 0;
  };

  std::deque<Slot> slots_;
  std::vector<Id> free_;
  std::size_t largest_ = 0;  ///< bytes of the largest frame acquired
};

}  // namespace qolsr
