#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/node_id.hpp"

namespace qolsr {

/// RFC 3626 duplicate set: remembers (originator, sequence) pairs of
/// flooded messages so each node processes and retransmits a message at
/// most once. Entries expire after `hold_time` simulated seconds.
///
/// Storage is a pooled open-addressing table (power-of-two capacity,
/// linear probing): once the table has grown to a run's high-water live
/// set, check_and_insert and expire never allocate again — the expiry
/// sweep compacts into a same-capacity spare buffer and swaps, and clear()
/// keeps the capacity for the next run. The previous unordered_map paid
/// one node allocation per recorded flood, which was the last per-packet
/// allocation on the steady-state TC forwarding path.
class DuplicateSet {
 public:
  explicit DuplicateSet(double hold_time = 30.0) : hold_time_(hold_time) {}

  /// True when the message is new; records it either way.
  bool check_and_insert(NodeId originator, std::uint16_t sequence,
                        double now);

  /// Drops expired entries. Called opportunistically; returns at once,
  /// touching no slot, while no entry is past its hold time yet.
  void expire(double now);

  /// Forgets everything — the per-run reset of a reused protocol stack.
  /// Capacity is retained.
  void clear();

  /// Recorded entries, including ones past their hold time that no expire
  /// sweep has reclaimed yet (same semantics as the map it replaced).
  std::size_t size() const { return size_; }

  /// Current slot-table capacity (tests pin that steady state never grows).
  std::size_t capacity() const { return slots_.size(); }

 private:
  struct Slot {
    std::uint64_t key = kEmptyKey;
    double expires = 0.0;
  };
  /// Real keys are (originator << 16) | sequence with 32-bit originators —
  /// always < 2^48 — so the all-ones sentinel never collides.
  static constexpr std::uint64_t kEmptyKey = ~0ULL;
  static constexpr std::size_t kMinCapacity = 64;

  static std::uint64_t key(NodeId originator, std::uint16_t sequence) {
    return (static_cast<std::uint64_t>(originator) << 16) | sequence;
  }
  /// Fibonacci multiplicative hash onto the top log2(capacity) bits.
  std::size_t bucket(std::uint64_t k, std::size_t capacity) const {
    return static_cast<std::size_t>((k * 0x9e3779b97f4a7c15ULL) >>
                                    (64 - shift_)) &
           (capacity - 1);
  }
  void rehash(std::size_t new_capacity);

  double hold_time_;
  std::vector<Slot> slots_;
  std::vector<Slot> spare_;  ///< expire()'s compaction target (same size)
  std::size_t size_ = 0;
  unsigned shift_ = 0;  ///< log2(slots_.size())
  /// Lower bound on every recorded slot's `expires` (exact after a sweep):
  /// no entry can be due while `now` has not passed it.
  double earliest_ = std::numeric_limits<double>::infinity();
};

}  // namespace qolsr
