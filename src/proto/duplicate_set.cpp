#include "proto/duplicate_set.hpp"

#include <algorithm>

namespace qolsr {

bool DuplicateSet::check_and_insert(NodeId originator, std::uint16_t sequence,
                                    double now) {
  // Grow before probing so the table always has empty slots (load is kept
  // under 3/4). Growth only happens while the recorded set is still
  // climbing toward its high-water mark; once expire() keeps up with the
  // arrival rate the capacity is stable and inserts never allocate.
  if (slots_.empty())
    rehash(kMinCapacity);
  else if ((size_ + 1) * 4 > slots_.size() * 3)
    rehash(slots_.size() * 2);

  const std::uint64_t k = key(originator, sequence);
  std::size_t i = bucket(k, slots_.size());
  while (true) {
    Slot& slot = slots_[i];
    if (slot.key == kEmptyKey) {
      slot.key = k;
      slot.expires = now + hold_time_;
      earliest_ = std::min(earliest_, slot.expires);
      ++size_;
      return true;
    }
    if (slot.key == k) {
      if (slot.expires < now) {
        // Expired entry: the sequence space wrapped; treat as new. No
        // earliest_ update: it is already at most the passed expiry.
        slot.expires = now + hold_time_;
        return true;
      }
      return false;
    }
    i = (i + 1) & (slots_.size() - 1);
  }
}

void DuplicateSet::expire(double now) {
  // Nothing is due: the sweep would keep every entry. With a 30 s hold and
  // a sweep per TC interval, this is nearly every call.
  if (size_ == 0 || !(earliest_ < now)) return;
  // earliest_ is a lower bound only (a wrapped re-arm raises an expiry it
  // does not track): a read-only pass makes it exact and confirms that an
  // entry is really due before the compaction touches the spare.
  double earliest = std::numeric_limits<double>::infinity();
  bool due = false;
  for (const Slot& slot : slots_) {
    if (slot.key == kEmptyKey) continue;
    if (slot.expires < now)
      due = true;
    else
      earliest = std::min(earliest, slot.expires);
  }
  earliest_ = earliest;
  if (!due) return;
  // Linear probing cannot erase in place without breaking probe chains;
  // compact the live entries into the same-capacity spare table and swap.
  // Steady state: zero allocations (the spare persists between sweeps).
  if (spare_.size() != slots_.size())
    spare_.assign(slots_.size(), Slot{});
  else
    for (Slot& slot : spare_) slot = Slot{};
  std::size_t live = 0;
  for (const Slot& slot : slots_) {
    if (slot.key == kEmptyKey || slot.expires < now) continue;
    std::size_t i = bucket(slot.key, spare_.size());
    while (spare_[i].key != kEmptyKey) i = (i + 1) & (spare_.size() - 1);
    spare_[i] = slot;
    ++live;
  }
  slots_.swap(spare_);
  size_ = live;
}

void DuplicateSet::clear() {
  for (Slot& slot : slots_) slot = Slot{};
  size_ = 0;
  earliest_ = std::numeric_limits<double>::infinity();
}

void DuplicateSet::rehash(std::size_t new_capacity) {
  unsigned shift = 0;
  while ((1ULL << shift) < new_capacity) ++shift;
  std::vector<Slot> grown(new_capacity);
  shift_ = shift;
  for (const Slot& slot : slots_) {
    if (slot.key == kEmptyKey) continue;
    std::size_t i = bucket(slot.key, grown.size());
    while (grown[i].key != kEmptyKey) i = (i + 1) & (grown.size() - 1);
    grown[i] = slot;
  }
  slots_ = std::move(grown);
  // The spare is re-sized lazily by the next expire sweep.
}

}  // namespace qolsr
