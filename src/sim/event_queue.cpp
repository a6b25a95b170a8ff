#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace qolsr {

void EventQueue::push(SimTime time, EventKind kind, NodeId node, NodeId from,
                      std::uint32_t slot) {
  assert(time >= now_ && "cannot schedule into the past");
  events_.push_back({time, next_sequence_++, kind, node, from, slot});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

void EventQueue::schedule_at(SimTime time, Callback callback) {
  std::uint32_t slot = 0;
  if (free_callbacks_.empty()) {
    slot = static_cast<std::uint32_t>(callbacks_.size());
    callbacks_.push_back(std::move(callback));
  } else {
    slot = free_callbacks_.back();
    free_callbacks_.pop_back();
    callbacks_[slot] = std::move(callback);
  }
  push(time, EventKind::kCallback, kInvalidNode, kInvalidNode, slot);
}

void EventQueue::run_until(SimTime horizon) {
  while (!events_.empty() && events_.front().time <= horizon) {
    std::pop_heap(events_.begin(), events_.end(), Later{});
    const Event event = events_.back();
    events_.pop_back();
    now_ = event.time;
    ++processed_;
    if (event.kind == EventKind::kCallback) {
      // Moved out first: the callback may schedule more, growing the slots.
      Callback callback = std::move(callbacks_[event.slot]);
      free_callbacks_.push_back(event.slot);
      callback();
    } else {
      assert(dispatcher_ != nullptr && "typed event without a dispatcher");
      dispatcher_->dispatch(event);
    }
  }
  now_ = horizon;
}

void EventQueue::reset() {
  events_.clear();
  callbacks_.clear();
  free_callbacks_.clear();
  now_ = 0.0;
  next_sequence_ = 0;
  processed_ = 0;
}

}  // namespace qolsr
