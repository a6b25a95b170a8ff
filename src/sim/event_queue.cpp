#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace qolsr {

void EventQueue::schedule_at(SimTime time, Callback callback) {
  assert(time >= now_ && "cannot schedule into the past");
  events_.push_back({time, next_sequence_++, std::move(callback)});
  std::push_heap(events_.begin(), events_.end(), Later{});
}

void EventQueue::run_until(SimTime horizon) {
  while (!events_.empty() && events_.front().time <= horizon) {
    std::pop_heap(events_.begin(), events_.end(), Later{});
    Event event = std::move(events_.back());
    events_.pop_back();
    now_ = event.time;
    ++processed_;
    event.callback();
  }
  now_ = horizon;
}

}  // namespace qolsr
