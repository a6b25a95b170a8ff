#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/node_id.hpp"

namespace qolsr {

using SimTime = double;

/// The packet simulator's event vocabulary. The first three are a node's
/// protocol timers (numerically equal to NodeTimer, scheduler.hpp); the
/// frame kinds refer to a pooled frame by index; kCallback runs a closure
/// the queue keeps in a reused slot (fault heals, traffic arrivals, tests).
enum class EventKind : std::uint8_t {
  kHelloTick,      ///< node's HELLO timer
  kTcTick,         ///< node's TC timer
  kTopologyPurge,  ///< node's topology-base expiry timer
  kFanOut,         ///< frame from `from` to its fan-out receivers
  kDeliver,        ///< frame from `from` to the single receiver `node`
  kCallback,       ///< closure in callback slot `slot`
};

/// One scheduled event: a plain record, so pushing, popping and moving it
/// through the heap never allocates or runs a closure's copy.
struct Event {
  SimTime time = 0.0;
  std::uint64_t sequence = 0;
  EventKind kind = EventKind::kCallback;
  NodeId node = kInvalidNode;  ///< timer owner, or a delivery's receiver
  NodeId from = kInvalidNode;  ///< a frame's sender
  std::uint32_t slot = 0;      ///< frame index, or callback slot
};

/// Deterministic discrete-event core. Events at equal times fire in
/// scheduling order (a monotone sequence number breaks ties), so a seeded
/// simulation replays identically. Every kind but kCallback is handed to
/// the dispatcher, which owns what the record refers to.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Receives every non-callback event as it fires.
  class Dispatcher {
   public:
    virtual void dispatch(const Event& event) = 0;

   protected:
    ~Dispatcher() = default;
  };

  explicit EventQueue(Dispatcher* dispatcher = nullptr)
      : dispatcher_(dispatcher) {}

  SimTime now() const { return now_; }

  /// Schedules a typed event for the dispatcher.
  void push(SimTime time, EventKind kind, NodeId node,
            NodeId from = kInvalidNode, std::uint32_t slot = 0);

  void schedule_at(SimTime time, Callback callback);
  void schedule_in(SimTime delay, Callback callback) {
    schedule_at(now_ + delay, std::move(callback));
  }

  /// Runs events until the queue empties or the horizon is reached. The
  /// clock ends at `horizon` even if the queue drained earlier.
  void run_until(SimTime horizon);

  bool empty() const { return events_.empty(); }
  std::size_t pending() const { return events_.size(); }
  std::uint64_t processed() const { return processed_; }

  /// Drops every pending event and rewinds the clock to 0 — the batch-run
  /// reset. Discarding the queued callbacks (which capture the previous
  /// run's nodes) before those nodes are reset is what makes per-run reuse
  /// of a Simulator safe. Keeps the heap's and the slots' capacity.
  void reset();

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.sequence > b.sequence;
    }
  };

  Dispatcher* dispatcher_;
  SimTime now_ = 0.0;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t processed_ = 0;
  /// Binary heap under Later (std::push_heap/pop_heap — the operations
  /// std::priority_queue wraps) of plain records.
  std::vector<Event> events_;
  /// Callback slots: a fired callback is moved out and its slot recycled,
  /// so a steady stream of closures reuses the same std::function objects.
  std::vector<Callback> callbacks_;
  std::vector<std::uint32_t> free_callbacks_;
};

}  // namespace qolsr
