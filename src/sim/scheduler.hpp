#pragma once

#include <cstdint>

#include "graph/node_id.hpp"
#include "sim/event_queue.hpp"

namespace qolsr {

/// A protocol node's timers — everything the protocol ever schedules.
/// Numerically equal to the first EventKind values, so the Simulator
/// pushes a timer as a plain event record.
enum class NodeTimer : std::uint8_t {
  kHello = static_cast<std::uint8_t>(EventKind::kHelloTick),
  kTc = static_cast<std::uint8_t>(EventKind::kTcTick),
  kTopologyPurge = static_cast<std::uint8_t>(EventKind::kTopologyPurge),
};

/// A clock plus typed timers — the one timer interface both worlds
/// implement, so protocol code that schedules ticks cannot tell (and must
/// not care) which clock is driving it:
///  - the discrete-event Simulator: `now()` is the event queue's virtual
///    time and `arm` pushes a timer event record on its heap;
///  - the wire daemon (src/net): `now()` is wall-clock seconds since the
///    process started and `arm` puts a {due, seq, timer} entry on its
///    poll loop's heap.
/// Either side calls OlsrNode::on_timer(timer) on the node when it fires.
/// Seconds are seconds in both cases; only their passage differs.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  virtual SimTime now() const = 0;
  virtual void arm(SimTime delay, NodeTimer timer, NodeId node) = 0;
};

}  // namespace qolsr
