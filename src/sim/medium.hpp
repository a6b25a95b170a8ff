#pragma once

#include <cstddef>
#include <span>

#include "graph/node_id.hpp"
#include "metrics/link_qos.hpp"
#include "sim/scheduler.hpp"

namespace qolsr {

/// What a protocol node sees of the outside world: a clock + timers (the
/// Scheduler seam — virtual time in the Simulator, wall-clock time in the
/// wire daemon) and an ideal MAC (paper §IV-A: "no interferences and no
/// packet collisions"). Implemented by the Simulator and by the net/ wire
/// transport; mocked in unit tests.
///
/// Frames are handed over as the caller's bytes, valid only for the call:
/// the Simulator copies them into a pooled frame shared by every delivery
/// of the transmission, the daemon writes them straight into its datagram.
/// So a node may serialize every frame into one reused buffer.
class Medium : public Scheduler {
 public:
  /// Delivers `bytes` to every node within radio range of `from` after the
  /// propagation delay. Loss-free and collision-free.
  virtual void broadcast(NodeId from, std::span<const std::byte> bytes) = 0;

  /// Delivers to one in-range neighbor (data forwarding). Packets to
  /// out-of-range nodes vanish (counted by the caller as drops).
  virtual void unicast(NodeId from, NodeId to,
                       std::span<const std::byte> bytes) = 0;

  /// Ground-truth measured QoS of the link (a,b); nullptr when out of
  /// range. Link-quality measurement is outside the paper's scope, so the
  /// simulator hands nodes the true value.
  virtual const LinkQos* measured_qos(NodeId a, NodeId b) const = 0;

  virtual std::size_t node_count() const = 0;
};

}  // namespace qolsr
