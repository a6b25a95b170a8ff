#pragma once

#include <string>

#include "graph/node_id.hpp"

namespace qolsr::net {

/// Runs one OLSR node as a real process: connects to the software switch
/// at `path`, registers as plug `id`, waits for the harness's Configure /
/// Start control frames, then runs the *unmodified* OlsrNode state machine
/// (src/sim/olsr_node) against a wall-clock Medium — `now()` is seconds
/// since the daemon started, `arm` sets a real timer served by the poll
/// loop, and broadcast/unicast emit wire frames through the switch.
/// The protocol code cannot tell it left the simulator; that is the
/// Transport seam's whole point.
///
/// Returns the process exit code: 0 after an orderly Shutdown, nonzero on
/// a connect/configure failure or a dead switch.
int run_node_daemon(const std::string& path, NodeId id);

}  // namespace qolsr::net
