#include "net/node_daemon.hpp"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <vector>

#include <poll.h>
#include <time.h>

#include "metrics/metric_id.hpp"
#include "net/socket.hpp"
#include "net/wire_format.hpp"
#include "olsr/selector_registry.hpp"
#include "sim/medium.hpp"
#include "sim/mutation_clock.hpp"
#include "sim/olsr_node.hpp"
#include "sim/trace.hpp"

namespace qolsr::net {

namespace {

double monotonic_now() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The wall-clock side of the Scheduler seam: the Medium a daemon's
/// OlsrNode runs against. `now()` is seconds since construction on the
/// monotonic clock; `arm` puts a {due, seq, timer} entry on the daemon's
/// min-heap (served between socket polls); broadcast/unicast write the
/// serialized OLSR packet straight into one reused wire datagram and hand
/// it to the switch. The protocol code is byte-identical to what the
/// Simulator runs — only the clock and the transport changed underneath
/// it.
class WireMedium final : public Medium {
 public:
  WireMedium(Fd& sock, const NodeSetup& setup)
      : sock_(sock), setup_(setup), start_(monotonic_now()) {
    for (const NodeSetup::Neighbor& n : setup.neighbors)
      neighbor_qos_[n.id] = n.qos;
  }

  SimTime now() const override { return monotonic_now() - start_; }

  void arm(SimTime delay, NodeTimer timer, NodeId) override {
    timers_.push({now() + delay, next_seq_++, timer});
  }

  void broadcast(NodeId from, std::span<const std::byte> bytes) override {
    send_packet(from, kBroadcastDest, bytes);
  }

  void unicast(NodeId from, NodeId to,
               std::span<const std::byte> bytes) override {
    send_packet(from, to, bytes);
  }

  const LinkQos* measured_qos(NodeId a, NodeId b) const override {
    // The daemon only knows its own radio links (the harness supplies the
    // ground truth, exactly like the Simulator hands nodes true values).
    const NodeId peer = a == setup_.id ? b : (b == setup_.id ? a : kInvalidNode);
    const auto it = neighbor_qos_.find(peer);
    return it == neighbor_qos_.end() ? nullptr : &it->second;
  }

  std::size_t node_count() const override { return setup_.node_count; }

  /// Seconds until the earliest pending timer (nullopt when none).
  std::optional<double> until_next_timer() const {
    if (timers_.empty()) return std::nullopt;
    return timers_.top().due - now();
  }

  /// Fires every timer of `node` that is due. One pass: a timer that
  /// re-arms itself (every protocol tick does) runs again only on a later
  /// pass.
  void fire_due(OlsrNode& node) {
    while (!timers_.empty() && timers_.top().due <= now()) {
      const NodeTimer timer = timers_.top().timer;
      timers_.pop();
      node.on_timer(timer);
    }
  }

 private:
  struct Timer {
    double due = 0.0;
    std::uint64_t seq = 0;  ///< FIFO among equal deadlines
    NodeTimer timer = NodeTimer::kHello;
    bool operator>(const Timer& other) const {
      return due != other.due ? due > other.due : seq > other.seq;
    }
  };

  void send_packet(NodeId from, NodeId dest,
                   std::span<const std::byte> payload) {
    encode_frame_into(datagram_, kKindPacket, from, dest, now(), payload);
    send_datagram(sock_, datagram_);
  }

  Fd& sock_;
  const NodeSetup setup_;
  double start_;
  std::map<NodeId, LinkQos> neighbor_qos_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t next_seq_ = 0;
  std::vector<std::byte> datagram_;  ///< reused transmit buffer
};

void send_control(Fd& sock, NodeId self, NodeId dest,
                  std::vector<std::byte> payload) {
  Frame f;
  f.kind = kKindControl;
  f.sender = self;
  f.dest = dest;
  f.payload = std::move(payload);
  send_datagram(sock, encode_frame(f));
}

}  // namespace

int run_node_daemon(const std::string& path, NodeId id) {
  Fd sock = connect_unix(path, 10.0);
  if (!sock.valid()) return 1;

  {
    Frame reg;
    reg.kind = kKindRegister;
    reg.sender = id;
    reg.dest = kSwitchDest;
    if (!send_datagram(sock, encode_frame(reg))) return 1;
  }

  // Phase 1: blocking wait for the harness's Configure.
  NodeSetup setup;
  for (;;) {
    const auto datagram = recv_datagram(sock);
    if (!datagram.has_value()) return 1;  // switch died before config
    const auto frame = decode_frame(*datagram);
    if (!frame.has_value() || frame->kind != kKindControl) continue;
    if (peek_control_op(frame->payload) == ControlOp::kShutdown) return 0;
    if (const auto s = decode_configure(frame->payload)) {
      setup = *s;
      break;
    }
  }
  if (setup.id != id) return 1;

  // Resolve the protocol through the same registry calls the packet
  // backend uses; unknown names are a config error, not a crash.
  const auto& registry = SelectorRegistry::builtin();
  if (!registry.contains(setup.protocol)) return 1;
  const auto metric = static_cast<MetricId>(setup.metric);
  const auto ans_selector = registry.create(setup.protocol, metric);
  // A protocol that floods on its own advertised set shares one selector
  // object between the roles, so the node selects once per recompute.
  const auto own_flooding =
      registry.floods_on_ans(setup.protocol)
          ? nullptr
          : registry.create_flooding(setup.protocol, metric);
  const AnsSelector* const flooding_selector =
      own_flooding != nullptr ? own_flooding.get() : ans_selector.get();

  NodeConfig config;
  static_cast<ProtocolTiming&>(config) = setup.timing;
  config.tc_ttl = setup.tc_ttl;
  config.data_ttl = setup.data_ttl;

  WireMedium medium(sock, setup);
  TraceStats trace;
  MutationClock mutations;
  mutations.bind(&trace);
  mutations.reset(medium.now());
  // Data forwarding is not exercised over the wire (the equivalence run
  // converges the control plane only), so the route hook is inert.
  const OlsrNode::RouteFn no_routes = [](const Graph&, NodeId, NodeId) {
    return kInvalidNode;
  };
  OlsrNode node(id, medium, trace, *flooding_selector, *ans_selector,
                no_routes, config, setup.seed);
  node.set_mutation_clock(&mutations);

  send_control(sock, id, kControllerId, encode_control(ControlOp::kReady));

  // Phase 2: the real-time event loop — timers and frames, one thread.
  // Reads go nonblocking (drained between timer deadlines); writes keep
  // effectively-blocking semantics via send_datagram's POLLOUT wait.
  set_nonblocking(sock);
  std::vector<std::byte> datagram;
  ParsedPacket packet;
  for (;;) {
    medium.fire_due(node);
    int timeout_ms = -1;
    if (const auto wait = medium.until_next_timer()) {
      timeout_ms = *wait <= 0.0
                       ? 0
                       : static_cast<int>(*wait * 1000.0) + 1;
    }
    pollfd pfd{sock.get(), POLLIN, 0};
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) continue;  // EINTR
    if (rc == 0) continue;  // timer due; top of loop fires it

    for (;;) {
      const RecvStatus st = try_recv_datagram(sock, datagram);
      if (st == RecvStatus::kWouldBlock) break;
      if (st == RecvStatus::kClosed) return 1;  // switch vanished
      const auto frame = decode_frame(datagram);
      if (!frame.has_value()) continue;

      if (frame->kind == kKindPacket) {
        node.on_packet(frame->sender,
                       parse_packet_into(frame->payload, packet) ? &packet
                                                                 : nullptr,
                       frame->payload);
        continue;
      }
      if (frame->kind != kKindControl) continue;
      switch (peek_control_op(frame->payload)) {
        case ControlOp::kStart:
          node.start();
          break;
        case ControlOp::kStatusReq: {
          StatusReport report;
          report.mutation_count = mutations.count();
          report.last_mutation = mutations.last_at();
          report.digest = node.converged_digest();
          report.flooding_size =
              static_cast<std::uint16_t>(node.flooding_mpr().size());
          report.ans_size = static_cast<std::uint16_t>(node.ans().size());
          send_control(sock, id, kControllerId, encode_status(report));
          break;
        }
        case ControlOp::kShutdown:
          return 0;
        default:
          break;
      }
    }
  }
}

}  // namespace qolsr::net
