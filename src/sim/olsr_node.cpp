#include "sim/olsr_node.hpp"

#include <algorithm>
#include <limits>

#include "graph/local_view.hpp"
#include "olsr/selection_workspace.hpp"
#include "routing/advertised_topology.hpp"
#include "util/digest.hpp"
#include "util/log.hpp"

namespace qolsr {

namespace {
/// Domain-separates a misbehaving node's lie-parameter stream from its
/// protocol RNG (0x517cc1b727220a95), the loss stream and the fault
/// stream — all derive from the same run seed, and honest nodes never
/// draw from this one.
constexpr std::uint64_t kAdversaryNodeSalt = 0x3c6ef372fe94f82bULL;

/// Nudge used when a topology purge event lands exactly on an entry's
/// hold-time deadline: soft state is valid *through* its deadline (the
/// validity reads use `expires < now`), so the purge must run strictly
/// after it — one simulated nanosecond, far below any protocol timescale.
constexpr double kPurgeLag = 1e-9;

/// route_cache_ sentinel for "no memoized next hop yet this epoch". Cannot
/// collide with a route result: next hops are deployment ids (< n) or
/// kInvalidNode, never this value.
constexpr NodeId kRouteNotCached = kInvalidNode - 1;

/// Deployment-range sanitation of a structurally valid parse: node ids in
/// this simulation are dense 0..n-1, so a frame naming any id outside the
/// deployment can only be wire corruption (or a hostile sender) — and must
/// be rejected *before* it reaches tables sized or indexed by node id (a
/// bit-flipped 32-bit neighbor id can otherwise demand a multi-gigabyte
/// local-view scratch). Honest frames always pass, so the check never
/// perturbs an adversary-free run.
bool in_deployment(const ParsedPacket& packet, std::size_t n) {
  if (packet.header.originator >= n) return false;
  if (packet.hello.has_value()) {
    if (packet.hello->originator >= n) return false;
    for (const LinkAdvert& a : packet.hello->links)
      if (a.neighbor >= n) return false;
  }
  if (packet.tc.has_value()) {
    if (packet.tc->originator >= n) return false;
    for (const LinkAdvert& a : packet.tc->advertised)
      if (a.neighbor >= n) return false;
  }
  if (packet.data.has_value() &&
      (packet.data->source >= n || packet.data->destination >= n))
    return false;
  return true;
}

/// Serialize and selection scratch shared by every node an event loop on
/// this thread drives — all the nodes of a Simulator (and of every
/// Simulator the thread runs after it), or a daemon's one node. A node
/// touches it only inside one of its own handlers and no two handlers run
/// at once, so per-node copies would only multiply the heap; and a
/// thread's scratch outlives the short-lived simulators an eval worker
/// builds (the wire backend's twin is one per protocol), so their views
/// and selection workspaces are sized once, not once per simulator.
struct NodeScratch {
  std::vector<std::byte> tx;      ///< every frame a node transmits
  HelloMessage hello;             ///< HELLO under construction
  TcMessage tc;                   ///< TC under construction
  LocalViewBuilder view_builder;  ///< recompute_selection's view build
  LocalView view;
  SelectionWorkspace selection;
  std::vector<NodeId> flooding;  ///< fresh selections, before the compare
  std::vector<NodeId> ans;
};

NodeScratch& scratch() {
  thread_local NodeScratch shared;
  return shared;
}

}  // namespace

OlsrNode::OlsrNode(NodeId id, Medium& medium, TraceStats& trace,
                   const AnsSelector& flooding_selector,
                   const AnsSelector& ans_selector, const RouteFn& route_fn,
                   const NodeConfig& config, std::uint64_t seed)
    : id_(id),
      medium_(medium),
      trace_(trace),
      flooding_selector_(&flooding_selector),
      ans_selector_(&ans_selector),
      route_fn_(&route_fn),
      config_(config),
      rng_(seed ^ (0x517cc1b727220a95ULL * (id + 1))),
      tables_(id) {
  tables_.reset(config.neighbor_hold, medium_.node_count());
  topology_.reset(config.topology_hold, medium_.node_count());
}

void OlsrNode::reset(const AnsSelector& flooding_selector,
                     const AnsSelector& ans_selector, const RouteFn& route_fn,
                     const NodeConfig& config, std::uint64_t seed) {
  flooding_selector_ = &flooding_selector;
  ans_selector_ = &ans_selector;
  route_fn_ = &route_fn;
  config_ = config;
  rng_ = util::Rng(seed ^ (0x517cc1b727220a95ULL * (id_ + 1)));
  // Tables keep their storage across runs; they are sized for this
  // deployment's ids, which in_deployment keeps every frame within.
  tables_.reset(config.neighbor_hold, medium_.node_count());
  topology_.reset(config.topology_hold, medium_.node_count());
  duplicates_.clear();
  flooding_mpr_.clear();
  ans_.clear();
  selected_epoch_ = kStaleSelection;
  ansn_ = 0;
  last_advertised_.clear();
  next_sequence_ = 0;
  alive_ = true;
  knowledge_valid_ = false;
  // Pending purge events died with the previous run's event queue (the
  // Simulator clears it before resetting nodes).
  purge_pending_ = false;
  mutations_ = nullptr;
  role_ = AdversaryKind::kHonest;
  monitor_ = nullptr;
  phantom_targets_.clear();
  phantoms_drawn_ = false;
  captured_valid_ = false;
  replay_count_ = 0;
}

void OlsrNode::set_role(AdversaryKind role, std::uint64_t seed) {
  role_ = role;
  adv_rng_ = util::Rng(seed ^ (kAdversaryNodeSalt * (id_ + 1)));
}

void OlsrNode::crash() {
  alive_ = false;
  // All soft state is gone; ansn_ and next_sequence_ deliberately survive
  // (see the header — the RFC's stable-storage assumption).
  tables_.clear();
  topology_.clear();
  duplicates_.clear();
  flooding_mpr_.clear();
  ans_.clear();
  selected_epoch_ = kStaleSelection;
  last_advertised_.clear();
  knowledge_valid_ = false;
  note_mutation();  // the alive bit (and the wiped tables) are state
}

void OlsrNode::restart() {
  alive_ = true;
  knowledge_valid_ = false;
  note_mutation();  // the alive bit is state
}

void OlsrNode::note_mutation() {
  if (mutations_ != nullptr) mutations_->note(medium_.now());
}

void OlsrNode::start() {
  medium_.arm(rng_.uniform(0.0, config_.jitter), NodeTimer::kHello, id_);
  // TCs start after one HELLO round so there is a neighborhood to advertise.
  medium_.arm(config_.hello_interval + rng_.uniform(0.0, config_.jitter),
              NodeTimer::kTc, id_);
}

void OlsrNode::on_timer(NodeTimer timer) {
  switch (timer) {
    case NodeTimer::kHello:
      hello_tick();
      return;
    case NodeTimer::kTc:
      tc_tick();
      return;
    case NodeTimer::kTopologyPurge:
      topology_purge_tick();
      return;
  }
}

void OlsrNode::build_hello_links(std::vector<LinkAdvert>& links) const {
  links.clear();
  // Every heard neighbor is listed: asymmetric entries complete the two-way
  // handshake, symmetric ones carry the QoS table that builds neighbors'
  // 2-hop views, and MPR status tells them to forward our floods.
  tables_.for_each_heard(
      [this, &links](NodeId neighbor, const LinkQos& qos, bool symmetric) {
        LinkStatus status = LinkStatus::kAsymmetric;
        if (symmetric) {
          status = std::binary_search(flooding_mpr_.begin(),
                                      flooding_mpr_.end(), neighbor)
                       ? LinkStatus::kMpr
                       : LinkStatus::kSymmetric;
        }
        links.push_back({neighbor, status, qos});
      });
}

void OlsrNode::recompute_selection() {
  // The selectors are pure functions of the local view, and the view only
  // changes when the tables' epoch moves: an unchanged epoch would
  // reproduce the held sets exactly (so no mutation note and no ANSN bump
  // either), and the recompute is skipped.
  if (selected_epoch_ == tables_.view_epoch()) return;
  selected_epoch_ = tables_.view_epoch();
  NodeScratch& s = scratch();
  tables_.build_local_view_into(s.view_builder, s.view);
  std::vector<NodeId>& flooding = s.flooding;
  std::vector<NodeId>& ans = s.ans;
  flooding_selector_->select_into(s.view, s.selection, flooding);
  // A protocol that floods on its own advertised set selects once.
  if (ans_selector_ == flooding_selector_) {
    ans = flooding;
  } else {
    ans_selector_->select_into(s.view, s.selection, ans);
  }
  // Selection output is digest-visible state: report a change the instant
  // it is computed. (It does not touch the knowledge cache — that view is
  // the TC topology plus own symmetric links, independent of MPR/ANS.)
  if (flooding == flooding_mpr_ && ans == ans_) return;
  note_mutation();
  flooding_mpr_ = flooding;
  ans_ = ans;
  if (ans_ != last_advertised_) {
    ++ansn_;
    last_advertised_ = ans_;
  }
}

void OlsrNode::hello_tick() {
  // A crashed node's timer wheel keeps spinning (the reschedule below and
  // its jitter draw happen regardless), but the protocol body is skipped.
  if (alive_) {
    const double now = medium_.now();
    const NeighborTables::Outcome lapsed = tables_.expire(now);
    if (lapsed.digest_changed) note_mutation();
    if (lapsed.view_changed) knowledge_valid_ = false;
    recompute_selection();

    NodeScratch& s = scratch();
    s.hello.originator = id_;
    build_hello_links(s.hello.links);
    PacketHeader header;
    header.type = MessageType::kHello;
    header.originator = id_;
    header.sequence = next_sequence_++;
    header.ttl = 1;  // HELLOs are never forwarded
    serialize_into(s.tx, header, s.hello);
    trace_.hello_sent += 1;
    trace_.control_bytes += s.tx.size();
    medium_.broadcast(id_, s.tx);
  }

  medium_.arm(config_.hello_interval + rng_.uniform(0.0, config_.jitter),
              NodeTimer::kHello, id_);
}

void OlsrNode::tc_tick() {
  if (!alive_) {
    medium_.arm(config_.tc_interval + rng_.uniform(0.0, config_.jitter),
                NodeTimer::kTc, id_);
    return;
  }
  const double now = medium_.now();
  const NeighborTables::Outcome lapsed = tables_.expire(now);
  if (lapsed.digest_changed) note_mutation();
  if (lapsed.view_changed) knowledge_valid_ = false;
  // Topology-base expiry is event-driven (topology_purge_tick), not tied
  // to this tick anymore; the duplicate set keeps its opportunistic sweep
  // here (its entries are not digest-visible state).
  duplicates_.expire(now);
  recompute_selection();

  // A liar always has something to advertise — its fabrications.
  if (!ans_.empty() || role_ == AdversaryKind::kLiar) {
    NodeScratch& s = scratch();
    TcMessage& tc = s.tc;
    tc.originator = id_;
    tc.ansn = ansn_;
    tc.advertised.clear();
    for (NodeId neighbor : ans_) {
      const LinkQos* qos = tables_.link_qos(neighbor);
      if (qos == nullptr) continue;
      tc.advertised.push_back({neighbor, LinkStatus::kSymmetric, *qos});
    }
    if (role_ == AdversaryKind::kLiar) lie_in_tc(tc);
    PacketHeader header;
    header.type = MessageType::kTc;
    header.originator = id_;
    header.sequence = next_sequence_++;
    header.ttl = config_.tc_ttl;
    // Our own advertisement is part of the topology we route on.
    const TopologyBase::TcOutcome applied = topology_.apply_tc(tc, now);
    if (applied.links_changed) note_mutation();
    if (applied.view_changed) knowledge_valid_ = false;
    if (applied.fresh) schedule_topology_purge();
    // Record our own flood so re-broadcasts that echo back are dropped.
    duplicates_.check_and_insert(id_, header.sequence, now);
    if (monitor_ != nullptr) monitor_->record_tc_emission(id_, tc.ansn, now);
    serialize_into(s.tx, header, tc);
    trace_.tc_originated += 1;
    trace_.control_bytes += s.tx.size();
    medium_.broadcast(id_, s.tx);
  }
  if (role_ == AdversaryKind::kReplayer && captured_valid_)
    replay_captured_tc();

  medium_.arm(config_.tc_interval + rng_.uniform(0.0, config_.jitter),
              NodeTimer::kTc, id_);
}

void OlsrNode::lie_in_tc(TcMessage& tc) {
  // Inflate every honestly-measured bandwidth: receivers routing on the
  // widest path will prefer links through us that cannot carry the load.
  for (LinkAdvert& a : tc.advertised) a.qos.bandwidth *= 4.0;
  if (!phantoms_drawn_) {
    // Draw up to two stable phantom endpoints (a lie that changes every
    // tick would keep the ANSN churning and never let the digest settle);
    // only nodes we genuinely cannot reach qualify.
    phantoms_drawn_ = true;
    const std::size_t n = medium_.node_count();
    for (int attempt = 0; attempt < 16 && phantom_targets_.size() < 2 && n > 1;
         ++attempt) {
      const NodeId target = static_cast<NodeId>(adv_rng_.uniform_int(n));
      if (target == id_) continue;
      if (medium_.measured_qos(id_, target) != nullptr) continue;  // real
      if (std::find(phantom_targets_.begin(), phantom_targets_.end(),
                    target) != phantom_targets_.end())
        continue;
      phantom_targets_.push_back(target);
    }
  }
  for (NodeId target : phantom_targets_) {
    LinkQos qos;
    qos.bandwidth = 1.0e3;  // an irresistible fabricated link
    tc.advertised.push_back({target, LinkStatus::kSymmetric, qos});
  }
}

void OlsrNode::replay_captured_tc() {
  PacketHeader header = captured_header_;
  // A fresh message sequence defeats every duplicate set; the ANSN inside
  // stays the captured — by now stale — one. TopologyBase's circular
  // comparison is what must reject it (the stale_tc_rejections counter).
  header.sequence = static_cast<std::uint16_t>(
      captured_header_.sequence + 0x4000u + replay_count_++);
  header.ttl = config_.tc_ttl;
  header.hop_count = 0;
  const double now = medium_.now();
  duplicates_.check_and_insert(captured_tc_.originator, header.sequence, now);
  if (monitor_ != nullptr)
    monitor_->record_tc_emission(captured_tc_.originator, captured_tc_.ansn,
                                 now);
  std::vector<std::byte>& tx = scratch().tx;
  serialize_into(tx, header, captured_tc_);
  trace_.control_bytes += tx.size();
  medium_.broadcast(id_, tx);
}

void OlsrNode::on_packet(NodeId from, const ParsedPacket* packet,
                         std::span<const std::byte> bytes) {
  // A frame scheduled before we crashed can still land afterwards (the
  // propagation delay); a dead node hears nothing.
  if (!alive_) return;
  if (packet == nullptr || !in_deployment(*packet, medium_.node_count())) {
    // Expected noise under an active corruption gate — counted, not
    // warned about (a warn per mangled frame would drown real logs).
    trace_.frames_malformed += 1;
    QOLSR_LOG(kDebug) << "node " << id_ << ": malformed packet from " << from;
    return;
  }
  switch (packet->header.type) {
    case MessageType::kHello:
      handle_hello(*packet->hello, from);
      break;
    case MessageType::kTc:
      handle_tc(packet->header, *packet->tc, bytes, from);
      break;
    case MessageType::kData:
      handle_data(packet->header, *packet->data);
      break;
  }
}

void OlsrNode::handle_hello(const HelloMessage& hello, NodeId from) {
  const LinkQos* qos = medium_.measured_qos(id_, from);
  if (qos == nullptr) return;  // spurious reception
  const NeighborTables::Outcome changed =
      tables_.on_hello(hello, *qos, medium_.now());
  if (changed.digest_changed) note_mutation();
  if (changed.view_changed) knowledge_valid_ = false;
}

void OlsrNode::handle_tc(const PacketHeader& header, const TcMessage& tc,
                         std::span<const std::byte> bytes, NodeId from) {
  const double now = medium_.now();
  // Only process floods arriving over a symmetric link (RFC 3626 §9.5).
  if (!tables_.is_symmetric(from)) return;
  if (!duplicates_.check_and_insert(header.originator, header.sequence,
                                    now)) {
    trace_.tc_dropped_duplicate += 1;
    return;
  }
  if (tc.originator != id_) {
    const TopologyBase::TcOutcome applied = topology_.apply_tc(tc, now);
    if (!applied.fresh && monitor_ != nullptr)
      monitor_->record_stale_tc_rejection(now);
    if (applied.links_changed) note_mutation();
    if (applied.view_changed) knowledge_valid_ = false;
    if (applied.fresh) schedule_topology_purge();
    if (role_ == AdversaryKind::kReplayer && !captured_valid_) {
      // Capture the first foreign TC; tc_tick keeps re-emitting it with a
      // fresh message sequence but the original (aging) ANSN.
      captured_valid_ = true;
      captured_header_ = header;
      captured_tc_ = tc;
    }
  }

  // Default MPR forwarding: retransmit iff the previous hop selected us as
  // its MPR.
  if (header.ttl <= 1) return;
  if (!tables_.selected_us_as_mpr(from)) return;
  if (role_ == AdversaryKind::kBlackhole ||
      role_ == AdversaryKind::kSelfish) {
    // We accepted MPR duty (our HELLOs look honest) and now renege on it.
    if (monitor_ != nullptr) {
      if (role_ == AdversaryKind::kBlackhole)
        monitor_->record_blackhole_absorption(now);
      else
        monitor_->record_mpr_refusal(now);
    }
    return;
  }
  // The codec round-trips a parsed frame byte for byte, so the received
  // bytes with TTL and hop count patched are exactly serialize(forwarded,
  // tc) — without re-encoding every advert.
  std::vector<std::byte>& forwarded = scratch().tx;
  forwarded.assign(bytes.begin(), bytes.end());
  patch_forwarding_header(forwarded,
                          static_cast<std::uint8_t>(header.ttl - 1),
                          static_cast<std::uint8_t>(header.hop_count + 1));
  trace_.tc_forwarded += 1;
  trace_.control_bytes += forwarded.size();
  medium_.broadcast(id_, forwarded);
}

void OlsrNode::send_data(NodeId destination, std::uint32_t payload_id) {
  PacketHeader header;
  header.type = MessageType::kData;
  header.originator = id_;
  header.sequence = next_sequence_++;
  header.ttl = config_.data_ttl;
  DataMessage data;
  data.source = id_;
  data.destination = destination;
  data.payload_id = payload_id;
  trace_.data_sent += 1;
  auto& journey = trace_.journeys[payload_id];
  journey.source = id_;
  journey.destination = destination;
  journey.sent_at = medium_.now();
  journey.path = {id_};
  forward_or_deliver(header, data);
}

void OlsrNode::handle_data(PacketHeader header, const DataMessage& data) {
  auto it = trace_.journeys.find(data.payload_id);
  if (it != trace_.journeys.end()) {
    // A revisit is a forwarding loop forming right now — the TTL would
    // catch it dozens of hops later; the monitor sees the first cycle.
    if (monitor_ != nullptr &&
        std::find(it->second.path.begin(), it->second.path.end(), id_) !=
            it->second.path.end())
      monitor_->record_forwarding_loop(medium_.now());
    it->second.path.push_back(id_);
  }
  if (data.destination == id_) {
    trace_.data_delivered += 1;
    if (it != trace_.journeys.end()) {
      it->second.delivered = true;
      it->second.delivered_at = medium_.now();
    }
    return;
  }
  if (role_ == AdversaryKind::kBlackhole) {
    // Transit traffic is silently absorbed; our honest-looking HELLOs made
    // sure routes lead through us.
    trace_.data_dropped += 1;
    mark_drop(data.payload_id, TraceStats::Journey::Drop::kAdversary);
    if (monitor_ != nullptr)
      monitor_->record_blackhole_absorption(medium_.now());
    return;
  }
  if (header.ttl <= 1) {
    trace_.data_dropped += 1;
    mark_drop(data.payload_id, TraceStats::Journey::Drop::kTtl);
    return;
  }
  header.ttl -= 1;
  header.hop_count += 1;
  trace_.data_forwarded += 1;
  forward_or_deliver(header, data);
}

void OlsrNode::forward_or_deliver(PacketHeader header,
                                  const DataMessage& data) {
  const Graph& knowledge = knowledge_graph();
  if (data.destination >= knowledge.node_count()) {
    // Parse-time sanitation (in_deployment) already rejects any received
    // frame naming an out-of-deployment id, so an oversized destination
    // here is a forged or wire-corrupted frame, not a routing failure —
    // charge the wire, not the knowledge graph, or the figure-B/R fate
    // columns misattribute corruption as `no route`.
    trace_.data_dropped += 1;
    mark_drop(data.payload_id, TraceStats::Journey::Drop::kMalformed);
    return;
  }
  NodeId next = route_cache_[data.destination];
  if (next == kRouteNotCached) {
    next = (*route_fn_)(knowledge, id_, data.destination);
    route_cache_[data.destination] = next;
  }
  if (next == kInvalidNode) {
    trace_.data_dropped += 1;
    mark_drop(data.payload_id, TraceStats::Journey::Drop::kNoRoute);
    return;
  }
  std::vector<std::byte>& tx = scratch().tx;
  serialize_into(tx, header, data);
  medium_.unicast(id_, next, tx);
}

void OlsrNode::mark_drop(std::uint32_t payload_id,
                         TraceStats::Journey::Drop reason) {
  const auto it = trace_.journeys.find(payload_id);
  if (it != trace_.journeys.end() &&
      it->second.drop == TraceStats::Journey::Drop::kNone)
    it->second.drop = reason;
}

std::uint64_t OlsrNode::state_digest(std::uint64_t h) const {
  // The alive bit makes a crash (and a restart of an otherwise-empty
  // node) visible to the convergence detector.
  h = util::digest_mix(h, alive_ ? 1u : 0u);
  for (NodeId n : flooding_mpr_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, flooding_mpr_.size());
  for (NodeId n : ans_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, ans_.size());
  h = tables_.digest(h);
  return topology_.digest(h);
}

std::uint64_t OlsrNode::converged_digest() const {
  std::uint64_t h = util::kDigestSeed;
  h = util::digest_mix(h, id_);
  h = util::digest_mix(h, alive_ ? 1u : 0u);
  for (NodeId n : flooding_mpr_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, flooding_mpr_.size());
  for (NodeId n : ans_) h = util::digest_mix(h, n);
  h = util::digest_mix(h, ans_.size());
  h = tables_.converged_digest(h);
  return topology_.converged_digest(h);
}

const Graph& OlsrNode::knowledge_graph() {
  // TC-advertised topology plus our own symmetric links. Deliberately NOT
  // the full 2-hop view: heterogeneous per-hop knowledge makes QoS
  // hop-by-hop forwarding loop (see routing/forwarding.hpp). Validity-
  // aware read: an entry past its hold time is dead for routing even if
  // no purge event has removed it yet — under loss that window is where
  // blackholes hide. The cache reproduces that semantics exactly: it is
  // invalidated on every view-changing mutation, and `fresh_until` (the
  // earliest hold deadline baked into the build) bounds how long the
  // built view matches a validity-aware read taken at query time.
  const double now = medium_.now();
  if (!knowledge_valid_ || now > knowledge_fresh_until_) {
    knowledge_fresh_until_ =
        topology_.to_graph_into(knowledge_, medium_.node_count(), now);
    tables_.for_each_symmetric([this](NodeId neighbor, const LinkQos& qos) {
      if (neighbor < knowledge_.node_count() &&
          !knowledge_.has_edge(id_, neighbor))
        knowledge_.add_edge(id_, neighbor, qos);
    });
    // The view changed (or aged out): every memoized next hop is stale.
    route_cache_.assign(knowledge_.node_count(), kRouteNotCached);
    knowledge_valid_ = true;
  }
  return knowledge_;
}

void OlsrNode::schedule_topology_purge() {
  // One pending event per node: it always fires no later than the base's
  // earliest deadline (deadlines only move up on refresh, and any new
  // entry expires at now + hold, never before an already-scheduled fire
  // time), and reschedules itself against the then-current deadline.
  if (purge_pending_) return;
  const double next = topology_.next_expiry();
  if (next == std::numeric_limits<double>::infinity()) return;
  purge_pending_ = true;
  medium_.arm(std::max(next - medium_.now(), kPurgeLag),
              NodeTimer::kTopologyPurge, id_);
}

void OlsrNode::topology_purge_tick() {
  purge_pending_ = false;
  const double now = medium_.now();
  if (topology_.expire(now)) {
    note_mutation();  // held entries left the digest
    knowledge_valid_ = false;
  }
  // Re-arm at the new earliest deadline. An entry expiring exactly `now`
  // is still valid at this instant (strict `<` everywhere), so the re-arm
  // lags it by kPurgeLag instead of spinning at the same timestamp.
  const double next = topology_.next_expiry();
  if (next == std::numeric_limits<double>::infinity()) return;
  purge_pending_ = true;
  medium_.arm(std::max(next - now, kPurgeLag), NodeTimer::kTopologyPurge,
              id_);
}

}  // namespace qolsr
