#include "support/reference_tables.hpp"

#include <algorithm>
#include <cstring>
#include <limits>

#include "util/digest.hpp"

namespace qolsr::reference {

namespace {
/// Bit-exact QoS equality: the selection epoch must move on any change a
/// selector could observe, including 0.0 -> -0.0 (which `==` misses).
bool same_bits(const LinkQos& a, const LinkQos& b) {
  static_assert(sizeof(LinkQos) == 6 * sizeof(double), "no padding bytes");
  return std::memcmp(&a, &b, sizeof(LinkQos)) == 0;
}
}  // namespace

NeighborTables::Outcome NeighborTables::on_hello(const HelloMessage& hello,
                                                 const LinkQos& qos,
                                                 double now) {
  const auto [it, inserted] = links_.try_emplace(hello.originator);
  LinkEntry& entry = it->second;
  const bool was_sym = !inserted && entry.sym_until >= 0.0;
  const bool was_mpr = !inserted && entry.selected_us_mpr;
  const LinkQos old_qos = entry.qos;
  entry.qos = qos;
  entry.asym_until = now + hold_time_;
  // Two-way handshake: the link is symmetric iff the sender lists us.
  entry.selected_us_mpr = false;
  bool lists_us = false;
  for (const LinkAdvert& a : hello.links) {
    if (a.neighbor != self_) continue;
    lists_us = true;
    if (a.status == LinkStatus::kMpr) entry.selected_us_mpr = true;
  }
  if (lists_us) entry.sym_until = now + hold_time_;
  // The sender's full (symmetric) link table gives us the 2-hop view.
  // Rewritten in place so the comparison against the held sequence costs
  // no allocation: the view reads (neighbor, qos) only, so a status flip
  // between kSymmetric and kMpr is not an advert change.
  bool adverts_changed = false;
  std::size_t kept = 0;
  for (const LinkAdvert& a : hello.links) {
    if (a.status == LinkStatus::kAsymmetric) continue;  // not yet usable
    if (kept < entry.advertised.size()) {
      LinkAdvert& held = entry.advertised[kept];
      if (held.neighbor != a.neighbor || !same_bits(held.qos, a.qos))
        adverts_changed = true;
      held = a;
    } else {
      entry.advertised.push_back(a);
      adverts_changed = true;
    }
    ++kept;
  }
  if (kept != entry.advertised.size()) {
    entry.advertised.resize(kept);
    adverts_changed = true;
  }
  const bool is_sym = entry.sym_until >= 0.0;
  Outcome out;
  out.digest_changed =
      inserted || was_sym != is_sym || was_mpr != entry.selected_us_mpr;
  out.view_changed = was_sym != is_sym || (is_sym && !(old_qos == entry.qos));
  if (was_sym != is_sym ||
      (is_sym && (adverts_changed || !same_bits(old_qos, entry.qos))))
    ++view_epoch_;
  return out;
}

NeighborTables::Outcome NeighborTables::expire(double now) {
  Outcome out;
  for (auto it = links_.begin(); it != links_.end();) {
    if (it->second.asym_until < now) {
      if (it->second.sym_until >= 0.0) {
        out.view_changed = true;
        ++view_epoch_;
      }
      out.digest_changed = true;  // the digest folds every held entry
      it = links_.erase(it);
    } else {
      if (it->second.sym_until >= 0.0 && it->second.sym_until < now) {
        it->second.sym_until = -1.0;
        out.digest_changed = true;
        out.view_changed = true;
        ++view_epoch_;
      }
      ++it;
    }
  }
  return out;
}

std::uint64_t NeighborTables::digest(std::uint64_t h) const {
  for (const auto& [id, entry] : links_) {  // ordered map: stable fold order
    h = util::digest_mix(h, id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
  }
  return h;
}

std::uint64_t NeighborTables::converged_digest(std::uint64_t h) const {
  for (const auto& [id, entry] : links_) {  // ordered map: stable fold order
    h = util::digest_mix(h, id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
    h = digest_qos(h, entry.qos);
    h = util::digest_mix(h, entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised) {
      h = util::digest_mix(h, a.neighbor);
      h = util::digest_mix(h, static_cast<std::uint64_t>(a.status));
      h = digest_qos(h, a.qos);
    }
  }
  return h;
}

std::vector<NodeId> NeighborTables::symmetric_neighbors() const {
  std::vector<NodeId> result;
  for (const auto& [id, entry] : links_)
    if (entry.sym_until >= 0.0) result.push_back(id);
  return result;  // std::map iteration is already ascending
}

std::vector<NodeId> NeighborTables::heard_neighbors() const {
  std::vector<NodeId> result;
  result.reserve(links_.size());
  for (const auto& [id, entry] : links_) {
    (void)entry;
    result.push_back(id);
  }
  return result;
}

bool NeighborTables::selected_us_as_mpr(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until >= 0.0 &&
         it->second.selected_us_mpr;
}

bool NeighborTables::is_symmetric(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  return it != links_.end() && it->second.sym_until >= 0.0;
}

const LinkQos* NeighborTables::link_qos(NodeId neighbor) const {
  auto it = links_.find(neighbor);
  if (it == links_.end()) return nullptr;
  return &it->second.qos;
}

std::vector<NodeId> NeighborTables::mpr_selectors() const {
  std::vector<NodeId> result;
  for (const auto& [id, entry] : links_)
    if (entry.sym_until >= 0.0 && entry.selected_us_mpr)
      result.push_back(id);
  return result;
}

LocalView NeighborTables::build_local_view() const {
  std::vector<LocalView::NeighborLink> one_hop;
  std::vector<std::vector<LocalView::NeighborLink>> neighbor_links;
  for (const auto& [id, entry] : links_) {
    if (entry.sym_until < 0.0) continue;
    one_hop.push_back({id, entry.qos});
    std::vector<LocalView::NeighborLink> advertised;
    advertised.reserve(entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised)
      advertised.push_back({a.neighbor, a.qos});
    neighbor_links.push_back(std::move(advertised));
  }
  return LocalView(self_, one_hop, neighbor_links);
}

namespace {

/// Same advertised neighbor-id sequence? Order-sensitive on purpose — the
/// digest and to_graph both walk the sequence in held order.
bool same_links(const std::vector<LinkAdvert>& a,
                const std::vector<LinkAdvert>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].neighbor != b[i].neighbor) return false;
  return true;
}

/// Same (neighbor, qos) sequence — whether the entry's routing-view
/// contribution is unchanged.
bool same_view(const std::vector<LinkAdvert>& a,
               const std::vector<LinkAdvert>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].neighbor != b[i].neighbor || !(a[i].qos == b[i].qos))
      return false;
  return true;
}

}  // namespace

TopologyBase::TcOutcome TopologyBase::apply_tc(const TcMessage& tc,
                                               double now) {
  TcOutcome out;
  auto it = entries_.find(tc.originator);
  if (it != entries_.end() && it->second.expires >= now &&
      !newer(tc.ansn, it->second.ansn) && tc.ansn != it->second.ansn) {
    return out;  // stale — every flag false
  }
  out.fresh = true;
  if (it == entries_.end()) {
    // New originator: digest folds the originator id, so even an empty
    // advertisement is a visible change.
    out.links_changed = true;
    out.view_changed = !tc.advertised.empty();
    Entry& entry = entries_[tc.originator];
    entry.ansn = tc.ansn;
    entry.expires = now + hold_time_;
    entry.advertised = tc.advertised;
    return out;
  }
  Entry& entry = it->second;
  // The digest ignores expiry, so `links_changed` compares against the
  // held advertisement regardless of validity; the routing view is
  // validity-aware, so a held-but-expired entry contributed nothing and
  // any non-empty refresh revives it.
  out.links_changed = !same_links(entry.advertised, tc.advertised);
  out.view_changed = entry.expires < now
                         ? !tc.advertised.empty()
                         : !same_view(entry.advertised, tc.advertised);
  entry.ansn = tc.ansn;
  entry.expires = now + hold_time_;
  entry.advertised = tc.advertised;
  return out;
}

bool TopologyBase::expire(double now) {
  bool removed = false;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.expires < now) {
      it = entries_.erase(it);
      removed = true;
    } else {
      ++it;
    }
  }
  return removed;
}

double TopologyBase::next_expiry() const {
  double next = std::numeric_limits<double>::infinity();
  for (const auto& [originator, entry] : entries_)
    next = std::min(next, entry.expires);
  return next;
}

Graph TopologyBase::to_graph(std::size_t node_count) const {
  return to_graph(node_count, -std::numeric_limits<double>::infinity());
}

Graph TopologyBase::to_graph(std::size_t node_count, double now) const {
  Graph graph(node_count);
  to_graph_into(graph, node_count, now);
  return graph;
}

double TopologyBase::to_graph_into(Graph& out, std::size_t node_count,
                                   double now) const {
  out.reset_nodes(node_count);
  double fresh_until = std::numeric_limits<double>::infinity();
  for (const auto& [originator, entry] : entries_) {
    if (originator >= node_count) continue;
    if (entry.expires < now) continue;  // held but already invalid
    fresh_until = std::min(fresh_until, entry.expires);
    for (const LinkAdvert& a : entry.advertised) {
      if (a.neighbor >= node_count) continue;
      if (!out.has_edge(originator, a.neighbor))
        out.add_edge(originator, a.neighbor, a.qos);
    }
  }
  return fresh_until;
}

std::uint64_t TopologyBase::digest(std::uint64_t h) const {
  for (const auto& [originator, entry] : entries_) {  // ordered map: stable
    h = util::digest_mix(h, originator);
    for (const LinkAdvert& a : entry.advertised)
      h = util::digest_mix(h, a.neighbor);
  }
  return h;
}

std::uint64_t TopologyBase::converged_digest(std::uint64_t h) const {
  for (const auto& [originator, entry] : entries_) {  // ordered map: stable
    h = util::digest_mix(h, originator);
    h = util::digest_mix(h, entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised) {
      h = util::digest_mix(h, a.neighbor);
      h = util::digest_mix(h, static_cast<std::uint64_t>(a.status));
      h = digest_qos(h, a.qos);
    }
  }
  return h;
}

std::optional<std::uint16_t> TopologyBase::ansn_of(NodeId originator) const {
  auto it = entries_.find(originator);
  if (it == entries_.end()) return std::nullopt;
  return it->second.ansn;
}

std::vector<NodeId> TopologyBase::advertised_of(NodeId originator) const {
  std::vector<NodeId> result;
  auto it = entries_.find(originator);
  if (it == entries_.end()) return result;
  for (const LinkAdvert& a : it->second.advertised)
    result.push_back(a.neighbor);
  return result;
}

}  // namespace qolsr::reference
