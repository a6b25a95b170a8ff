#include "proto/neighbor_tables.hpp"

#include <algorithm>
#include <cstring>

#include "util/digest.hpp"

namespace qolsr {

namespace {
/// Bit-exact QoS equality: the selection epoch must move on any change a
/// selector could observe, including 0.0 -> -0.0 (which `==` misses).
bool same_bits(const LinkQos& a, const LinkQos& b) {
  static_assert(sizeof(LinkQos) == 6 * sizeof(double), "no padding bytes");
  return std::memcmp(&a, &b, sizeof(LinkQos)) == 0;
}

/// The same advert, bit for bit: neighbor, status and QoS.
bool same_advert(const LinkAdvert& a, const LinkAdvert& b) {
  return a.neighbor == b.neighbor && a.status == b.status &&
         same_bits(a.qos, b.qos);
}

}  // namespace

NeighborTables::Outcome NeighborTables::on_hello(const HelloMessage& hello,
                                                 const LinkQos& qos,
                                                 double now) {
  const NodeId id = hello.originator;
  const bool inserted = find(id) == nullptr;
  LinkEntry& entry = links_[inserted ? insert(id) : slot_[id]];
  const bool was_sym = !inserted && entry.sym_until >= 0.0;
  const bool was_mpr = !inserted && entry.selected_us_mpr;
  const LinkQos old_qos = entry.qos;
  entry.qos = qos;
  entry.asym_until = now + hold_time_;
  // One pass over the HELLO: the two-way handshake (the link is symmetric
  // iff the sender lists us) and a compare of the sender's usable adverts
  // against the held table. A converged neighbor repeats its table
  // exactly, so the steady-state reception writes nothing back.
  bool lists_us = false;
  bool mpr = false;
  bool same = true;
  std::size_t kept = 0;
  for (const LinkAdvert& a : hello.links) {
    if (a.neighbor == self_) {
      lists_us = true;
      if (a.status == LinkStatus::kMpr) mpr = true;
    }
    if (a.status == LinkStatus::kAsymmetric) continue;  // not yet usable
    same = same && kept < entry.advertised.size() &&
           same_advert(entry.advertised[kept], a);
    ++kept;
  }
  entry.selected_us_mpr = mpr;
  if (lists_us) entry.sym_until = now + hold_time_;
  // The sender's full (symmetric) link table gives us the 2-hop view. On a
  // difference it is rewritten in place, noting whether the (neighbor,
  // qos) sequence the view reads changed: a status flip between
  // kSymmetric and kMpr is not an advert change.
  bool adverts_changed = false;
  if (!same || kept != entry.advertised.size()) {
    // Sized to the table exactly: a converged neighbor's table keeps its
    // size, so doubling slack would only pad every held entry.
    if (entry.advertised.capacity() < kept) entry.advertised.reserve(kept);
    kept = 0;
    for (const LinkAdvert& a : hello.links) {
      if (a.status == LinkStatus::kAsymmetric) continue;
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
  // Stable compaction: survivors keep their ascending order, and each
  // dropped entry is swapped behind them as a spare.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < live_; ++i) {
    LinkEntry& entry = links_[i];
    if (entry.asym_until < now) {
      if (entry.sym_until >= 0.0) {
        out.view_changed = true;
        ++view_epoch_;
      }
      out.digest_changed = true;  // the digest folds every held entry
      slot_[entry.id] = kNoSlot;
      continue;
    }
    if (entry.sym_until >= 0.0 && entry.sym_until < now) {
      entry.sym_until = -1.0;
      out.digest_changed = true;
      out.view_changed = true;
      ++view_epoch_;
    }
    if (kept != i) {
      std::swap(links_[kept], entry);
      slot_[links_[kept].id] = static_cast<std::uint32_t>(kept);
    }
    ++kept;
  }
  live_ = kept;
  return out;
}

void NeighborTables::clear() {
  for (std::size_t i = 0; i < live_; ++i) slot_[links_[i].id] = kNoSlot;
  live_ = 0;
  ++view_epoch_;
}

void NeighborTables::reset(double hold_time, std::size_t node_count) {
  clear();
  hold_time_ = hold_time;
  if (slot_.size() < node_count) slot_.resize(node_count, kNoSlot);
}

std::size_t NeighborTables::insert(NodeId id) {
  if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1, kNoSlot);
  if (live_ == links_.size()) links_.emplace_back();
  // Rotate the first spare into the ascending position of `id`; the
  // entries it passes move up by one and get their slots rewritten.
  const auto live_end = links_.begin() + static_cast<std::ptrdiff_t>(live_);
  const auto pos = std::partition_point(
      links_.begin(), live_end,
      [id](const LinkEntry& entry) { return entry.id < id; });
  std::rotate(pos, live_end, live_end + 1);
  ++live_;
  const auto at = static_cast<std::size_t>(pos - links_.begin());
  LinkEntry& entry = links_[at];
  entry.id = id;
  entry.qos = LinkQos{};
  entry.sym_until = -1.0;
  entry.asym_until = -1.0;
  entry.selected_us_mpr = false;
  entry.advertised.clear();
  for (std::size_t i = at; i < live_; ++i)
    slot_[links_[i].id] = static_cast<std::uint32_t>(i);
  return at;
}

std::uint64_t NeighborTables::digest(std::uint64_t h) const {
  for (std::size_t i = 0; i < live_; ++i) {  // ascending id: stable fold
    const LinkEntry& entry = links_[i];
    h = util::digest_mix(h, entry.id);
    h = util::digest_mix(h, (entry.sym_until >= 0.0 ? 2u : 0u) |
                                (entry.selected_us_mpr ? 1u : 0u));
  }
  return h;
}

std::uint64_t NeighborTables::converged_digest(std::uint64_t h) const {
  for (std::size_t i = 0; i < live_; ++i) {  // ascending id: stable fold
    const LinkEntry& entry = links_[i];
    h = util::digest_mix(h, entry.id);
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
  for_each_symmetric([&result](NodeId id, const LinkQos&) {
    result.push_back(id);
  });
  return result;
}

std::vector<NodeId> NeighborTables::heard_neighbors() const {
  std::vector<NodeId> result;
  result.reserve(live_);
  for (std::size_t i = 0; i < live_; ++i) result.push_back(links_[i].id);
  return result;
}

bool NeighborTables::selected_us_as_mpr(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr && entry->sym_until >= 0.0 &&
         entry->selected_us_mpr;
}

bool NeighborTables::is_symmetric(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr && entry->sym_until >= 0.0;
}

const LinkQos* NeighborTables::link_qos(NodeId neighbor) const {
  const LinkEntry* entry = find(neighbor);
  return entry != nullptr ? &entry->qos : nullptr;
}

std::vector<NodeId> NeighborTables::mpr_selectors() const {
  std::vector<NodeId> result;
  for (std::size_t i = 0; i < live_; ++i)
    if (links_[i].sym_until >= 0.0 && links_[i].selected_us_mpr)
      result.push_back(links_[i].id);
  return result;
}

LocalView NeighborTables::build_local_view() const {
  std::vector<LocalView::NeighborLink> one_hop;
  std::vector<std::vector<LocalView::NeighborLink>> neighbor_links;
  for (std::size_t i = 0; i < live_; ++i) {
    const LinkEntry& entry = links_[i];
    if (entry.sym_until < 0.0) continue;
    one_hop.push_back({entry.id, entry.qos});
    std::vector<LocalView::NeighborLink> advertised;
    advertised.reserve(entry.advertised.size());
    for (const LinkAdvert& a : entry.advertised)
      advertised.push_back({a.neighbor, a.qos});
    neighbor_links.push_back(std::move(advertised));
  }
  return LocalView(self_, one_hop, neighbor_links);
}

void NeighborTables::build_local_view_into(LocalViewBuilder& builder,
                                           LocalView& out) const {
  builder.build_hello(
      self_,
      [this](auto&& fn) {
        for (std::size_t i = 0; i < live_; ++i)
          if (links_[i].sym_until >= 0.0)
            fn(links_[i].id, links_[i].qos, links_[i].advertised);
      },
      [](const LinkAdvert& a) { return a.neighbor; }, out);
}

}  // namespace qolsr
