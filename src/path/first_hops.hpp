#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/local_view.hpp"
#include "path/dijkstra.hpp"

namespace qolsr {

/// The per-destination "first node on best path" sets of the paper:
/// for every v in the local view,
///
///   best[v] = B̃(u,v)   (resp. D̃(u,v)) — the best simple-path value from u
///                        to v inside G_u;
///   fp[v]   = fP(u,v)  — every 1-hop neighbor w of u that starts some best
///                        path (paper §III-A; e.g. fPBW(u,v3) = {v1,v2} in
///                        its Fig. 2).
///
/// Indexed by *local* id; `fp` lists local ids, ascending (which is also
/// ascending global id, since one-hop locals are assigned in id order).
struct FirstHopTable {
  std::vector<double> best;
  std::vector<std::vector<std::uint32_t>> fp;
  /// Lists parked by a shrink to a smaller view and handed back by the next
  /// growth, so a table reused across views of varying size keeps every
  /// list's capacity instead of freeing and reallocating it.
  std::vector<std::vector<std::uint32_t>> spare;

  bool reachable(std::uint32_t v) const { return !fp[v].empty(); }
};

/// Computes the table exactly, with simple-path semantics: a best path may
/// not revisit u, so each neighbor w is evaluated by a Dijkstra on
/// G_u \ {u} rooted at w, and
///
///   value_via_w(v) = combine(q(u,w), dist_{G_u∖u}(w, v)).
///
/// (A single Dijkstra from u with first-hop propagation over tight edges is
/// wrong for concave metrics: min-composition saturates, the tight-edge
/// relation has cycles, and non-simple "best" paths through u would be
/// counted. deg(u) small Dijkstras are exact and cheap on a 2-hop view.)
///
/// This overload reuses `ws` for all deg(u) inner Dijkstras and `out`'s
/// vectors (including the per-destination fp lists) across calls, so a
/// caller sweeping every node of a run allocates nothing in steady state.
///
/// For concave metrics the neighbors are processed by descending direct
/// link (enabling the saturation cutoff below); since incremental
/// better/tie filtering uses the tolerant metric_equal, whose 1e-9 band is
/// not transitive, results are guaranteed identical to ascending-order
/// processing except when *distinct* candidate path values fall within
/// each other's tolerance bands — impossible for integral weights (ties
/// are exact) and probability-zero for continuous draws.
template <Metric M>
void compute_first_hops(const LocalView& view, DijkstraWorkspace& ws,
                        FirstHopTable& out) {
  const auto n = static_cast<std::uint32_t>(view.size());
  out.best.assign(n, M::unreachable());
  while (out.fp.size() > n) {
    out.spare.push_back(std::move(out.fp.back()));
    out.fp.pop_back();
  }
  while (out.fp.size() < n) {
    if (out.spare.empty()) {
      out.fp.emplace_back();
    } else {
      out.fp.push_back(std::move(out.spare.back()));
      out.spare.pop_back();
    }
  }
  for (auto& list : out.fp) list.clear();
  if (n == 0) return;
  out.best[LocalView::origin_index()] = M::identity();

  // One metric-specialized CSR extraction with u already removed,
  // amortized over the deg(u) Dijkstras below (16B/edge scans instead of
  // full QoS records, no per-edge exclusion test).
  ws.local_csr.assign<M>(view, LocalView::origin_index());

  // Folds one candidate value-via-w for destination v into the table.
  // Returns 1 when v's fp went from empty to non-empty.
  auto fold = [&out](std::uint32_t v, double cand, std::uint32_t w) {
    if (!out.fp[v].empty() && cand == out.best[v]) {
      out.fp[v].push_back(w);  // exact tie — the common case
      return 0u;
    }
    if (out.fp[v].empty() || M::better(cand, out.best[v])) {
      const std::uint32_t newly = out.fp[v].empty() ? 1u : 0u;
      out.best[v] = cand;
      out.fp[v].assign(1, w);
      return newly;
    }
    if (metric_equal(cand, out.best[v])) out.fp[v].push_back(w);
    return 0u;
  };

  // Computes all via-w values rooted at one-hop neighbor w and folds them.
  // Returns the number of destinations whose fp went from empty to
  // non-empty.
  //
  // Only *values* are consumed here, which buys two shortcuts over the
  // lex-(value, hops) Dijkstra. Concave metrics skip Dijkstra entirely:
  // max-min values are forest-path bottlenecks on the maximum spanning
  // forest, built once per view and walked in O(component) per root with
  // the source seeded at q(u,w) (min-composition makes the folded value
  // exactly combine(q(u,w), bottleneck)). Additive metrics run the
  // hop-tie-break-free dijkstra_values — exact value ties cost one compare
  // instead of a decrease-key — and fold combine(q(u,w), dist) afterwards,
  // keeping the float accumulation order (and thus the figures)
  // bit-identical. Either way the values match the seed computation
  // exactly for integral weights; for continuous draws the descending-
  // order caveat above applies unchanged.
  auto run_from = [&](std::uint32_t w, double first_value) {
    std::uint32_t newly_reached = 0;
    if constexpr (M::kind == MetricKind::kConcave) {
      ws.first_hop_forest.for_each_from<M>(
          w, first_value, [&](std::uint32_t v, double cand) {
            newly_reached += fold(v, cand, w);
          });
    } else {
      dijkstra_values<M>(ws.local_csr, w, ws);
      for (std::uint32_t v = 1; v < n; ++v) {
        if (!ws.reached(v)) continue;
        newly_reached += fold(v, M::combine(first_value, ws.value(v)), w);
      }
    }
    return newly_reached;
  };

  if constexpr (M::kind == MetricKind::kConcave) {
    ws.first_hop_forest.build<M>(ws.local_csr);
    // Saturation cutoff: via-w values never exceed q(u,w) under min-
    // composition, so once every destination is reached and q(u,w) is
    // strictly (beyond any tolerance) below the weakest current best, w
    // cannot enter any fp set. Processing neighbors by descending direct
    // link turns the cutoff into a loop exit; fp lists are re-sorted to
    // the canonical ascending order afterwards.
    auto& order = ws.first_hop_order;
    order.clear();
    for (std::uint32_t w : view.one_hop()) {
      const LinkQos* first_link =
          view.local_edge_qos(LocalView::origin_index(), w);
      if (first_link == nullptr) continue;  // filtered out by a reduction
      order.push_back({M::link_value(*first_link), w});
    }
    std::sort(order.begin(), order.end(),
              [](const std::pair<double, std::uint32_t>& a,
                 const std::pair<double, std::uint32_t>& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });

    std::uint32_t unreached = n - 1;
    for (const auto& [first_value, w] : order) {
      if (unreached == 0) {
        // Weakest current best, and the largest magnitude bounding the
        // metric_equal tolerance band (same max(·,1) floor as values_equal;
        // a 10× margin keeps the cutoff strictly outside the band).
        double weakest = out.best[1];
        double largest = 1.0;
        for (std::uint32_t v = 1; v < n; ++v) {
          if (out.best[v] < weakest) weakest = out.best[v];
          const double mag = std::fabs(out.best[v]);
          if (mag > largest) largest = mag;
        }
        if (first_value < weakest - 10.0 * kMetricRelTolerance * largest)
          break;
      }
      unreached -= run_from(w, first_value);
    }
    for (std::uint32_t v = 1; v < n; ++v)
      std::sort(out.fp[v].begin(), out.fp[v].end());
  } else {
    for (std::uint32_t w : view.one_hop()) {
      const LinkQos* first_link =
          view.local_edge_qos(LocalView::origin_index(), w);
      if (first_link == nullptr) continue;  // filtered out by a reduction
      run_from(w, M::link_value(*first_link));
    }
  }
}

/// Allocating convenience form (the original API).
template <Metric M>
FirstHopTable compute_first_hops(const LocalView& view) {
  thread_local DijkstraWorkspace ws;
  FirstHopTable table;
  compute_first_hops<M>(view, ws, table);
  return table;
}

}  // namespace qolsr
