#pragma once

// The seed routing forms, kept verbatim as the reference oracle of the
// workspace forwarding in src/routing (tests/routing/
// forwarding_equivalence_test.cpp replays every (s, d) pair through both).
// They copy the advertised `Graph` at every hop and allocate their own
// Dijkstra and BFS: slow, but each line is the textbook statement of the
// routing model, with no overlay, CSR or scratch reuse to get wrong.
//
// Also the `Graph`-valued advertised topology, which the simulator tests
// use as an independent oracle of the converged topology bases. These
// forms ignore ForwardingOptions::verify_links and advertised_snapshot.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/local_view.hpp"
#include "graph/node_id.hpp"
#include "metrics/metric.hpp"
#include "path/dijkstra.hpp"
#include "path/path.hpp"
#include "routing/forwarding.hpp"

namespace qolsr::reference {

/// Minimal directed graph with the same neighbors()/QoS interface as
/// `Graph`, so the generic Dijkstra runs on it unchanged. Used for the
/// ANS-chain routing model, where the usable out-edges of a node are its
/// *own* advertised neighbors (paper §I: "sends it to one of its MPRs
/// which will relay it to one of its MPRs and so on").
class DirectedGraph {
 public:
  DirectedGraph() = default;
  explicit DirectedGraph(std::size_t n) : out_(n) {}

  /// Adds the directed edge from→to; duplicate inserts are ignored.
  void add_edge(NodeId from, NodeId to, const LinkQos& qos) {
    auto& list = out_[from];
    auto it = std::lower_bound(
        list.begin(), list.end(), to,
        [](const Edge& lhs, NodeId id) { return lhs.to < id; });
    if (it != list.end() && it->to == to) return;
    list.insert(it, Edge{to, qos});
  }

  bool has_edge(NodeId from, NodeId to) const {
    const auto& list = out_[from];
    auto it = std::lower_bound(
        list.begin(), list.end(), to,
        [](const Edge& lhs, NodeId id) { return lhs.to < id; });
    return it != list.end() && it->to == to;
  }

  std::span<const Edge> neighbors(NodeId v) const { return out_[v]; }
  std::size_t node_count() const { return out_.size(); }

 private:
  std::vector<std::vector<Edge>> out_;
};

/// The network-wide advertised topology as a `Graph`: the undirected union
/// of {u,w} for every w ∈ ans_per_node[u], each link carrying its QoS
/// record from `full`. Throws std::logic_error on a size mismatch or when
/// an ANS member is not a 1-hop neighbor of its advertiser.
Graph build_advertised_topology(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node);

/// Adds every link of `view` that `base` is missing (u's private HELLO
/// knowledge on top of the TC-advertised topology).
void merge_local_view(Graph& base, const LocalView& view);

/// Exact lexicographic (metric value, hop count) next hop, allocating a
/// fresh Dijkstra result and, for concave metrics, a BFS parent row and
/// queue per call.
template <Metric M, typename G = Graph>
NodeId compute_next_hop(const G& knowledge, NodeId self, NodeId dest) {
  if (self == dest) return kInvalidNode;
  const DijkstraResult result = dijkstra<M>(knowledge, self);
  if (result.value[dest] == M::unreachable()) return kInvalidNode;
  if constexpr (M::kind == MetricKind::kAdditive) {
    NodeId hop = dest;
    while (result.parent[hop] != self) hop = result.parent[hop];
    return hop;
  } else {
    // BFS over links whose value is not worse than the optimum V; FIFO
    // order with ascending adjacency makes the parent choice deterministic.
    const double optimum = result.value[dest];
    std::vector<NodeId> parent(dijkstra_detail::graph_size(knowledge),
                               kInvalidNode);
    std::vector<NodeId> queue{self};
    parent[self] = self;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId x = queue[head];
      if (x == dest) break;
      for (const auto& e : knowledge.neighbors(x)) {
        if (parent[e.to] != kInvalidNode) continue;
        if (M::better(optimum, M::link_value(e.qos))) continue;  // too weak
        parent[e.to] = x;
        queue.push_back(e.to);
      }
    }
    if (parent[dest] == kInvalidNode) return kInvalidNode;  // defensive
    NodeId hop = dest;
    while (parent[hop] != self) hop = parent[hop];
    return hop;
  }
}

/// Hop-count-primary next hop: fewest hops, QoS as tie-break.
template <Metric M, typename G = Graph>
NodeId compute_min_hop_next_hop(const G& knowledge, NodeId self,
                                NodeId dest) {
  if (self == dest) return kInvalidNode;
  const DijkstraResult result = dijkstra_min_hop<M>(knowledge, self);
  if (result.value[dest] == M::unreachable()) return kInvalidNode;
  NodeId hop = dest;
  while (result.parent[hop] != self) hop = result.parent[hop];
  return hop;
}

/// Hop-by-hop forwarding over the undirected advertised union: every hop
/// copies `advertised`, merges its own knowledge, and computes its next hop.
template <Metric M>
ForwardingResult forward_packet(const Graph& full, const Graph& advertised,
                                NodeId source, NodeId destination,
                                const ForwardingOptions& options = {}) {
  ForwardingResult result;
  result.path.push_back(source);
  if (source == destination) {
    result.status = ForwardingStatus::kDelivered;
    result.value = M::identity();
    return result;
  }

  const std::size_t cap =
      options.max_hops > 0 ? options.max_hops : 4 * full.node_count();
  std::vector<bool> visited(full.node_count(), false);
  visited[source] = true;

  NodeId current = source;
  while (result.path.size() <= cap) {
    // The knowledge graph of `current`: advertised topology plus whatever
    // HELLO exchange taught it about its own neighborhood.
    Graph knowledge = advertised;
    if (options.use_local_views) {
      merge_local_view(knowledge, LocalView(full, current));
    } else {
      for (const Edge& e : full.neighbors(current))
        if (!knowledge.has_edge(current, e.to))
          knowledge.add_edge(current, e.to, e.qos);
    }

    const NodeId next =
        options.min_hop_routing
            ? reference::compute_min_hop_next_hop<M>(knowledge, current,
                                                     destination)
            : reference::compute_next_hop<M>(knowledge, current, destination);
    if (next == kInvalidNode) {
      result.status = ForwardingStatus::kNoRoute;
      return result;
    }
    result.path.push_back(next);
    if (next == destination) {
      result.status = ForwardingStatus::kDelivered;
      result.value = evaluate_path<M>(full, result.path);
      return result;
    }
    if (visited[next]) {
      result.status = ForwardingStatus::kLoop;
      return result;
    }
    visited[next] = true;
    current = next;
  }
  result.status = ForwardingStatus::kHopLimit;
  return result;
}

/// Hop-by-hop forwarding in the ANS-chain model over a `DirectedGraph`
/// relay base, copied once per hop.
template <Metric M>
ForwardingResult forward_via_ans(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node,
    NodeId source, NodeId destination,
    const ForwardingOptions& options = {}) {
  ForwardingResult result;
  result.path.push_back(source);
  if (source == destination) {
    result.status = ForwardingStatus::kDelivered;
    result.value = M::identity();
    return result;
  }

  // Directed relay base: x → w for w ∈ ANS(x), plus advertised final hops
  // into the destination.
  DirectedGraph base(full.node_count());
  for (NodeId x = 0; x < full.node_count(); ++x) {
    for (NodeId w : ans_per_node[x]) {
      const LinkQos* qos = full.edge_qos(x, w);
      if (qos == nullptr) continue;
      base.add_edge(x, w, *qos);
      if (w == destination) continue;
      // The undirected advertised link {x,w} is known network-wide; if one
      // end is the destination, the other end can complete the delivery.
      if (x == destination) base.add_edge(w, x, *qos);
    }
  }

  const std::size_t cap =
      options.max_hops > 0 ? options.max_hops : 4 * full.node_count();
  std::vector<bool> visited(full.node_count(), false);
  visited[source] = true;

  NodeId current = source;
  while (result.path.size() <= cap) {
    // This hop's own links, usable as its immediate next hop.
    DirectedGraph knowledge = base;
    for (const Edge& e : full.neighbors(current))
      knowledge.add_edge(current, e.to, e.qos);

    const NodeId next =
        options.min_hop_routing
            ? reference::compute_min_hop_next_hop<M, DirectedGraph>(
                  knowledge, current, destination)
            : reference::compute_next_hop<M, DirectedGraph>(knowledge, current,
                                                            destination);
    if (next == kInvalidNode) {
      result.status = ForwardingStatus::kNoRoute;
      return result;
    }
    result.path.push_back(next);
    if (next == destination) {
      result.status = ForwardingStatus::kDelivered;
      result.value = evaluate_path<M>(full, result.path);
      return result;
    }
    if (visited[next]) {
      result.status = ForwardingStatus::kLoop;
      return result;
    }
    visited[next] = true;
    current = next;
  }
  result.status = ForwardingStatus::kHopLimit;
  return result;
}

/// Source-route alternative: the whole path is fixed at the source from its
/// knowledge graph.
template <Metric M>
ForwardingResult source_route_packet(const Graph& full,
                                     const Graph& advertised, NodeId source,
                                     NodeId destination,
                                     const ForwardingOptions& options = {}) {
  Graph knowledge = advertised;
  if (options.use_local_views) {
    merge_local_view(knowledge, LocalView(full, source));
  } else {
    for (const Edge& e : full.neighbors(source))
      if (!knowledge.has_edge(source, e.to))
        knowledge.add_edge(source, e.to, e.qos);
  }
  const DijkstraResult dist = options.min_hop_routing
                                  ? dijkstra_min_hop<M>(knowledge, source)
                                  : dijkstra<M>(knowledge, source);
  ForwardingResult result;
  const std::vector<std::uint32_t> path =
      extract_path(dist, source, destination);
  if (path.empty()) {
    result.status = ForwardingStatus::kNoRoute;
    result.path.push_back(source);
    return result;
  }
  result.status = ForwardingStatus::kDelivered;
  result.path.assign(path.begin(), path.end());
  result.value = evaluate_path<M>(full, result.path);
  return result;
}

}  // namespace qolsr::reference
