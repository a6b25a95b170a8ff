#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "graph/geometry.hpp"
#include "graph/node_id.hpp"
#include "metrics/link_qos.hpp"

namespace qolsr {

/// Outgoing half of an undirected link.
struct Edge {
  NodeId to = kInvalidNode;
  LinkQos qos;
};

/// Undirected graph with QoS-annotated links and optional node positions —
/// the network model `G = (V, E)` of the paper (§III-A): bidirectional
/// links, one QoS record per link (both directions see the same values).
///
/// Adjacency lists are kept sorted by neighbor id, so `neighbors()` can be
/// binary-searched and iteration order is deterministic.
class Graph {
 public:
  Graph() = default;
  /// Creates `n` isolated nodes (ids 0..n-1) at the origin.
  explicit Graph(std::size_t n) : adjacency_(n), positions_(n) {}

  NodeId add_node(Point position = {});

  /// Re-dimensions to `n` isolated nodes at the origin, reusing the
  /// adjacency storage already allocated — the capacity-preserving form of
  /// `*this = Graph(n)` for views that are rebuilt in place (e.g. a node's
  /// cached knowledge graph, re-derived on every topology mutation).
  void reset_nodes(std::size_t n);

  /// Inserts the undirected link (u,v). Precondition: u != v, both exist,
  /// and the link is not already present (checked in debug builds).
  void add_edge(NodeId u, NodeId v, LinkQos qos = {});

  /// Updates the QoS of an existing link (both directions).
  /// Returns false when the link does not exist.
  bool set_edge_qos(NodeId u, NodeId v, const LinkQos& qos);

  /// Removes the undirected link (u,v). Returns false when absent. Used by
  /// the failure-injection tests and the simulator's link-failure hook.
  bool remove_edge(NodeId u, NodeId v);

  /// The outgoing half (u,v) — an element of `neighbors(u)` — or nullptr
  /// when absent.
  const Edge* find_edge(NodeId u, NodeId v) const;

  bool has_edge(NodeId u, NodeId v) const { return find_edge(u, v) != nullptr; }

  /// QoS of link (u,v), or nullptr when absent.
  const LinkQos* edge_qos(NodeId u, NodeId v) const {
    const Edge* e = find_edge(u, v);
    return e != nullptr ? &e->qos : nullptr;
  }

  std::span<const Edge> neighbors(NodeId u) const {
    return adjacency_[u];
  }

  std::size_t degree(NodeId u) const { return adjacency_[u].size(); }

  std::size_t node_count() const { return adjacency_.size(); }
  /// Number of undirected links.
  std::size_t edge_count() const { return edge_count_; }

  const Point& position(NodeId u) const { return positions_[u]; }
  void set_position(NodeId u, Point p) { positions_[u] = p; }

 private:
  Edge* find_edge(NodeId u, NodeId v);

  std::vector<std::vector<Edge>> adjacency_;
  std::vector<Point> positions_;
  std::size_t edge_count_ = 0;
};

}  // namespace qolsr
