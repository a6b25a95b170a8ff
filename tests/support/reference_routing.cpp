#include "support/reference_routing.hpp"

#include <stdexcept>
#include <string>

namespace qolsr::reference {

Graph build_advertised_topology(
    const Graph& full, const std::vector<std::vector<NodeId>>& ans_per_node) {
  if (ans_per_node.size() != full.node_count())
    throw std::logic_error(
        "build_advertised_topology: " + std::to_string(ans_per_node.size()) +
        " advertised sets for " + std::to_string(full.node_count()) +
        " nodes");
  Graph advertised(full.node_count());
  for (NodeId u = 0; u < full.node_count(); ++u) {
    advertised.set_position(u, full.position(u));
    for (NodeId w : ans_per_node[u]) {
      if (advertised.has_edge(u, w)) continue;  // already advertised by w
      const LinkQos* qos = full.edge_qos(u, w);
      if (qos == nullptr)
        throw std::logic_error(
            "build_advertised_topology: ANS member " + std::to_string(w) +
            " of node " + std::to_string(u) +
            " is not a 1-hop neighbor (selection and topology disagree)");
      advertised.add_edge(u, w, *qos);
    }
  }
  return advertised;
}

void merge_local_view(Graph& base, const LocalView& view) {
  for (std::uint32_t a = 0; a < view.size(); ++a) {
    const NodeId ga = view.global_id(a);
    for (const LocalView::LocalEdge& e : view.neighbors(a)) {
      if (e.to <= a) continue;  // each undirected link once
      const NodeId gb = view.global_id(e.to);
      if (!base.has_edge(ga, gb)) base.add_edge(ga, gb, e.qos);
    }
  }
}

}  // namespace qolsr::reference
