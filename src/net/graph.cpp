#include "net/graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace ule {

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g;
  g.offset_.assign(n + 1, 0);
  g.endpoints_.reserve(edges.size());

  // Pass 1: validate and count degrees (into offset_[u + 1]).
  for (const auto& [a, b] : edges) {
    if (a >= n || b >= n) throw std::invalid_argument("edge endpoint out of range");
    if (a == b) throw std::invalid_argument("self-loop not allowed");
    ++g.offset_[a + 1];
    ++g.offset_[b + 1];
  }
  for (std::size_t u = 0; u < n; ++u) g.offset_[u + 1] += g.offset_[u];

  // Pass 2: fill in edge-list order, so a node's p-th incident edge in the
  // list is its port p.
  g.half_.resize(2 * edges.size());
  std::vector<PortId> next_port(n, 0);
  for (const auto& [a, b] : edges) {
    const NodeId u = std::min(a, b);
    const NodeId v = std::max(a, b);
    const auto e = static_cast<EdgeId>(g.endpoints_.size());
    const PortId pu = next_port[u]++;
    const PortId pv = next_port[v]++;
    g.half_[g.offset_[u] + pu] = HalfEdge{v, pv, e};
    g.half_[g.offset_[v] + pv] = HalfEdge{u, pu, e};
    g.endpoints_.emplace_back(u, v);
  }

  // Pass 3: a duplicate edge shows up as a neighbour met twice in one port
  // list; mark each neighbour with the node whose list is being scanned.
  std::vector<NodeId> seen_from(n, kNoNode);
  for (NodeId u = 0; u < n; ++u) {
    for (const HalfEdge& he : g.ports(u)) {
      if (seen_from[he.to] == u) throw std::invalid_argument("duplicate edge");
      seen_from[he.to] = u;
    }
  }
  return g;
}

PortId Graph::port_to(NodeId u, NodeId v) const {
  const auto list = ports(u);
  for (PortId p = 0; p < list.size(); ++p) {
    if (list[p].to == v) return p;
  }
  return kNoPort;
}

void Graph::shuffle_ports(Rng& rng) {
  // Permute each node's port list, then repair all `rev` pointers.
  for (NodeId u = 0; u < n(); ++u) {
    HalfEdge* list = half_.data() + offset_[u];
    for (std::size_t i = degree(u); i > 1; --i) {
      const std::size_t j = rng.below(i);
      std::swap(list[i - 1], list[j]);
    }
  }
  // Rebuild rev: for each directed half-edge (u -> v via port p, edge e),
  // find v's port carrying edge e.
  std::vector<PortId> port_at_u(endpoints_.size(), kNoPort);
  std::vector<PortId> port_at_v(endpoints_.size(), kNoPort);
  for (NodeId u = 0; u < n(); ++u) {
    const auto list = ports(u);
    for (PortId p = 0; p < list.size(); ++p) {
      const EdgeId e = list[p].edge;
      if (endpoints_[e].first == u) {
        port_at_u[e] = p;
      } else {
        port_at_v[e] = p;
      }
    }
  }
  for (HalfEdge& he : half_) {
    const EdgeId e = he.edge;
    he.rev = (endpoints_[e].first == he.to) ? port_at_u[e] : port_at_v[e];
  }
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (NodeId u = 0; u < n(); ++u) best = std::max(best, degree(u));
  return best;
}

std::string Graph::summary() const {
  return "n=" + std::to_string(n()) + " m=" + std::to_string(m()) +
         " maxdeg=" + std::to_string(max_degree());
}

}  // namespace ule
