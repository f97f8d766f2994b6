#include "net/graph.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

namespace ule {

Graph Graph::from_edges(std::size_t n,
                        const std::vector<std::pair<NodeId, NodeId>>& edges) {
  Graph g;
  g.adj_.resize(n);
  g.endpoints_.reserve(edges.size());

  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size() * 2);

  for (const auto& [a, b] : edges) {
    if (a >= n || b >= n) throw std::invalid_argument("edge endpoint out of range");
    if (a == b) throw std::invalid_argument("self-loop not allowed");
    const NodeId u = std::min(a, b);
    const NodeId v = std::max(a, b);
    const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
    if (!seen.insert(key).second) throw std::invalid_argument("duplicate edge");

    const auto e = static_cast<EdgeId>(g.endpoints_.size());
    const auto pu = static_cast<PortId>(g.adj_[u].size());
    const auto pv = static_cast<PortId>(g.adj_[v].size());
    g.adj_[u].push_back(HalfEdge{v, pv, e});
    g.adj_[v].push_back(HalfEdge{u, pu, e});
    g.endpoints_.emplace_back(u, v);
  }
  return g;
}

PortId Graph::port_to(NodeId u, NodeId v) const {
  for (PortId p = 0; p < adj_[u].size(); ++p) {
    if (adj_[u][p].to == v) return p;
  }
  return kNoPort;
}

void Graph::shuffle_ports(Rng& rng) {
  // Permute each node's port list, then repair all `rev` pointers.
  for (auto& ports : adj_) {
    for (std::size_t i = ports.size(); i > 1; --i) {
      const std::size_t j = rng.below(i);
      std::swap(ports[i - 1], ports[j]);
    }
  }
  // Rebuild rev: for each directed half-edge (u -> v via port p, edge e),
  // find v's port carrying edge e.
  std::vector<PortId> port_at_u(endpoints_.size(), kNoPort);
  std::vector<PortId> port_at_v(endpoints_.size(), kNoPort);
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (PortId p = 0; p < adj_[u].size(); ++p) {
      const EdgeId e = adj_[u][p].edge;
      if (endpoints_[e].first == u) {
        port_at_u[e] = p;
      } else {
        port_at_v[e] = p;
      }
    }
  }
  for (NodeId u = 0; u < adj_.size(); ++u) {
    for (auto& he : adj_[u]) {
      const EdgeId e = he.edge;
      he.rev = (endpoints_[e].first == he.to) ? port_at_u[e] : port_at_v[e];
    }
  }
}

std::size_t Graph::max_degree() const {
  std::size_t best = 0;
  for (const auto& ports : adj_) best = std::max(best, ports.size());
  return best;
}

std::string Graph::summary() const {
  return "n=" + std::to_string(n()) + " m=" + std::to_string(m()) +
         " maxdeg=" + std::to_string(max_degree());
}

}  // namespace ule
