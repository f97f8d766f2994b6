// Port-numbered undirected graph: the network topology substrate.
//
// The paper's model (Section 2): each node is given a port numbering where
// each port is connected to an incident edge; the node has *no* knowledge of
// the neighbour at the other endpoint.  Algorithms therefore only ever see
// port indices; the Graph owns the port->neighbour mapping and the engine
// routes messages through it.  Edges carry dense global ids (used only by
// instrumentation, e.g. finding bridge crossings in a trace, never exposed
// to processes except where an algorithm legitimately learns an edge's
// identity by communication, as in Algorithm 1's inter-cluster graph).

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/rng.hpp"
#include "net/types.hpp"

namespace ule {

class Graph {
 public:
  /// One directed half of an undirected edge, as seen from its source node.
  struct HalfEdge {
    NodeId to = kNoNode;       ///< Neighbour reached through this port.
    PortId rev = kNoPort;      ///< Port at `to` leading back here.
    EdgeId edge = kNoEdge;     ///< Global undirected edge id.
  };

  Graph() = default;

  /// Build from an undirected edge list over nodes 0..n-1.
  /// Self-loops and duplicate edges are rejected (throws std::invalid_argument).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  std::size_t n() const { return adj_.size(); }
  std::size_t m() const { return endpoints_.size(); }

  std::size_t degree(NodeId u) const { return adj_[u].size(); }
  const HalfEdge& half_edge(NodeId u, PortId p) const { return adj_[u][p]; }
  std::span<const HalfEdge> ports(NodeId u) const {
    return {adj_[u].data(), adj_[u].size()};
  }

  /// Endpoints of undirected edge e (u < v normalised at construction).
  std::pair<NodeId, NodeId> edge_endpoints(EdgeId e) const {
    return endpoints_[e];
  }

  /// Finds the port at u leading to v, or kNoPort if not adjacent. O(deg(u)).
  PortId port_to(NodeId u, NodeId v) const;

  /// Randomly permute every node's port numbering (an adversarial degree of
  /// freedom in the lower-bound constructions).  Preserves edge ids.
  void shuffle_ports(Rng& rng);

  std::size_t max_degree() const;
  std::uint64_t degree_sum() const { return 2 * m(); }

  /// Human-readable one-line summary ("n=12 m=17 maxdeg=5").
  std::string summary() const;

 private:
  std::vector<std::vector<HalfEdge>> adj_;
  std::vector<std::pair<NodeId, NodeId>> endpoints_;
};

}  // namespace ule
