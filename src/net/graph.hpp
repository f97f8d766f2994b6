// Port-numbered undirected graph: the network topology substrate.
//
// The paper's model (Section 2): each node is given a port numbering where
// each port is connected to an incident edge; the node has *no* knowledge of
// the neighbour at the other endpoint.  Algorithms therefore only ever see
// port indices; the Graph owns the port->neighbour mapping and the engine
// routes messages through it.  Edges carry dense global ids (used only by
// instrumentation, e.g. finding bridge crossings in a recorded run, never
// exposed to processes except where an algorithm legitimately learns an
// edge's identity by communication, as in Algorithm 1's inter-cluster graph).
//
// Storage is CSR: `offset_` holds n + 1 prefix sums of the degrees and node
// u's ports are half_[offset_[u] .. offset_[u + 1]), one HalfEdge array of 2m
// entries in all.  from_edges builds it in linear passes (count degrees,
// prefix-sum, fill in edge-list order), so node u's port p is the p-th edge
// of the input list incident to u: port numbering follows edge-list order,
// and every generator's graph is fixed by the order in which it lists its
// edges (tests/graphgen/graph_identity_test.cpp pins the digests).
// Duplicates are found by one mark pass over each node's ports, with no hash
// set.  Random generators reject repeated pairs before they get here
// (make_random_connected through a flat open-addressing key set in
// graphgen/generators.cpp), so from_edges never sees one from them.

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
  /// Node u's port p is the p-th edge of `edges` incident to u, and edge e is
  /// edges[e].  Self-loops, duplicate edges and out-of-range endpoints are
  /// rejected (throws std::invalid_argument).
  static Graph from_edges(std::size_t n,
                          const std::vector<std::pair<NodeId, NodeId>>& edges);

  std::size_t n() const { return offset_.empty() ? 0 : offset_.size() - 1; }
  std::size_t m() const { return endpoints_.size(); }

  std::size_t degree(NodeId u) const { return offset_[u + 1] - offset_[u]; }
  const HalfEdge& half_edge(NodeId u, PortId p) const {
    return half_[offset_[u] + p];
  }
  std::span<const HalfEdge> ports(NodeId u) const {
    return {half_.data() + offset_[u], degree(u)};
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
  std::vector<std::size_t> offset_;  ///< n + 1 entries; empty if default-built.
  std::vector<HalfEdge> half_;       ///< 2m entries, node by node.
  std::vector<std::pair<NodeId, NodeId>> endpoints_;
};

}  // namespace ule
