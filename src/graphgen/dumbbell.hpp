// The dumbbell construction of Theorem 3.1 (message lower bound).
//
// Fixed-diameter variant from the end of the proof: each side is the graph
// G0 built from (i) a clique G0^1 on κ nodes, where κ is the largest integer
// with κ(κ+1)/2 <= m, (ii) a path G0^2 of n-κ nodes b_1..b_{n-κ}, and (iii)
// κ edges connecting b_1 to every clique node.  An *open graph* G[e'] erases
// one clique edge e', leaving two free ports; a dumbbell joins two ID-disjoint
// open graphs by two *bridge* edges between the freed ports.  The key
// property: whatever clique edges e', e'' are opened, the dumbbell's diameter
// is exactly 2(n-κ)+1, so knowledge of D gives algorithms no edge-dependent
// information.
//
// Bridge-crossing (BC): any universal leader-election or broadcast algorithm
// must move a message across a bridge; first_crossing
// (bounds/bridge_crossing.hpp) finds exactly that event in a recorded run.

#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"

namespace ule {

struct Dumbbell {
  Graph graph;
  EdgeId bridge1 = kNoEdge;
  EdgeId bridge2 = kNoEdge;
  std::size_t kappa = 0;       ///< clique size per side
  std::size_t side_n = 0;      ///< nodes per side; total n() = 2*side_n
  std::uint64_t diameter = 0;  ///< exact: 2*(side_n - kappa) + 1
  /// Left side occupies slots [0, side_n), right side [side_n, 2*side_n).
};

/// Largest clique size κ with κ(κ+1)/2 <= m (the paper's choice).
std::size_t dumbbell_clique_size(std::size_t m);

/// Number of distinct open-edge choices per side, m1 = κ(κ-1)/2.
std::size_t dumbbell_open_edge_count(std::size_t m);

/// Build Dumbbell(G'[e'], G''[e'']) where open_left / open_right index the
/// clique-edge lists (0 <= index < dumbbell_open_edge_count(m)).
/// Requires: per-side n >= κ+1, m >= 3 (so κ >= 2 and an edge can be opened).
Dumbbell make_dumbbell(std::size_t n, std::size_t m, std::size_t open_left,
                       std::size_t open_right);

}  // namespace ule
