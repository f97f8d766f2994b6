// Centralized graph algorithms (harness-side only — distributed algorithms
// never call these; they exist to set up experiments and verify claims).

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/graph.hpp"

namespace ule {

inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;

/// BFS hop distances from src (kUnreachable where disconnected).
std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src);

/// Max finite distance from src; throws if the graph is disconnected.
std::uint32_t eccentricity(const Graph& g, NodeId src);

bool is_connected(const Graph& g);

/// Exact diameter: the largest eccentricity; throws if the graph is
/// disconnected.  Takes diameter_bit_parallel when the double sweep bounds D
/// small, diameter_per_source otherwise (graph_algos.cpp has the measured
/// crossover).
std::uint32_t diameter_exact(const Graph& g);

/// diameter_exact's two paths, with its result and its throw.  One BFS per
/// source: O(n*m).
std::uint32_t diameter_per_source(const Graph& g);
/// 64 BFS sources per pass, one bit each in a word per node: ceil(n/64)
/// passes of at most D + 1 levels, each level O(n + m) word operations.
std::uint32_t diameter_bit_parallel(const Graph& g);

/// Double sweep: (ecc(far), 2 * ecc(far)) for a node `far` farthest from
/// node 0, a lower and an upper bound on the diameter from two BFSs.
std::pair<std::uint32_t, std::uint32_t> diameter_double_sweep(const Graph& g);

/// Hop distance between two nodes.
std::uint32_t hop_distance(const Graph& g, NodeId a, NodeId b);

}  // namespace ule
