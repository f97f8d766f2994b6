#include "graphgen/graph_algos.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graphgen/generators.hpp"

namespace ule {
namespace {

TEST(GraphAlgos, BfsDistancesOnPath) {
  const Graph g = make_path(6);
  const auto d = bfs_distances(g, 0);
  for (NodeId u = 0; u < 6; ++u) EXPECT_EQ(d[u], u);
}

TEST(GraphAlgos, EccentricityCenterVsEnd) {
  const Graph g = make_path(9);
  EXPECT_EQ(eccentricity(g, 0), 8u);
  EXPECT_EQ(eccentricity(g, 4), 4u);
}

TEST(GraphAlgos, HopDistance) {
  const Graph g = make_cycle(12);
  EXPECT_EQ(hop_distance(g, 0, 6), 6u);
  EXPECT_EQ(hop_distance(g, 0, 11), 1u);
}

TEST(GraphAlgos, DoubleSweepBracketsDiameter) {
  Rng rng(5);
  const Graph g = make_random_connected(60, 120, rng);
  const auto exact = diameter_exact(g);
  const auto [lb, ub] = diameter_double_sweep(g);
  EXPECT_LE(lb, exact);
  EXPECT_GE(ub, exact);
}

TEST(GraphAlgos, DiameterExactIsTheLargestEccentricity) {
  // diameter_exact shares one BFS workspace across its sources; each source
  // must still see a fresh one.
  std::vector<Graph> graphs{make_path(9), make_cycle(11), make_star(6),
                            make_grid(3, 7), make_lollipop(5, 4),
                            make_barbell(4, 3)};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    graphs.push_back(make_random_connected(40, 45 + 10 * seed, rng));
  }
  for (const Graph& g : graphs) {
    std::uint32_t want = 0;
    for (NodeId u = 0; u < g.n(); ++u) want = std::max(want, eccentricity(g, u));
    EXPECT_EQ(diameter_exact(g), want) << g.summary();
  }
}

TEST(GraphAlgos, DiameterExactThrowsOnDisconnected) {
  const Graph g = Graph::from_edges(5, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_THROW(diameter_exact(g), std::runtime_error);
}

TEST(GraphAlgos, ConnectivityDetectsDisconnected) {
  // Two disjoint edges (the "illegal experiment" graph G'^2 from the
  // Lemma 3.5 proof is exactly such a disconnected union).
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_FALSE(is_connected(g));
}

TEST(GraphAlgos, EccentricityThrowsOnDisconnected) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(eccentricity(g, 0), std::runtime_error);
}

}  // namespace
}  // namespace ule
