// diameter_exact chooses between two exact paths: 64 BFS sources per
// bit-parallel pass, or one BFS per source.  Both must return the same
// diameter on every graph, and both must throw on a disconnected one, so the
// choice between them can never show in a result.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/graph.hpp"
#include "net/rng.hpp"
#include "scenario/registry.hpp"

namespace ule {
namespace {

void expect_paths_agree(const Graph& g, std::uint32_t want) {
  EXPECT_EQ(diameter_per_source(g), want) << g.summary();
  EXPECT_EQ(diameter_bit_parallel(g), want) << g.summary();
  EXPECT_EQ(diameter_exact(g), want) << g.summary();
}

// The draws of GraphIdentity.EveryFamilyDrawMatchesGolden: three at each of
// four size caps, seeded from their position.
TEST(DiameterPaths, AgreeOnEveryFamilyDraw) {
  const std::size_t caps[] = {8, 33, 100, 256};
  std::size_t families = 0;
  for (const FamilyInfo& fam : default_families().all()) {
    for (const std::size_t max_n : caps) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        Rng rng(1000 * max_n + 17 * k + families);
        const ScenarioParams params = fam.draw(rng, max_n);
        const Graph g = fam.build(params, rng);
        SCOPED_TRACE(fam.name);
        expect_paths_agree(g, diameter_per_source(g));
      }
    }
    ++families;
  }
  EXPECT_GT(families, 0u);
}

// The switch is at the double sweep's upper bound 128.  On C_n it is
// 2 * floor(n / 2) and on P_n it is 2 * (n - 1), so C_128 and P_65 are the
// last graphs of each on the bit-parallel side.
TEST(DiameterPaths, AgreeOnRingsAndPathsEachSideOfTheSwitch) {
  for (const std::size_t n : {3u, 63u, 127u, 128u, 129u, 130u, 131u, 200u}) {
    const Graph g = make_cycle(n);
    expect_paths_agree(g, static_cast<std::uint32_t>(n / 2));
  }
  EXPECT_EQ(diameter_double_sweep(make_cycle(128)).second, 128u);
  EXPECT_EQ(diameter_double_sweep(make_cycle(130)).second, 130u);
  for (const std::size_t n : {2u, 64u, 65u, 66u, 67u, 200u}) {
    const Graph g = make_path(n);
    expect_paths_agree(g, static_cast<std::uint32_t>(n - 1));
  }
  EXPECT_EQ(diameter_double_sweep(make_path(65)).second, 128u);
  EXPECT_EQ(diameter_double_sweep(make_path(66)).second, 130u);
}

// A pass holds 64 sources; these sizes leave the last pass full, with one
// source, or with one source short.
TEST(DiameterPaths, AgreeAtBatchBoundaries) {
  for (const std::size_t n : {1u, 2u, 63u, 64u, 65u, 128u, 129u}) {
    SCOPED_TRACE(n);
    expect_paths_agree(make_path(n), static_cast<std::uint32_t>(n - 1));
    if (n >= 2) expect_paths_agree(make_star(n), n == 2 ? 1u : 2u);
    if (n >= 3) {
      expect_paths_agree(make_cycle(n), static_cast<std::uint32_t>(n / 2));
      Rng rng(n);
      const Graph g = make_random_connected(n, 2 * n, rng);
      expect_paths_agree(g, diameter_per_source(g));
    }
  }
  // A path of 128 nodes whose two ends are nodes 63 and 127, the last source
  // of each pass: a pass that dropped its last source would read 126.
  std::vector<NodeId> order{63};
  for (NodeId u = 0; u < 128; ++u)
    if (u != 63) order.push_back(u);
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (std::size_t i = 0; i + 1 < order.size(); ++i)
    edges.emplace_back(order[i], order[i + 1]);
  expect_paths_agree(Graph::from_edges(128, edges), 127u);
}

// A path over nodes 0..128 and node 129 on its own: the isolated node is
// the second source of the third pass, and both paths must still refuse.
TEST(DiameterPaths, BothThrowWhenAnIsolatedNodeSitsInALaterBatch) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u + 1 < 129; ++u) edges.emplace_back(u, u + 1);
  const Graph g = Graph::from_edges(130, edges);
  EXPECT_THROW(diameter_per_source(g), std::runtime_error);
  EXPECT_THROW(diameter_bit_parallel(g), std::runtime_error);
  EXPECT_THROW(diameter_exact(g), std::runtime_error);
}

}  // namespace
}  // namespace ule
