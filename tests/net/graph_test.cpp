#include "net/graph.hpp"

#include <gtest/gtest.h>

#include "net/rng.hpp"

namespace ule {
namespace {

TEST(Graph, TriangleBasics) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.n(), 3u);
  EXPECT_EQ(g.m(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_EQ(g.max_degree(), 2u);
  EXPECT_EQ(g.degree_sum(), 6u);
}

TEST(Graph, ReversePortsAreConsistent) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}});
  for (NodeId u = 0; u < g.n(); ++u) {
    for (PortId p = 0; p < g.degree(u); ++p) {
      const auto& he = g.half_edge(u, p);
      const auto& back = g.half_edge(he.to, he.rev);
      EXPECT_EQ(back.to, u) << "u=" << u << " p=" << p;
      EXPECT_EQ(back.rev, p);
      EXPECT_EQ(back.edge, he.edge);
    }
  }
}

TEST(Graph, EdgeEndpointsNormalized) {
  const Graph g = Graph::from_edges(3, {{2, 0}, {1, 2}});
  EXPECT_EQ(g.edge_endpoints(0), (std::pair<NodeId, NodeId>{0, 2}));
  EXPECT_EQ(g.edge_endpoints(1), (std::pair<NodeId, NodeId>{1, 2}));
}

TEST(Graph, PortToFindsNeighbor) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_NE(g.port_to(0, 1), kNoPort);
  EXPECT_EQ(g.port_to(0, 2), kNoPort);
  EXPECT_EQ(g.half_edge(0, g.port_to(0, 1)).to, 1u);
}

TEST(Graph, RejectsSelfLoop) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsDuplicateEdge) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 1}, {1, 0}}), std::invalid_argument);
}

TEST(Graph, RejectsReversedDuplicateFarFromItsTwin) {
  // A path 0-1-...-99 then (1, 0): the duplicate is 99 edges after its twin
  // and written the other way round.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i + 1 < 100; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(1, 0);
  EXPECT_THROW(Graph::from_edges(100, edges), std::invalid_argument);
}

TEST(Graph, PortsFollowEdgeListOrder) {
  const Graph g = Graph::from_edges(4, {{2, 0}, {0, 3}, {3, 2}, {1, 0}});
  ASSERT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.half_edge(0, 0).to, 2u);
  EXPECT_EQ(g.half_edge(0, 1).to, 3u);
  EXPECT_EQ(g.half_edge(0, 2).to, 1u);
  EXPECT_EQ(g.half_edge(2, 0).rev, 0u);
  EXPECT_EQ(g.half_edge(2, 1).to, 3u);
  EXPECT_EQ(g.half_edge(2, 1).rev, 1u);
  EXPECT_EQ(g.half_edge(1, 0).edge, 3u);
}

TEST(Graph, EmptyGraphsHaveNoNodes) {
  const Graph none;
  EXPECT_EQ(none.n(), 0u);
  EXPECT_EQ(none.m(), 0u);
  EXPECT_EQ(none.max_degree(), 0u);
  const Graph zero = Graph::from_edges(0, {});
  EXPECT_EQ(zero.n(), 0u);
  EXPECT_EQ(zero.m(), 0u);
  EXPECT_EQ(zero.summary(), "n=0 m=0 maxdeg=0");
}

TEST(Graph, RejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), std::invalid_argument);
}

TEST(Graph, ShufflePortsPreservesStructure) {
  Graph g = Graph::from_edges(
      5, {{0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 2}, {2, 3}, {3, 4}});
  Rng rng(42);
  g.shuffle_ports(rng);
  EXPECT_EQ(g.m(), 7u);
  // Reverse-port consistency must survive shuffling.
  for (NodeId u = 0; u < g.n(); ++u) {
    std::vector<bool> seen(g.n(), false);
    for (PortId p = 0; p < g.degree(u); ++p) {
      const auto& he = g.half_edge(u, p);
      EXPECT_FALSE(seen[he.to]) << "duplicate neighbor after shuffle";
      seen[he.to] = true;
      EXPECT_EQ(g.half_edge(he.to, he.rev).to, u);
      EXPECT_EQ(g.half_edge(he.to, he.rev).rev, p);
    }
  }
}

TEST(Graph, ShuffleActuallyPermutes) {
  // With 8 ports at the hub, identity permutation has probability 1/8!.
  Graph g = Graph::from_edges(9, {{0, 1}, {0, 2}, {0, 3}, {0, 4},
                                  {0, 5}, {0, 6}, {0, 7}, {0, 8}});
  const NodeId before = g.half_edge(0, 0).to;
  bool changed = false;
  Rng rng(7);
  for (int i = 0; i < 5 && !changed; ++i) {
    g.shuffle_ports(rng);
    changed = g.half_edge(0, 0).to != before;
  }
  EXPECT_TRUE(changed);
}

TEST(Graph, SummaryMentionsCounts) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  EXPECT_EQ(g.summary(), "n=3 m=2 maxdeg=2");
}

}  // namespace
}  // namespace ule
