#include "graphgen/graph_algos.hpp"

#include <algorithm>
#include <stdexcept>

namespace ule {

namespace {

// Breadth-first search from `src` into a caller-supplied workspace: `dist`
// holds n entries, all kUnreachable on entry, and `queue` n slots.  Returns
// how many nodes were reached; they sit in queue[0, count) in visiting order,
// so the last one is the farthest and a caller can reset just their entries.
std::size_t bfs_into(const Graph& g, NodeId src,
                     std::vector<std::uint32_t>& dist,
                     std::vector<NodeId>& queue) {
  std::size_t head = 0;
  std::size_t tail = 0;
  dist[src] = 0;
  queue[tail++] = src;
  while (head < tail) {
    const NodeId u = queue[head++];
    for (const auto& he : g.ports(u)) {
      if (dist[he.to] == kUnreachable) {
        dist[he.to] = dist[u] + 1;
        queue[tail++] = he.to;
      }
    }
  }
  return tail;
}

}  // namespace

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src) {
  std::vector<std::uint32_t> dist(g.n(), kUnreachable);
  std::vector<NodeId> queue(g.n());
  bfs_into(g, src, dist, queue);
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::uint32_t ecc = 0;
  for (const std::uint32_t d : dist) {
    if (d == kUnreachable) throw std::runtime_error("graph is disconnected");
    ecc = std::max(ecc, d);
  }
  return ecc;
}

bool is_connected(const Graph& g) {
  if (g.n() == 0) return true;
  const auto dist = bfs_distances(g, 0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::uint32_t d) { return d == kUnreachable; });
}

std::uint32_t diameter_exact(const Graph& g) {
  // One BFS workspace serves all n sources; after each BFS only the visited
  // nodes' `dist` entries are reset.
  std::vector<std::uint32_t> dist(g.n(), kUnreachable);
  std::vector<NodeId> queue(g.n());
  std::uint32_t best = 0;
  for (NodeId src = 0; src < g.n(); ++src) {
    const std::size_t reached = bfs_into(g, src, dist, queue);
    if (reached < g.n()) throw std::runtime_error("graph is disconnected");
    best = std::max(best, dist[queue[reached - 1]]);
    for (std::size_t i = 0; i < reached; ++i) dist[queue[i]] = kUnreachable;
  }
  return best;
}

std::pair<std::uint32_t, std::uint32_t> diameter_double_sweep(const Graph& g) {
  // Sweep 1: farthest node from 0.  Sweep 2: eccentricity of that node is a
  // lower bound; twice the BFS-tree height from its midpoint-ish node bounds
  // above.  We settle for lb and 2*lb as the (lb, ub) pair plus one repair
  // sweep, which is the standard cheap estimate.
  if (g.n() == 0) return {0, 0};
  auto d0 = bfs_distances(g, 0);
  NodeId far = 0;
  for (NodeId u = 0; u < g.n(); ++u) {
    if (d0[u] == kUnreachable) throw std::runtime_error("disconnected");
    if (d0[u] > d0[far]) far = u;
  }
  const std::uint32_t lb = eccentricity(g, far);
  return {lb, 2 * lb};
}

std::uint32_t hop_distance(const Graph& g, NodeId a, NodeId b) {
  return bfs_distances(g, a)[b];
}

}  // namespace ule
