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

std::uint32_t diameter_per_source(const Graph& g) {
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

std::uint32_t diameter_bit_parallel(const Graph& g) {
  // Sources base .. base + 63 run as one pass: bit i of a node's word stands
  // for source base + i.  `seen` holds the sources that have reached a node,
  // `frontier` those that reached it at the current level.  Each level pushes
  // every non-empty frontier word across the node's ports into `next`; the
  // bits a node had not seen are its new frontier.  The last level that adds
  // any bit is the largest eccentricity among the pass's sources.  A pass
  // ends with `frontier` and `next` all zero, so only `seen` is reset.
  const std::size_t n = g.n();
  std::vector<std::uint64_t> seen(n), frontier(n), next(n);
  std::uint32_t best = 0;
  for (std::size_t base = 0; base < n; base += 64) {
    const std::size_t k = std::min<std::size_t>(64, n - base);
    const std::uint64_t all = k == 64 ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << k) - 1;
    std::fill(seen.begin(), seen.end(), 0);
    for (std::size_t i = 0; i < k; ++i)
      seen[base + i] = frontier[base + i] = std::uint64_t{1} << i;
    std::uint32_t level = 0;
    for (;;) {
      for (NodeId v = 0; v < n; ++v) {
        const std::uint64_t f = frontier[v];
        if (f == 0) continue;
        for (const auto& he : g.ports(v)) next[he.to] |= f;
      }
      std::uint64_t grew = 0;
      for (std::size_t v = 0; v < n; ++v) {
        const std::uint64_t fresh = next[v] & ~seen[v];
        next[v] = 0;
        seen[v] |= fresh;
        frontier[v] = fresh;
        grew |= fresh;
      }
      if (grew == 0) break;
      ++level;
    }
    for (std::size_t v = 0; v < n; ++v)
      if (seen[v] != all) throw std::runtime_error("graph is disconnected");
    best = std::max(best, level);
  }
  return best;
}

std::uint32_t diameter_exact(const Graph& g) {
  // A bit-parallel pass costs one sweep over the ports per level, and it
  // runs about D levels for 64 sources; one BFS per source costs one sweep
  // per source.  On C_n and P_n (Release, 4-core x86-64) the bit-parallel
  // path wins up to C_128 (D = 64) and loses from C_136 (D = 68); on paths
  // the two tie up to P_128 (D = 127) and one BFS per source wins from P_160.
  // The double sweep's upper bound lies in [D, 2D], so `ub <= 128` takes
  // the bit-parallel path for every C_n and P_n with D <= 64 and never for a
  // graph with D > 128.  At n <= 64 there is one pass of fewer than n
  // levels, which never loses to n BFSs, so the sweep is skipped.
  constexpr std::uint32_t kBitParallelMaxUpperBound = 128;
  if (g.n() <= 64) return diameter_bit_parallel(g);
  return diameter_double_sweep(g).second <= kBitParallelMaxUpperBound
             ? diameter_bit_parallel(g)
             : diameter_per_source(g);
}

std::pair<std::uint32_t, std::uint32_t> diameter_double_sweep(const Graph& g) {
  // Two BFSs: the first finds a node `far` farthest from node 0, the second
  // measures ecc(far).  Any eccentricity is a lower bound on D, and D is at
  // most twice any eccentricity, so the pair is (ecc(far), 2 * ecc(far)).
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
