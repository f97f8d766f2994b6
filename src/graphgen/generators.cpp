#include "graphgen/generators.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "graphgen/graph_algos.hpp"

namespace ule {

namespace {
using EdgeList = std::vector<std::pair<NodeId, NodeId>>;

std::uint64_t edge_key(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

// Set of edge keys for the rejection sampler: one flat open-addressing table
// with linear probing, sized up front to a power of two of at least twice the
// keys it will hold, so an insert never allocates or rehashes.  Key 0 would be
// the self-loop (0, 0), which is never inserted, so 0 marks an empty slot.
class EdgeKeySet {
 public:
  explicit EdgeKeySet(std::size_t max_keys) {
    std::size_t slots = 16;
    while (slots < 2 * max_keys) slots *= 2;
    slots_.assign(slots, 0);
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  }

  /// Adds `key`; false if it was already present.
  bool insert(std::uint64_t key) {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = (key * 0x9E3779B97F4A7C15ULL) >> shift_;;
         i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] == 0) {
        slots_[i] = key;
        return true;
      }
    }
  }

 private:
  std::vector<std::uint64_t> slots_;
  unsigned shift_ = 0;
};
}  // namespace

Graph make_path(std::size_t n) {
  if (n == 0) throw std::invalid_argument("empty path");
  EdgeList e;
  for (NodeId i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  return Graph::from_edges(n, e);
}

Graph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  EdgeList e;
  for (NodeId i = 0; i + 1 < n; ++i) e.emplace_back(i, i + 1);
  e.emplace_back(static_cast<NodeId>(n - 1), 0);
  return Graph::from_edges(n, e);
}

Graph make_star(std::size_t n) {
  if (n < 2) throw std::invalid_argument("star needs n >= 2");
  EdgeList e;
  for (NodeId i = 1; i < n; ++i) e.emplace_back(0, i);
  return Graph::from_edges(n, e);
}

Graph make_complete(std::size_t n) {
  if (n < 2) throw std::invalid_argument("complete graph needs n >= 2");
  EdgeList e;
  for (NodeId i = 0; i < n; ++i)
    for (NodeId j = i + 1; j < n; ++j) e.emplace_back(i, j);
  return Graph::from_edges(n, e);
}

Graph make_complete_bipartite(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) throw std::invalid_argument("empty side");
  EdgeList e;
  for (NodeId i = 0; i < a; ++i)
    for (NodeId j = 0; j < b; ++j)
      e.emplace_back(i, static_cast<NodeId>(a + j));
  return Graph::from_edges(a + b, e);
}

Graph make_grid(std::size_t rows, std::size_t cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("empty grid");
  EdgeList e;
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) e.emplace_back(at(r, c), at(r, c + 1));
      if (r + 1 < rows) e.emplace_back(at(r, c), at(r + 1, c));
    }
  return Graph::from_edges(rows * cols, e);
}

Graph make_torus(std::size_t rows, std::size_t cols) {
  if (rows < 3 || cols < 3)
    throw std::invalid_argument("torus needs both dims >= 3");
  EdgeList e;
  auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      e.emplace_back(at(r, c), at(r, (c + 1) % cols));
      e.emplace_back(at(r, c), at((r + 1) % rows, c));
    }
  return Graph::from_edges(rows * cols, e);
}

Graph make_hypercube(unsigned dim) {
  if (dim == 0 || dim > 20) throw std::invalid_argument("bad hypercube dim");
  const std::size_t n = std::size_t{1} << dim;
  EdgeList e;
  for (NodeId u = 0; u < n; ++u)
    for (unsigned b = 0; b < dim; ++b) {
      const NodeId v = u ^ (NodeId{1} << b);
      if (u < v) e.emplace_back(u, v);
    }
  return Graph::from_edges(n, e);
}

Graph make_balanced_tree(std::size_t n, std::size_t arity) {
  if (n == 0 || arity == 0) throw std::invalid_argument("bad tree shape");
  EdgeList e;
  for (NodeId i = 1; i < n; ++i)
    e.emplace_back(static_cast<NodeId>((i - 1) / arity), i);
  return Graph::from_edges(n, e);
}

Graph make_lollipop(std::size_t clique, std::size_t tail) {
  if (clique < 2) throw std::invalid_argument("lollipop clique needs >= 2");
  EdgeList e;
  for (NodeId i = 0; i < clique; ++i)
    for (NodeId j = i + 1; j < clique; ++j) e.emplace_back(i, j);
  // Path b1..b_tail hangs off clique node 0 (b1 adjacent to ALL clique nodes
  // in the paper's G0; see dumbbell.cpp — this generator is the simple
  // textbook lollipop used by tests and examples).
  NodeId prev = 0;
  for (std::size_t t = 0; t < tail; ++t) {
    const NodeId next = static_cast<NodeId>(clique + t);
    e.emplace_back(prev, next);
    prev = next;
  }
  return Graph::from_edges(clique + tail, e);
}

Graph make_barbell(std::size_t clique, std::size_t bridge_len) {
  if (clique < 2) throw std::invalid_argument("barbell clique needs >= 2");
  EdgeList e;
  const std::size_t n = 2 * clique + (bridge_len ? bridge_len - 1 : 0);
  auto left = [](std::size_t i) { return static_cast<NodeId>(i); };
  auto right = [&](std::size_t i) {
    return static_cast<NodeId>(clique + (bridge_len ? bridge_len - 1 : 0) + i);
  };
  for (std::size_t i = 0; i < clique; ++i)
    for (std::size_t j = i + 1; j < clique; ++j) {
      e.emplace_back(left(i), left(j));
      e.emplace_back(right(i), right(j));
    }
  // Path of bridge_len edges from left(0) to right(0).
  NodeId prev = left(0);
  for (std::size_t t = 0; t + 1 < bridge_len; ++t) {
    const NodeId mid = static_cast<NodeId>(clique + t);
    e.emplace_back(prev, mid);
    prev = mid;
  }
  if (bridge_len == 0) throw std::invalid_argument("bridge_len must be >= 1");
  e.emplace_back(prev, right(0));
  return Graph::from_edges(n, e);
}

Graph make_random_connected(std::size_t n, std::size_t m, Rng& rng) {
  if (n < 2) throw std::invalid_argument("need n >= 2");
  const std::size_t max_m = n * (n - 1) / 2;
  if (m < n - 1 || m > max_m)
    throw std::invalid_argument("m out of [n-1, n(n-1)/2]");

  EdgeList e;
  e.reserve(m);
  EdgeKeySet used(m);

  // Random spanning tree: random permutation, attach each node to a random
  // earlier one (uniform random recursive tree on a shuffled labelling).
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), NodeId{0});
  for (std::size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng.below(i)]);
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId u = order[i];
    const NodeId v = order[rng.below(i)];
    e.emplace_back(u, v);
    used.insert(edge_key(u, v));
  }
  while (e.size() < m) {
    const NodeId u = static_cast<NodeId>(rng.below(n));
    const NodeId v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (!used.insert(edge_key(u, v))) continue;
    e.emplace_back(u, v);
  }
  return Graph::from_edges(n, e);
}

Graph make_random_regular(std::size_t n, std::size_t d, Rng& rng) {
  if (d >= n || (n * d) % 2 != 0)
    throw std::invalid_argument("need d < n and n*d even");
  // Pairing model with edge-swap repair.  Rejecting the whole matching on
  // any self-loop or duplicate works only for tiny d (the simple-graph
  // probability is ~e^{-d^2/4}, i.e. hopeless already at d = 6); instead a
  // defective pair is repaired by a degree-preserving 2-swap with a random
  // partner edge, which converges in O(defects) expected swaps.
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::vector<NodeId> stubs;
    stubs.reserve(n * d);
    for (NodeId u = 0; u < n; ++u)
      for (std::size_t k = 0; k < d; ++k) stubs.push_back(u);
    for (std::size_t i = stubs.size(); i > 1; --i)
      std::swap(stubs[i - 1], stubs[rng.below(i)]);

    EdgeList e;
    e.reserve(n * d / 2);
    std::unordered_map<std::uint64_t, int> count;
    for (std::size_t i = 0; i + 1 < stubs.size(); i += 2) {
      e.emplace_back(stubs[i], stubs[i + 1]);
      if (stubs[i] != stubs[i + 1]) ++count[edge_key(stubs[i], stubs[i + 1])];
    }
    const auto defective = [&](const std::pair<NodeId, NodeId>& ed) {
      return ed.first == ed.second || count[edge_key(ed.first, ed.second)] > 1;
    };

    bool simple = false;
    for (std::size_t budget = 400 * e.size(); budget > 0; --budget) {
      std::vector<std::size_t> bad;
      for (std::size_t i = 0; i < e.size(); ++i)
        if (defective(e[i])) bad.push_back(i);
      if (bad.empty()) {
        simple = true;
        break;
      }
      const std::size_t i = bad[rng.below(bad.size())];
      const std::size_t j = rng.below(e.size());
      if (i == j) continue;
      const auto [a, b] = e[i];
      const auto [c, f] = e[j];
      // Propose (a,b),(c,f) -> (a,f),(c,b); require both new edges simple
      // and fresh so the defect count strictly drops.
      if (a == f || c == b) continue;
      if (count[edge_key(a, f)] > 0 || count[edge_key(c, b)] > 0) continue;
      if (a != b) --count[edge_key(a, b)];
      if (c != f) --count[edge_key(c, f)];
      ++count[edge_key(a, f)];
      ++count[edge_key(c, b)];
      e[i] = {a, f};
      e[j] = {c, b};
    }
    if (!simple) continue;
    Graph g = Graph::from_edges(n, e);
    if (is_connected(g)) return g;
  }
  throw std::runtime_error("random regular generation failed (try d >= 3)");
}

}  // namespace ule
