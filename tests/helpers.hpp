// Shared fixtures for the test suite: a registry of graph families with
// exactly known diameters, used by the parameterized cross-algorithm tests,
// and the "same counters" predicate every run-identity check asserts.

#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graphgen/clique_cycle.hpp"
#include "graphgen/dumbbell.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "graphgen/path_of_cliques.hpp"
#include "net/engine.hpp"
#include "net/graph.hpp"
#include "net/rng.hpp"

namespace ule::testing {

/// Every for_each_counter counter of `got` equals `base`'s; a failure names
/// each differing counter with both values.
inline ::testing::AssertionResult same_counters(const RunResult& base,
                                                const RunResult& got) {
  const std::vector<CounterDiff> diffs = diff_counters(base, got);
  if (diffs.empty()) return ::testing::AssertionSuccess();
  ::testing::AssertionResult fail = ::testing::AssertionFailure();
  for (const CounterDiff& d : diffs)
    fail << d.name << " " << d.got << " != " << d.base << "; ";
  return fail;
}

struct Family {
  std::string name;
  Graph graph;
  std::uint32_t diameter = 0;  ///< exact
};

/// Small-to-medium graphs covering every structural regime the paper's
/// algorithms care about: sparse/dense, low/high diameter, symmetric/skewed.
inline std::vector<Family> standard_families() {
  std::vector<Family> fams;
  auto add = [&fams](std::string name, Graph g) {
    const std::uint32_t d = diameter_exact(g);
    fams.push_back(Family{std::move(name), std::move(g), d});
  };

  Rng rng(0xFA417ULL);
  add("cycle24", make_cycle(24));
  add("path17", make_path(17));
  add("star16", make_star(16));
  add("complete12", make_complete(12));
  add("bipartite5x7", make_complete_bipartite(5, 7));
  add("grid4x6", make_grid(4, 6));
  add("torus4x4", make_torus(4, 4));
  add("hypercube4", make_hypercube(4));
  add("tree26", make_balanced_tree(26, 2));
  add("lollipop8+10", make_lollipop(8, 10));
  add("barbell6-5", make_barbell(6, 5));
  add("gnm40-100", make_random_connected(40, 100, rng));
  add("gnm30-60", make_random_connected(30, 60, rng));
  add("regular20-4", make_random_regular(20, 4, rng));
  add("dumbbell16-30", make_dumbbell(16, 30, 0, 5).graph);
  add("cliquecycle24-8", make_clique_cycle(24, 8).graph);
  add("cliquepath6x4", make_path_of_cliques(6, 4));
  return fams;
}

/// A couple of larger graphs for asymptotic property checks.
inline std::vector<Family> large_families() {
  std::vector<Family> fams;
  auto add = [&fams](std::string name, Graph g) {
    const std::uint32_t d = diameter_exact(g);
    fams.push_back(Family{std::move(name), std::move(g), d});
  };
  Rng rng(0xB16ULL);
  add("gnm300-1200", make_random_connected(300, 1200, rng));
  add("cycle200", make_cycle(200));
  add("grid12x12", make_grid(12, 12));
  add("regular128-6", make_random_regular(128, 6, rng));
  return fams;
}

}  // namespace ule::testing
