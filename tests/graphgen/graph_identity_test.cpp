// Golden identity of built graphs.  Every count the engine reports depends on
// the exact port numbering a graph is built with (a process only ever sees
// port indices), so a change to Graph construction must reproduce every
// port's (to, rev, edge) bit for bit.  The constants below are FNV-1a digests
// over n, m, each node's ports in port order and each edge's endpoints,
// recorded from a per-node push_back builder, the reference numbering the CSR
// builder must keep.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "graphgen/generators.hpp"
#include "net/graph.hpp"
#include "net/rng.hpp"
#include "scenario/registry.hpp"

namespace ule {
namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
};

void digest_into(Fnv& f, const Graph& g) {
  f.add(g.n());
  f.add(g.m());
  for (NodeId u = 0; u < g.n(); ++u) {
    f.add(g.degree(u));
    for (const auto& he : g.ports(u)) {
      f.add(he.to);
      f.add(he.rev);
      f.add(he.edge);
    }
  }
  for (EdgeId e = 0; e < g.m(); ++e) {
    const auto [a, b] = g.edge_endpoints(e);
    f.add(a);
    f.add(b);
  }
}

std::uint64_t digest(const Graph& g) {
  Fnv f;
  digest_into(f, g);
  return f.h;
}

// One digest per family: three draws at each of four size caps, each draw
// seeded from its position so the set is fixed.
TEST(GraphIdentity, EveryFamilyDrawMatchesGolden) {
  const std::map<std::string, std::uint64_t> golden = {
      {"ring", 0x8470c051daf70de5ULL},
      {"path", 0xc62b61ef7c6ad7e0ULL},
      {"star", 0x7353a044006e9584ULL},
      {"complete", 0xaeb99d0ebad09bb2ULL},
      {"bipartite", 0x207b82da1128e689ULL},
      {"grid", 0xf908a6fdcd79a76fULL},
      {"torus", 0x623c5ff36e0f08acULL},
      {"hypercube", 0x39dabce84dd0e7b2ULL},
      {"tree", 0xa53e03cbd478bb21ULL},
      {"lollipop", 0x737b06f52dc4cf72ULL},
      {"barbell", 0x61f6732eade7e028ULL},
      {"cliquepath", 0xe84a87876333bfbcULL},
      {"gnm", 0x27eabaa4e454b42eULL},
      {"regular", 0x75d2eae8df44a591ULL},
      {"dumbbell", 0x9633d1a645993dfdULL},
      {"cliquecycle", 0xce9b36d5410ddc56ULL},
  };
  const std::size_t caps[] = {8, 33, 100, 256};
  std::size_t families = 0;
  for (const FamilyInfo& fam : default_families().all()) {
    Fnv f;
    for (const std::size_t max_n : caps) {
      for (std::uint64_t k = 0; k < 3; ++k) {
        Rng rng(1000 * max_n + 17 * k + families);
        const ScenarioParams params = fam.draw(rng, max_n);
        digest_into(f, fam.build(params, rng));
      }
    }
    const auto it = golden.find(fam.name);
    if (it == golden.end()) {
      ADD_FAILURE() << "no golden digest for family {\"" << fam.name
                    << "\", 0x" << std::hex << f.h << "ULL}";
    } else {
      EXPECT_EQ(f.h, it->second)
          << fam.name << ": digest 0x" << std::hex << f.h;
    }
    ++families;
  }
  EXPECT_EQ(families, golden.size());
}

// The dense benchmark graph: a connected G(2048, 2^19).
TEST(GraphIdentity, DenseRandomConnectedMatchesGolden) {
  Rng rng(3);
  const Graph g = make_random_connected(2048, std::size_t{1} << 19, rng);
  EXPECT_EQ(g.m(), std::size_t{1} << 19);
  EXPECT_EQ(digest(g), 0xb0782a4c745aecdeULL) << std::hex << digest(g);
}

TEST(GraphIdentity, ShuffledPortsMatchGolden) {
  Rng build_rng(5);
  Graph g = make_random_connected(200, 1500, build_rng);
  Rng shuffle_rng(11);
  g.shuffle_ports(shuffle_rng);
  EXPECT_EQ(digest(g), 0xdf9937ede7ca2542ULL) << std::hex << digest(g);
}

}  // namespace
}  // namespace ule
