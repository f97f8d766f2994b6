#include "spanner/baswana_sen.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "election/least_el.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/engine.hpp"
#include "spanner/spanner_elect.hpp"

namespace ule {
namespace {

/// Run the spanner protocol and extract the selected edge set.
Graph extract_spanner(const Graph& g, std::uint32_t k, std::uint64_t seed,
                      std::size_t* out_edges = nullptr) {
  EngineConfig cfg;
  cfg.seed = seed;
  SyncEngine eng(g, cfg);
  Rng id_rng(seed ^ 0x5A5AULL);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
  eng.set_knowledge(Knowledge::of_n(g.n()));
  eng.init_processes(make_baswana_sen(SpannerConfig{k}));
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);

  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<bool> in(g.m(), false);
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = dynamic_cast<const BaswanaSenProcess*>(eng.process(s));
    EXPECT_TRUE(p->spanner_done());
    for (const PortId port : p->spanner_ports()) {
      const EdgeId e = g.half_edge(s, port).edge;
      if (!in[e]) {
        in[e] = true;
        edges.push_back(g.edge_endpoints(e));
      }
    }
  }
  if (out_edges) *out_edges = edges.size();
  return Graph::from_edges(g.n(), edges);
}

TEST(Spanner, BothEndpointsAgreeOnMembership) {
  Rng rng(1);
  const Graph g = make_random_connected(60, 300, rng);
  EngineConfig cfg;
  cfg.seed = 3;
  SyncEngine eng(g, cfg);
  Rng id_rng(2);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
  eng.set_knowledge(Knowledge::of_n(g.n()));
  eng.init_processes(make_baswana_sen(SpannerConfig{3}));
  eng.run();
  // Edge-level agreement: if u marks port to v, v marks port to u.
  for (NodeId u = 0; u < g.n(); ++u) {
    const auto* pu = dynamic_cast<const BaswanaSenProcess*>(eng.process(u));
    for (const PortId port : pu->spanner_ports()) {
      const auto& he = g.half_edge(u, port);
      const auto* pv = dynamic_cast<const BaswanaSenProcess*>(eng.process(he.to));
      const auto& vports = pv->spanner_ports();
      EXPECT_NE(std::find(vports.begin(), vports.end(), he.rev), vports.end())
          << "asymmetric spanner edge " << u << "<->" << he.to;
    }
  }
}

TEST(Spanner, PreservesConnectivity) {
  Rng rng(2);
  for (std::uint32_t k : {2u, 3u, 4u}) {
    const Graph g = make_random_connected(80, 600, rng);
    const Graph sp = extract_spanner(g, k, 17 + k);
    EXPECT_TRUE(is_connected(sp)) << "k=" << k;
  }
}

TEST(Spanner, StretchBounded) {
  // Sampled pairs: dist_spanner <= (2k-1) * dist_G.
  Rng rng(3);
  const Graph g = make_random_connected(70, 500, rng);
  for (std::uint32_t k : {2u, 3u}) {
    const Graph sp = extract_spanner(g, k, 100 + k);
    Rng pick(55);
    for (int i = 0; i < 30; ++i) {
      const NodeId a = static_cast<NodeId>(pick.below(g.n()));
      const NodeId b = static_cast<NodeId>(pick.below(g.n()));
      if (a == b) continue;
      const auto dg = hop_distance(g, a, b);
      const auto ds = hop_distance(sp, a, b);
      EXPECT_LE(ds, (2 * k - 1) * dg) << "k=" << k;
    }
  }
}

TEST(Spanner, SparsifiesDenseGraphs) {
  // Expected size O(k n^{1+1/k}): on a dense graph the spanner must drop
  // most edges.
  Rng rng(4);
  const std::size_t n = 120;
  const Graph g = make_random_connected(n, 3500, rng);
  std::size_t edges = 0;
  extract_spanner(g, 3, 7, &edges);
  const double bound =
      4.0 * 3.0 * std::pow(static_cast<double>(n), 1.0 + 1.0 / 3.0);
  EXPECT_LE(static_cast<double>(edges), bound);
  EXPECT_LT(edges, g.m() / 2);  // actually sparsified
}

TEST(Spanner, KOneKeepsEverything) {
  Rng rng(5);
  const Graph g = make_random_connected(30, 200, rng);
  std::size_t edges = 0;
  extract_spanner(g, 1, 9, &edges);
  EXPECT_EQ(edges, g.m());  // a 1-spanner is the graph itself
}

TEST(Spanner, FinishRoundFormula) {
  EXPECT_EQ(spanner_finish_round(1), 3u);
  EXPECT_EQ(spanner_finish_round(2), 3u + 4u);
  EXPECT_EQ(spanner_finish_round(3), 3u + 4u + 5u);
}

TEST(Spanner, MessagesLinearInKM) {
  Rng rng(6);
  const Graph g = make_random_connected(100, 1000, rng);
  for (const std::uint32_t k : {2u, 4u}) {
    EngineConfig cfg;
    cfg.seed = 11;
    SyncEngine eng(g, cfg);
    Rng id_rng(4);
    eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
    eng.set_knowledge(Knowledge::of_n(g.n()));
    eng.init_processes(make_baswana_sen(SpannerConfig{k}));
    const RunResult res = eng.run();
    EXPECT_LE(res.messages, 3u * k * g.m() + 4 * g.n()) << "k=" << k;
  }
}

TEST(SpannerElect, Corollary42EndToEnd) {
  // Dense graph (m ≈ n^{1.5}): whp success, O(D) time, O(m)-ish messages.
  Rng rng(7);
  const std::size_t n = 150;
  const auto m = static_cast<std::size_t>(std::pow(n, 1.55));
  const Graph g = make_random_connected(n, m, rng);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    RunOptions opt;
    opt.seed = seed;
    opt.knowledge = Knowledge::of_n(n);
    const auto rep = run_election(g, make_spanner_elect({3, 0}), opt);
    EXPECT_TRUE(rep.verdict.unique_leader) << "seed " << seed;
    // O(m) total, but the constant is not small: the k = 3 Baswana-Sen
    // construction alone may send ~3km = 9m messages, and the election adds
    // O(|spanner| log n).  15m is comfortably flat in m (the dense-sweep
    // bench tracks the ratio across sizes).
    EXPECT_LE(rep.run.messages, 15 * g.m());
  }
}

TEST(SpannerElect, CheaperThanPlainLeastElOnDense) {
  Rng rng(8);
  const std::size_t n = 200;
  const Graph g = make_random_connected(n, 5000, rng);
  RunOptions opt;
  opt.seed = 5;
  opt.knowledge = Knowledge::of_n(n);
  const auto sp = run_election(g, make_spanner_elect({3, 0}), opt);
  const auto le = run_election(
      g, make_least_el(LeastElConfig::all_candidates()), opt);
  EXPECT_TRUE(sp.verdict.unique_leader);
  EXPECT_LT(sp.run.messages, le.run.messages);
}

TEST(SpannerElect, KForEpsilon) {
  EXPECT_EQ(spanner_k_for_epsilon(1.0), 2u);
  EXPECT_EQ(spanner_k_for_epsilon(0.5), 4u);
  EXPECT_EQ(spanner_k_for_epsilon(0.25), 8u);
}

}  // namespace
}  // namespace ule
