// Cross-cutting complexity-shape checks: the Table 1 claims as assertions.

#include <gtest/gtest.h>

#include <cmath>

#include "election/flood_max.hpp"
#include "election/least_el.hpp"
#include "graphgen/clique_cycle.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"
#include "scenario/registry.hpp"

namespace ule {
namespace {

/// Registry-backed factory (no ad hoc re-declaration of protocol configs):
/// grants exactly the protocol's required knowledge for this graph.
/// `diameter` only matters for protocols whose config embeds D.
ProcessFactory registered(const char* name, const Graph& g, RunOptions& opt,
                          std::uint32_t diameter = 0) {
  return prepare_protocol(default_protocols().at(name), shape_of(g, diameter),
                          opt);
}

TEST(Complexity, LeastElTimeScalesWithDiameterNotN) {
  // Same n, different D: time tracks D.
  Rng rng(1);
  const Graph dense = make_random_connected(120, 1500, rng);  // small D
  const Graph ring = make_cycle(120);                         // D = 60
  RunOptions opt;
  opt.seed = 5;
  const auto fast = run_election(dense, registered("least_el_all", dense, opt), opt);
  const auto slow = run_election(ring, registered("least_el_all", ring, opt), opt);
  EXPECT_TRUE(fast.verdict.unique_leader);
  EXPECT_TRUE(slow.verdict.unique_leader);
  EXPECT_LT(fast.run.rounds * 4, slow.run.rounds);
}

TEST(Complexity, LeastElMessagesScaleLinearlyWithM) {
  // Fixed n, growing m: messages/m stays within a narrow band (the log n
  // factor is constant across the sweep).
  Rng rng(2);
  const std::size_t n = 150;
  std::vector<double> ratio;
  for (const std::size_t m : {300u, 900u, 2700u}) {
    const Graph g = make_random_connected(n, m, rng);
    RunOptions opt;
    opt.seed = 9;
    const auto rep = run_election(g, registered("least_el_all", g, opt), opt);
    EXPECT_TRUE(rep.verdict.unique_leader);
    ratio.push_back(static_cast<double>(rep.run.messages) / m);
  }
  for (std::size_t i = 1; i < ratio.size(); ++i) {
    EXPECT_LT(ratio[i], ratio[0] * 2.5) << "superlinear growth in m";
    EXPECT_GT(ratio[i], ratio[0] / 2.5);
  }
}

TEST(Complexity, DfsMessagesFlatAcrossDiameters) {
  // Theorem 4.1's O(m) is universal: messages/m in a tight band on graphs
  // with wildly different diameters.
  Rng rng(3);
  const std::vector<Graph> graphs = {make_cycle(100), make_complete(15),
                                     make_star(100),
                                     make_random_connected(80, 320, rng)};
  for (const Graph& g : graphs) {
    RunOptions opt;
    opt.seed = 13;
    opt.max_rounds = Round{1} << 62;
    const auto rep = run_election(g, registered("dfs", g, opt), opt);
    EXPECT_TRUE(rep.verdict.unique_leader) << g.summary();
    const double ratio = static_cast<double>(rep.run.messages) /
                         static_cast<double>(g.m());
    EXPECT_LE(ratio, 4.5) << g.summary();
  }
}

TEST(Complexity, CandidateReductionOrdersMessageCosts) {
  // f(n) = n  >  f(n) = log n  >  f(n) = const, in expected messages
  // (Theorem 4.4's trade-off), all on the same dense graph.
  Rng rng(4);
  const Graph g = make_random_connected(250, 2500, rng);
  auto mean_msgs = [&](const ProcessFactory& factory, const RunOptions& base) {
    std::uint64_t total = 0;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      RunOptions opt = base;
      opt.seed = seed;
      total += run_election(g, factory, opt).run.messages;
    }
    return total / 5;
  };
  RunOptions fopt, lopt;
  const auto full = mean_msgs(registered("least_el_all", g, fopt), fopt);
  const auto logn = mean_msgs(registered("least_el_logn", g, lopt), lopt);
  // A genuinely small constant f: variant_B(eps) = 4 ln(1/eps) only drops
  // below log2 n for n > 2^{4 ln(1/eps)} -- at n = 250 that needs
  // eps >~ 0.25, so use f = 2 directly for an unambiguous ordering (an
  // ablation config, deliberately not a registry entry).
  RunOptions copt;
  copt.knowledge = Knowledge::of_n(g.n());
  const auto constant =
      mean_msgs(make_least_el(LeastElConfig::theorem_4_4(2.0)), copt);
  EXPECT_GT(full, logn);
  EXPECT_GE(logn, constant);
}

TEST(Complexity, FullAlgorithmsTakeOmegaDOnCliqueCycle) {
  // Theorem 3.13: success above 15/16 forces Omega(D) rounds.  On the
  // clique-cycle (Figure 1) a full election never finishes before D.
  for (const std::size_t d : {8u, 16u, 32u, 64u}) {
    const CliqueCycle cc = make_clique_cycle(192, d);
    const std::uint32_t diam = diameter_exact(cc.graph);
    for (const char* name : {"flood_max", "least_el_all"}) {
      RunOptions opt;
      opt.seed = 11;
      const auto rep =
          run_election(cc.graph, registered(name, cc.graph, opt, diam), opt);
      EXPECT_TRUE(rep.verdict.unique_leader) << name << " d=" << d;
      EXPECT_GE(rep.run.rounds, diam) << name << " d=" << d;
    }
  }
}

TEST(Complexity, RingSeparatesRandomizedFromDeterministic) {
  // The paper's ring separation: a fast deterministic election pays
  // Omega(n log n) messages on a cycle, so flood-max's messages/n grows
  // with n, while Theorem 4.4.B's randomized variant keeps it flat.
  // Mean messages/n on cycles n = 32, 128, 512.
  std::size_t elected = 0;
  const auto series = [&elected](const ProcessFactory& factory,
                                 RunOptions base, bool grant_n,
                                 std::size_t trials) {
    std::vector<double> per_n;
    for (const std::size_t n : {32u, 128u, 512u}) {
      const Graph g = make_cycle(n);
      if (grant_n) base.knowledge = Knowledge::of_n(n);
      double total = 0;
      for (std::size_t t = 0; t < trials; ++t) {
        RunOptions opt = base;
        opt.seed = base.seed + 7919 * t + 13;
        const auto rep = run_election(g, factory, opt);
        elected += rep.verdict.unique_leader;
        total += static_cast<double>(rep.run.messages);
      }
      per_n.push_back(total / static_cast<double>(trials * n));
    }
    return per_n;
  };
  RunOptions fm;
  fm.seed = 3;
  fm.ids = IdScheme::RandomFromZ;
  const auto flood = series(make_flood_max(), fm, false, 3);
  EXPECT_GT(flood[1], flood[0]);
  EXPECT_GT(flood[2], flood[1]);
  EXPECT_GE(flood[2], 1.4 * flood[0]);
  EXPECT_EQ(elected, 9u);  // deterministic: every run elects
  // An ablation config, deliberately not a registry entry.
  elected = 0;
  RunOptions vb;
  vb.seed = 5;
  const auto randomized =
      series(make_least_el(LeastElConfig::variant_B(0.1)), vb, true, 25);
  for (const double r : randomized) EXPECT_LE(r, 1.25 * randomized[0]);
  EXPECT_GE(elected, 68u);  // Monte Carlo, eps = 0.1: >= 90% of 75 runs
}

TEST(Complexity, KingdomMessagesTrackMLogN) {
  // Ratio messages/(m log n) stays bounded across sizes.
  std::vector<double> ratios;
  Rng rng(5);
  for (const std::size_t n : {32u, 64u, 128u}) {
    const Graph g = make_random_connected(n, 4 * n, rng);
    RunOptions opt;
    opt.seed = 3;
    const auto rep = run_election(g, registered("kingdom", g, opt), opt);
    EXPECT_TRUE(rep.verdict.unique_leader);
    ratios.push_back(static_cast<double>(rep.run.messages) /
                     (g.m() * std::log2(static_cast<double>(n))));
  }
  for (const double r : ratios) EXPECT_LE(r, 16.0);
}

TEST(Complexity, ClusteringWinsOnDenseLosesOnSparse) {
  // The regime split the paper's Theorem 4.7 motivates: on dense graphs
  // O(m + n log n) < O(m log n); on very sparse graphs the overhead can
  // flip the order.
  Rng rng(6);
  const Graph dense = make_random_connected(150, 4000, rng);
  RunOptions opt;
  opt.seed = 21;
  const auto cl = run_election(dense, registered("clustering", dense, opt), opt);
  const auto le =
      run_election(dense, registered("least_el_all", dense, opt), opt);
  EXPECT_TRUE(cl.verdict.unique_leader);
  EXPECT_TRUE(le.verdict.unique_leader);
  EXPECT_LT(cl.run.messages, le.run.messages);
}

TEST(Complexity, StatusesStabilizeBeforeQuiescence) {
  // Section 2's definition: "from round T on" — last_status_change is a
  // valid T and never exceeds total rounds.
  const auto fams = testing::standard_families();
  for (const auto& fam : fams) {
    RunOptions opt;
    opt.seed = 2;
    const auto rep = run_election(
        fam.graph, registered("least_el_all", fam.graph, opt), opt);
    EXPECT_TRUE(rep.verdict.unique_leader) << fam.name;
    EXPECT_LE(rep.run.last_status_change, rep.run.rounds) << fam.name;
  }
}

}  // namespace
}  // namespace ule
