#include "election/kingdom.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

TEST(Kingdom, ClaimOrderingPhaseFirst) {
  EXPECT_LT((Claim{1, 100}), (Claim{2, 1}));
  EXPECT_LT((Claim{2, 1}), (Claim{2, 2}));
  EXPECT_TRUE((Claim{}).none());
  EXPECT_FALSE((Claim{1, 1}).none());
}

TEST(Kingdom, ElectsMaxIdOnSmallGraphs) {
  for (const auto& g : {make_path(2), make_path(3), make_cycle(3),
                        make_cycle(4), make_star(5), make_complete(4)}) {
    RunOptions opt;
    opt.seed = 7;
    opt.ids = IdScheme::RandomFromZ;
    const auto rep = run_election(g, make_kingdom(), opt);
    ASSERT_TRUE(rep.verdict.unique_leader) << g.summary();
    EXPECT_EQ(rep.verdict.undecided, 0u);
  }
}

TEST(Kingdom, UniqueLeaderAcrossFamiliesAndIdSchemes) {
  Rng rng(19);
  const std::vector<Graph> graphs = {
      make_cycle(24),  make_path(17),           make_star(16),
      make_grid(4, 6), make_complete(10),       make_hypercube(4),
      make_torus(4, 4), make_balanced_tree(20, 2),
      make_random_connected(40, 120, rng),
      make_random_connected(30, 45, rng),
  };
  for (const auto& g : graphs) {
    for (const IdScheme scheme :
         {IdScheme::Sequential, IdScheme::ReverseSequential,
          IdScheme::RandomPermutation, IdScheme::RandomFromZ}) {
      RunOptions opt;
      opt.seed = 3;
      opt.ids = scheme;
      opt.max_rounds = 500'000;
      const auto rep = run_election(g, make_kingdom(), opt);
      EXPECT_TRUE(rep.verdict.unique_leader)
          << g.summary() << " ids=" << to_string(scheme);
      EXPECT_TRUE(rep.run.completed) << g.summary();
    }
  }
}

TEST(Kingdom, DeterministicGivenIds) {
  const Graph g = make_grid(4, 5);
  RunOptions opt;
  opt.seed = 5;
  const auto a = run_election(g, make_kingdom(), opt);
  const auto b = run_election(g, make_kingdom(), opt);
  EXPECT_TRUE(testing::same_counters(a.run, b.run));
  EXPECT_EQ(a.verdict.leader_slot, b.verdict.leader_slot);
}

TEST(Kingdom, PhasesLogarithmic) {
  // Candidates at least halve per phase: surviving phases <= ~log2 n plus
  // the extra doubling phases to cover the diameter.
  Rng rng(21);
  const Graph g = make_random_connected(128, 400, rng);
  EngineConfig cfg;
  cfg.seed = 2;
  SyncEngine eng(g, cfg);
  Rng id_rng(2);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
  eng.init_processes(make_kingdom());
  const RunResult res = eng.run();
  EXPECT_EQ(res.elected, 1u);
  std::uint32_t max_phase = 0;
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = dynamic_cast<const KingdomProcess*>(eng.process(s));
    max_phase = std::max(max_phase, p->phases_played());
  }
  const auto bound = static_cast<std::uint32_t>(
      2.0 * std::log2(static_cast<double>(g.n())) + 6.0);
  EXPECT_LE(max_phase, bound);
}

TEST(Kingdom, MessagesWithinMLogN) {
  Rng rng(23);
  const Graph g = make_random_connected(100, 400, rng);
  RunOptions opt;
  opt.seed = 4;
  const auto rep = run_election(g, make_kingdom(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
  const double bound =
      16.0 * g.m() * std::log2(static_cast<double>(g.n()));
  EXPECT_LE(static_cast<double>(rep.run.messages), bound);
}

TEST(Kingdom, TimeWithinDLogN) {
  for (std::size_t n : {16u, 64u}) {
    const Graph g = make_cycle(n);
    RunOptions opt;
    opt.seed = 6;
    const auto rep = run_election(g, make_kingdom(), opt);
    EXPECT_TRUE(rep.verdict.unique_leader);
    const double d = static_cast<double>(n) / 2.0;
    EXPECT_LE(static_cast<double>(rep.run.rounds),
              30.0 * d * std::log2(static_cast<double>(n)) + 60.0)
        << "n=" << n;
  }
}

TEST(Kingdom, KnownDiameterVariantElects) {
  Rng rng(27);
  const std::vector<Graph> graphs = {make_cycle(20), make_grid(4, 5),
                                     make_random_connected(36, 90, rng)};
  for (const auto& g : graphs) {
    const auto d = diameter_exact(g);
    KingdomConfig cfg;
    cfg.known_diameter = d;
    RunOptions opt;
    opt.seed = 11;
    opt.knowledge = Knowledge::of_n_d(g.n(), d);
    const auto rep = run_election(g, make_kingdom(cfg), opt);
    EXPECT_TRUE(rep.verdict.unique_leader) << g.summary();
  }
}

TEST(Kingdom, KnownDiameterFewerRoundsOnHighDiameter) {
  // Radius D from the start skips the slow doubling ramp-up on paths.
  const Graph g = make_path(60);
  RunOptions opt;
  opt.seed = 3;
  const auto general = run_election(g, make_kingdom(), opt);
  KingdomConfig cfg;
  cfg.known_diameter = 59;
  const auto knownd = run_election(g, make_kingdom(cfg), opt);
  EXPECT_TRUE(general.verdict.unique_leader);
  EXPECT_TRUE(knownd.verdict.unique_leader);
  EXPECT_LE(knownd.run.rounds, general.run.rounds);
}

TEST(Kingdom, AnonymousThrows) {
  const Graph g = make_path(4);
  RunOptions opt;
  opt.anonymous = true;
  EXPECT_THROW(run_election(g, make_kingdom(), opt), std::logic_error);
}

TEST(Kingdom, NoKnowledgeRequired) {
  const Graph g = make_lollipop(6, 8);
  RunOptions opt;  // Knowledge::none()
  opt.seed = 9;
  const auto rep = run_election(g, make_kingdom(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(Kingdom, ManySeedsNeverTwoLeaders) {
  // The safety property under timing variety: never more than one elected.
  Rng rng(31);
  const Graph g = make_random_connected(50, 110, rng);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RunOptions opt;
    opt.seed = seed;
    opt.ids = IdScheme::RandomFromZ;
    opt.max_rounds = 500'000;
    const auto rep = run_election(g, make_kingdom(), opt);
    EXPECT_LE(rep.verdict.elected, 1u) << "seed " << seed;
    EXPECT_TRUE(rep.verdict.unique_leader) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ule
