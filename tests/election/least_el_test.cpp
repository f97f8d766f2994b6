#include "election/least_el.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/engine.hpp"
#include "net/wakeup.hpp"

namespace ule {
namespace {

RunOptions with_n(const Graph& g, std::uint64_t seed) {
  RunOptions opt;
  opt.seed = seed;
  opt.knowledge = Knowledge::of_n(g.n());
  return opt;
}

TEST(LeastEl, AllCandidatesElectsUniqueLeader) {
  const Graph g = make_cycle(20);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto rep = run_election(g, make_least_el(LeastElConfig::all_candidates()),
                                  with_n(g, seed));
    EXPECT_TRUE(rep.verdict.unique_leader) << "seed " << seed;
    EXPECT_TRUE(rep.run.completed);
  }
}

TEST(LeastEl, TimeIsLinearInDiameter) {
  // O(D) rounds: flood <= D, echoes <= 2D, small constant slack.
  for (std::size_t n : {10u, 30u, 60u}) {
    const Graph g = make_path(n);
    const std::uint32_t d = static_cast<std::uint32_t>(n - 1);
    const auto rep = run_election(
        g, make_least_el(LeastElConfig::all_candidates()), with_n(g, 3));
    EXPECT_TRUE(rep.verdict.unique_leader);
    EXPECT_LE(rep.run.rounds, 3u * d + 5u) << "n=" << n;
  }
}

TEST(LeastEl, MessageBoundMLogN) {
  // O(m log n) expected messages for f(n) = n (constant ~4 covers
  // forward+echo both directions).
  Rng rng(17);
  const Graph g = make_random_connected(200, 800, rng);
  const auto rep = run_election(
      g, make_least_el(LeastElConfig::all_candidates()), with_n(g, 5));
  EXPECT_TRUE(rep.verdict.unique_leader);
  const double bound = 4.0 * g.m() * std::log2(static_cast<double>(g.n()));
  EXPECT_LE(rep.run.messages, bound);
}

TEST(LeastEl, VariantAFewerMessagesThanFullCandidates) {
  Rng rng(23);
  const Graph g = make_random_connected(300, 1500, rng);
  std::uint64_t full = 0, loglog = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    full += run_election(g, make_least_el(LeastElConfig::all_candidates()),
                         with_n(g, seed)).run.messages;
    loglog += run_election(g, make_least_el(LeastElConfig::variant_A(g.n())),
                           with_n(g, seed)).run.messages;
  }
  EXPECT_LT(loglog, full);
}

TEST(LeastEl, VariantBSucceedsUsuallyAndCheaply) {
  Rng rng(29);
  const Graph g = make_random_connected(150, 600, rng);
  const double eps = 0.05;
  std::size_t ok = 0;
  std::uint64_t msgs = 0;
  const std::size_t trials = 40;
  for (std::uint64_t seed = 1; seed <= trials; ++seed) {
    const auto rep = run_election(
        g, make_least_el(LeastElConfig::variant_B(eps)), with_n(g, seed));
    ok += rep.verdict.unique_leader;
    msgs += rep.run.messages;
  }
  // Success probability >= 1 - eps; allow slack for a 40-trial estimate.
  EXPECT_GE(ok, trials - 5);
  // O(m) messages: the mean must be a small multiple of m, NOT m log n.
  EXPECT_LE(msgs / trials, 8u * g.m());
}

TEST(LeastEl, ZeroCandidatesIsDetectableFailure) {
  // f so tiny that (whp) nobody volunteers: everyone ends non-elected.
  const Graph g = make_cycle(12);
  auto cfg = LeastElConfig::theorem_4_4(1e-9);
  const auto rep = run_election(g, make_least_el(cfg), with_n(g, 4));
  EXPECT_FALSE(rep.verdict.unique_leader);
  EXPECT_EQ(rep.verdict.elected, 0u);
  EXPECT_EQ(rep.run.messages, 0u);
}

TEST(LeastEl, SmallRankSpaceWithoutTiebreakCanElectTwo) {
  // Rank collisions surface once the domain is tiny and tiebreak is off —
  // the ablation behind the paper's |Z| = n^4 choice.
  const Graph g = make_path(16);
  auto cfg = LeastElConfig::all_candidates();
  cfg.rank_space = 2;  // coin-sized domain
  cfg.tiebreak = LeastElConfig::Tiebreak::None;
  std::size_t multi = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const auto rep = run_election(g, make_least_el(cfg), with_n(g, seed));
    multi += rep.verdict.elected >= 2;
  }
  EXPECT_GT(multi, 0u);
}

TEST(LeastEl, UidTiebreakMakesTinyRankSpaceSafe) {
  const Graph g = make_path(16);
  auto cfg = LeastElConfig::all_candidates();
  cfg.rank_space = 2;
  cfg.tiebreak = LeastElConfig::Tiebreak::Uid;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto rep = run_election(g, make_least_el(cfg), with_n(g, seed));
    EXPECT_TRUE(rep.verdict.unique_leader) << "seed " << seed;
  }
}

TEST(LeastEl, WorksAnonymously) {
  // Private coins stand in for identities (Section 2): a random tiebreak, or
  // no tiebreak at all over a rank space so large (2^40 on a 32-ring) that
  // two minimal ranks collide with probability below 5e-10 per run.
  struct Input {
    Graph g;
    LeastElConfig::Tiebreak tiebreak;
    std::uint64_t rank_space;  // 0 = auto (n^4)
    std::uint64_t first_seed, last_seed;
  };
  const Input inputs[] = {
      {make_torus(4, 5), LeastElConfig::Tiebreak::Random, 0, 8, 8},
      {make_cycle(32), LeastElConfig::Tiebreak::None, std::uint64_t{1} << 40,
       1, 400},
  };
  for (const Input& in : inputs) {
    auto cfg = LeastElConfig::all_candidates();
    cfg.tiebreak = in.tiebreak;
    cfg.rank_space = in.rank_space;
    for (std::uint64_t seed = in.first_seed; seed <= in.last_seed; ++seed) {
      RunOptions opt = with_n(in.g, seed);
      opt.anonymous = true;
      const auto rep = run_election(in.g, make_least_el(cfg), opt);
      EXPECT_TRUE(rep.verdict.unique_leader)
          << in.g.summary() << " seed " << seed;
    }
  }
}

TEST(LeastEl, ToleratesAdversarialWakeup) {
  const Graph g = make_grid(5, 5);
  RunOptions opt = with_n(g, 2);
  Rng wk(55);
  opt.wakeup = random_wakeup(g.n(), 15, wk);
  const auto rep = run_election(
      g, make_least_el(LeastElConfig::all_candidates()), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(LeastEl, SingleWakeupNodeStillElects) {
  const Graph g = make_path(10);
  RunOptions opt = with_n(g, 6);
  opt.wakeup = single_wakeup(g.n(), 9);
  const auto rep = run_election(
      g, make_least_el(LeastElConfig::all_candidates()), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(LeastEl, LeListSizeIsLogarithmic) {
  // Lemma 4.3: E|le_v| = O(log f(n)); with f = n and n = 256, mean list
  // size should be well below log2(n)+2 and max below ~3 log2 n.
  Rng rng(31);
  const Graph g = make_random_connected(256, 1024, rng);

  RunOptions opt = with_n(g, 12);
  EngineConfig cfg;
  cfg.seed = opt.seed;
  SyncEngine eng(g, cfg);
  Rng id_rng(1);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
  eng.set_knowledge(opt.knowledge);
  eng.init_processes(make_least_el(LeastElConfig::all_candidates()));
  eng.run();

  double total = 0;
  std::size_t maxlen = 0;
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = dynamic_cast<const LeastElProcess*>(eng.process(s));
    total += static_cast<double>(p->le_list_size());
    maxlen = std::max(maxlen, p->le_list_size());
  }
  const double mean = total / static_cast<double>(g.n());
  EXPECT_LE(mean, std::log2(256.0) + 2.0);
  EXPECT_LE(maxlen, static_cast<std::size_t>(3 * std::log2(256.0)));
}

TEST(LeastEl, CongestClean) {
  const Graph g = make_complete(10);
  RunOptions opt = with_n(g, 3);
  opt.congest = CongestMode::Count;
  const auto rep = run_election(
      g, make_least_el(LeastElConfig::all_candidates()), opt);
  EXPECT_EQ(rep.run.congest_violations, 0u);
}

TEST(LeastEl, RequiresNForCandidateSampling) {
  const Graph g = make_path(5);
  RunOptions opt;  // no knowledge
  opt.seed = 1;
  EXPECT_THROW(
      run_election(g, make_least_el(LeastElConfig::theorem_4_4(2.0)), opt),
      std::logic_error);
}

}  // namespace
}  // namespace ule
