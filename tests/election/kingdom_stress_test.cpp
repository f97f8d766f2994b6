// Stress and regression tests for Algorithm 2's overrun machinery.
//
// The dangerous window is a node overrun by a stronger claim between its
// stage-2 ack and the CONFIRM of the old expedition: it must still deliver
// the VICTOR its old parent counts on (the "zombie" duties), or the old
// root stalls forever with live_ = true and the eventual winner relaunches
// endlessly (the live-lock these tests pin down).  Overruns are forced by
// ID placements that make weak kingdoms grow before strong ones arrive —
// adversarial layouts on paths, stars and dense cores.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "election/kingdom.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

ElectionReport run_with_ids(const Graph& g, std::vector<Uid> uids,
                            KingdomConfig cfg = {}) {
  EngineConfig ec;
  ec.seed = 1;
  ec.max_rounds = 2'000'000;
  ec.congest = CongestMode::Count;
  SyncEngine eng(g, ec);
  eng.set_uids(std::move(uids));
  eng.init_processes(make_kingdom(cfg));
  ElectionReport rep;
  rep.run = eng.run();
  rep.verdict = judge_election(eng);
  return rep;
}

TEST(KingdomStress, SingleNode) {
  const auto rep = run_with_ids(make_path(1), {42});
  EXPECT_TRUE(rep.verdict.unique_leader);
  EXPECT_EQ(rep.run.messages, 0u);
}

TEST(KingdomStress, TwoNodes) {
  const auto rep = run_with_ids(make_path(2), {7, 3});
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(KingdomStress, AscendingIdsOnPathCascadeOverruns) {
  // Each node's kingdom is overrun by its right neighbour's, which is
  // overrun by the next — the maximal cascade of defections.
  for (const std::size_t n : {8u, 17u, 33u, 64u}) {
    const Graph g = make_path(n);
    std::vector<Uid> ids(n);
    std::iota(ids.begin(), ids.end(), Uid{1});
    const auto rep = run_with_ids(g, ids);
    EXPECT_TRUE(rep.verdict.unique_leader) << "n=" << n;
    EXPECT_TRUE(rep.run.completed) << "n=" << n;
    EXPECT_EQ(rep.run.congest_violations, 0u) << "n=" << n;
  }
}

TEST(KingdomStress, DescendingIdsOnPath) {
  for (const std::size_t n : {8u, 33u}) {
    const Graph g = make_path(n);
    std::vector<Uid> ids(n);
    std::iota(ids.rbegin(), ids.rend(), Uid{1});
    const auto rep = run_with_ids(g, ids);
    EXPECT_TRUE(rep.verdict.unique_leader) << "n=" << n;
  }
}

TEST(KingdomStress, MaxIdHiddenAtPathEnd) {
  // The strongest candidate sits at the far end of a long path behind a
  // dense low-ID core: its waves arrive late everywhere, so almost every
  // node serves weaker expeditions first and must defect mid-flight.
  const Graph g = make_lollipop(8, 20);
  std::vector<Uid> ids(g.n());
  std::iota(ids.begin(), ids.end(), Uid{10});
  // The clique nodes are 0..7; the path ends at the last slot — give it the
  // global maximum, and the clique the next-largest block.
  std::swap(ids[ids.size() - 1], ids[7]);
  const auto rep = run_with_ids(g, ids);
  EXPECT_TRUE(rep.verdict.unique_leader);
  EXPECT_TRUE(rep.run.completed);
}

TEST(KingdomStress, StarWithWeakHub) {
  // The hub (lowest ID) is claimed by every leaf expedition in round 2 and
  // overrun repeatedly as stronger leaf claims arrive.
  const std::size_t n = 24;
  const Graph g = make_star(n);
  std::vector<Uid> ids(n);
  std::iota(ids.begin(), ids.end(), Uid{1});  // hub = 1, leaves ascending
  const auto rep = run_with_ids(g, ids);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST(KingdomStress, BarbellTugOfWar) {
  // Two dense cores fight across a thin bridge; the bridge nodes flip
  // allegiance as each core's phases advance.
  const Graph g = make_barbell(7, 9);
  std::vector<Uid> ids(g.n());
  std::iota(ids.begin(), ids.end(), Uid{1});
  // Put the two largest IDs in opposite cliques (slots 0..6 and last 7).
  std::swap(ids[0], ids[ids.size() - 1]);
  const auto rep = run_with_ids(g, ids);
  EXPECT_TRUE(rep.verdict.unique_leader);
  EXPECT_TRUE(rep.run.completed);
}

class KingdomSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KingdomSeedSweep, AlwaysExactlyOneLeaderAndTerminates) {
  Rng rng(GetParam());
  const std::size_t n = 20 + rng.below(60);
  const std::size_t extra = rng.below(2 * n);
  const Graph g = make_random_connected(n, n - 1 + extra, rng);
  RunOptions opt;
  opt.seed = GetParam() * 7 + 1;
  opt.ids = (GetParam() % 2 == 0) ? IdScheme::RandomFromZ
                                  : IdScheme::RandomPermutation;
  opt.max_rounds = 2'000'000;
  const auto rep = run_election(g, make_kingdom(), opt);
  EXPECT_TRUE(rep.run.completed) << g.summary();
  EXPECT_TRUE(rep.verdict.unique_leader) << g.summary();
  EXPECT_EQ(rep.verdict.undecided, 0u) << g.summary();
}

INSTANTIATE_TEST_SUITE_P(ManySeeds, KingdomSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 33));

TEST(KingdomStress, WinnerIsNeverWeakerUnderPermutationIds) {
  // With a doubling schedule the winner need not be the max ID (a fast
  // corner can out-phase it), but SOME node must win, every node must
  // decide, and reruns must agree (determinism).
  Rng rng(77);
  const Graph g = make_random_connected(48, 96, rng);
  RunOptions opt;
  opt.seed = 5;
  opt.ids = IdScheme::RandomPermutation;
  opt.max_rounds = 2'000'000;
  const auto a = run_election(g, make_kingdom(), opt);
  const auto b = run_election(g, make_kingdom(), opt);
  ASSERT_TRUE(a.verdict.unique_leader);
  EXPECT_EQ(a.verdict.leader_slot, b.verdict.leader_slot);
  EXPECT_TRUE(testing::same_counters(a.run, b.run));
}

TEST(KingdomStress, KnownDiameterOnEveryFamilyShape) {
  Rng rng(81);
  const std::vector<Graph> graphs = {
      make_path(30),      make_cycle(30),          make_star(20),
      make_grid(5, 6),    make_complete(12),       make_hypercube(4),
      make_lollipop(6, 8), make_random_connected(40, 90, rng)};
  for (const auto& g : graphs) {
    const auto d = diameter_exact(g);
    KingdomConfig cfg;
    cfg.known_diameter = std::max<std::uint64_t>(1, d);
    RunOptions opt;
    opt.seed = 13;
    opt.knowledge = Knowledge::of_n_d(g.n(), d);
    opt.max_rounds = 2'000'000;
    const auto rep = run_election(g, make_kingdom(cfg), opt);
    EXPECT_TRUE(rep.verdict.unique_leader) << g.summary();
    EXPECT_TRUE(rep.run.completed) << g.summary();
  }
}

TEST(KingdomStress, MessagesStayWithinMLogNOnAdversarialPath) {
  // The ascending path maximizes defections; the bound must still hold.
  const std::size_t n = 128;
  const Graph g = make_path(n);
  std::vector<Uid> ids(n);
  std::iota(ids.begin(), ids.end(), Uid{1});
  const auto rep = run_with_ids(g, ids);
  ASSERT_TRUE(rep.verdict.unique_leader);
  const double bound =
      20.0 * static_cast<double>(g.m()) * std::log2(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(rep.run.messages), bound);
}

}  // namespace
}  // namespace ule
