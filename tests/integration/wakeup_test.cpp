// Adversarial wakeup: nodes wake at arbitrary rounds (and on message
// arrival), with at least one node awake at round 0 — the classical model
// the paper contrasts with simultaneous wakeup.  "The analysis of some of
// the algorithms holds even for the case of adversarial wakeup" (Section 2);
// Theorem 4.1 explicitly adds a wakeup phase for it.
//
// The engine realizes wake-on-message: a sleeping node that receives a
// message is woken that round, so any algorithm whose first action floods
// effectively wakes the whole graph within D rounds of the first waker.

#include <gtest/gtest.h>

#include <algorithm>

#include "election/dfs_election.hpp"
#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"
#include "election/size_estimate.hpp"
#include "graphgen/generators.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

std::vector<Round> staggered_schedule(std::size_t n, std::uint64_t seed,
                                      Round span) {
  Rng rng(seed);
  std::vector<Round> wake(n);
  for (auto& w : wake) w = rng.below(span + 1);
  wake[rng.below(n)] = 0;  // at least one node initially awake
  return wake;
}

class WakeupTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WakeupTest, FloodMaxElectsUnderStaggeredWakeup) {
  Rng rng(31);
  const Graph g = make_random_connected(40, 90, rng);
  RunOptions opt;
  opt.seed = GetParam();
  opt.wakeup = staggered_schedule(g.n(), GetParam() * 101, 50);
  const auto rep = run_election(g, make_flood_max(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST_P(WakeupTest, LeastElAllCandidatesElectsUnderStaggeredWakeup) {
  Rng rng(33);
  const Graph g = make_random_connected(36, 100, rng);
  RunOptions opt;
  opt.seed = GetParam();
  opt.wakeup = staggered_schedule(g.n(), GetParam() * 103, 40);
  const auto rep =
      run_election(g, make_least_el(LeastElConfig::all_candidates()), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST_P(WakeupTest, SizeEstimateElectsUnderStaggeredWakeup) {
  const Graph g = make_grid(5, 6);
  RunOptions opt;
  opt.seed = GetParam();
  opt.wakeup = staggered_schedule(g.n(), GetParam() * 107, 30);
  const auto rep = run_election(g, make_size_estimate_elect(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
}

TEST_P(WakeupTest, KingdomElectsUnderStaggeredWakeup) {
  // Algorithm 2's safety argument is timing-free; staggered starts only
  // shift which claims collide.
  Rng rng(35);
  const Graph g = make_random_connected(30, 70, rng);
  RunOptions opt;
  opt.seed = GetParam();
  opt.max_rounds = 1'000'000;
  opt.wakeup = staggered_schedule(g.n(), GetParam() * 109, 60);
  const auto rep = run_election(g, make_kingdom(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
  EXPECT_TRUE(rep.run.completed);
}

TEST_P(WakeupTest, DfsWithWakeupPhaseElects) {
  // Theorem 4.1's wakeup phase: a BFS wave wakes everyone (2m messages,
  // <= D rounds), then agents launch.  Total stays O(m).
  const Graph g = make_lollipop(6, 10);
  DfsConfig cfg;
  cfg.wake_broadcast = true;
  RunOptions opt;
  opt.seed = GetParam();
  opt.ids = IdScheme::RandomPermutation;
  opt.max_rounds = Round{1} << 62;
  opt.wakeup = staggered_schedule(g.n(), GetParam() * 113, 25);
  const auto rep = run_election(g, make_dfs_election(cfg), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
  // O(m): wakeup 2m + agents ~4m + bounded pre-wake wandering.
  EXPECT_LE(rep.run.messages, 8 * g.m() + 2 * g.n());
}

INSTANTIATE_TEST_SUITE_P(Seeds, WakeupTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Wakeup, LateWakersAreWokenByMessagesNotSchedule) {
  // A node scheduled to wake at round 10^6 is dragged in by the flood long
  // before that: total time stays O(span + D), not O(latest wakeup).
  const Graph g = make_path(20);
  RunOptions opt;
  opt.seed = 5;
  std::vector<Round> wake(g.n(), Round{1'000'000});
  wake[0] = 0;
  opt.wakeup = wake;
  const auto rep = run_election(g, make_flood_max(), opt);
  EXPECT_TRUE(rep.verdict.unique_leader);
  EXPECT_LE(rep.run.rounds, 200u);
}

TEST(Wakeup, SimultaneousIsTheDefault) {
  const Graph g = make_cycle(12);
  RunOptions opt;
  opt.seed = 2;
  const auto a = run_election(g, make_flood_max(), opt);
  opt.wakeup = std::vector<Round>(g.n(), 0);
  const auto b = run_election(g, make_flood_max(), opt);
  EXPECT_TRUE(testing::same_counters(a.run, b.run));
}

}  // namespace
}  // namespace ule
