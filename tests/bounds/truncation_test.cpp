#include "bounds/truncation.hpp"

#include <gtest/gtest.h>

#include "graphgen/clique_cycle.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"

namespace ule {
namespace {

TEST(Truncation, FullHorizonAlwaysElects) {
  const Graph g = make_cycle(20);
  const auto st = run_truncation_trials(g, /*horizon=*/12, 20, 1);
  EXPECT_EQ(st.unique_leader, st.trials);
}

TEST(Truncation, ZeroHorizonElectsEverybody) {
  const Graph g = make_cycle(10);
  const auto st = run_truncation_trials(g, 0, 5, 2);
  EXPECT_EQ(st.multi_leaders, st.trials);  // nobody hears anything
}

TEST(Truncation, ShortHorizonFailsOnCliqueCycle) {
  // Theorem 3.13's engine: with horizon < D'/4 the arcs are causally
  // independent, so multiple local maxima survive and multiple leaders
  // are elected with substantial probability.
  const CliqueCycle cc = make_clique_cycle(64, 32);
  const Round quarter = cc.d_prime / 4 - 1;
  const auto st = run_truncation_trials(cc.graph, quarter / 2, 40, 3);
  EXPECT_LT(st.success_rate(), 15.0 / 16.0)
      << "short-horizon success too high for the bound to bind";
  EXPECT_GT(st.multi_leaders, 0u);
}

TEST(Truncation, SuccessImprovesWithHorizon) {
  // Theorem 3.13's shape: success stays below the 15/16 threshold while the
  // horizon is at most D/4 and is certain once the horizon reaches D.
  struct Instance {
    std::size_t n, d, trials;
    std::uint64_t seed;
  };
  const Instance instances[] = {{48, 24, 30, 5}, {128, 32, 60, 777}};
  for (const Instance& in : instances) {
    const CliqueCycle cc = make_clique_cycle(in.n, in.d);
    const Round diam = diameter_exact(cc.graph);
    for (const Round h : {diam / 8, diam / 4}) {
      const auto st = run_truncation_trials(cc.graph, h, in.trials, in.seed);
      EXPECT_LT(st.success_rate(), 15.0 / 16.0) << "n=" << in.n << " h=" << h;
    }
    for (const Round h : {diam, diam + diam / 2}) {
      const auto st = run_truncation_trials(cc.graph, h, in.trials, in.seed);
      EXPECT_EQ(st.unique_leader, st.trials) << "n=" << in.n << " h=" << h;
    }
  }
}

TEST(Truncation, StatsAddUp) {
  const CliqueCycle cc = make_clique_cycle(32, 16);
  const auto st = run_truncation_trials(cc.graph, 2, 25, 7);
  EXPECT_EQ(st.unique_leader + st.zero_leaders + st.multi_leaders, st.trials);
}

}  // namespace
}  // namespace ule
