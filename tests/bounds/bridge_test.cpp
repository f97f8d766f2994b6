#include "bounds/bridge_crossing.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"

namespace ule {
namespace {

TEST(BridgeCrossing, LeaderElectionAlwaysCrosses) {
  // A correct universal algorithm must achieve BC on every dumbbell —
  // otherwise two sides would decide independently (Lemma 3.8's engine).
  const auto sum = run_bridge_crossing(12, 20, make_flood_max(), 6, 1);
  EXPECT_EQ(sum.crossing_fraction, 1.0);
  for (const auto& run : sum.runs) {
    EXPECT_TRUE(run.unique_leader);
    EXPECT_NE(run.first_cross, kRoundForever);
  }
}

TEST(BridgeCrossing, MessagesBeforeCrossingScaleWithM) {
  // The operational Lemma 3.5: mean messages-before-crossing grows
  // linearly in the per-side edge budget m.
  std::vector<double> means;
  std::vector<std::size_t> side_ms;
  for (const std::size_t m : {30u, 120u, 480u}) {
    const auto sum =
        run_bridge_crossing(m, m, make_flood_max(), 8, 3);
    EXPECT_GT(sum.crossing_fraction, 0.99);
    means.push_back(sum.mean_messages_before_cross);
    side_ms.push_back(sum.side_m);
  }
  // Linear shape: quadrupling m at least triples the pre-crossing cost.
  EXPECT_GE(means[1], means[0] * 2.0);
  EXPECT_GE(means[2], means[1] * 2.0);
  // And it is a constant fraction of the side size.
  for (std::size_t i = 0; i < means.size(); ++i)
    EXPECT_GE(means[i], 0.2 * static_cast<double>(side_ms[i]));
}

TEST(BridgeCrossing, LeastElAlsoPaysOmegaM) {
  // Theorem 3.1 is universal: Las Vegas, Monte Carlo and deterministic
  // elections alike pay Omega(m) messages before the first crossing.
  // 12 samples per size keep the ratio >= 0.29 and the growth >= 2.5 on ten
  // seeds; with 6, one of them grew only 1.66x.
  const std::pair<const char*, ProcessFactory> algos[] = {
      {"least_el_all", make_least_el(LeastElConfig::all_candidates())},
      {"variant_B(0.05)", make_least_el(LeastElConfig::variant_B(0.05))},
      {"kingdom", make_kingdom()}};
  for (const auto& [name, factory] : algos) {
    double prev = 0.0;
    for (const std::size_t m : {40u, 160u, 640u}) {
      const auto sum = run_bridge_crossing(m / 2 + 4, m, factory, 12, 7);
      EXPECT_EQ(sum.crossing_fraction, 1.0) << name << " m=" << m;
      EXPECT_GE(sum.mean_messages_before_cross, 0.2 * sum.side_m)
          << name << " m=" << m;
      // Quadrupling m at least doubles the pre-crossing cost.
      EXPECT_GE(sum.mean_messages_before_cross, 2.0 * prev)
          << name << " m=" << m;
      prev = sum.mean_messages_before_cross;
    }
  }
}

TEST(BridgeCrossing, ReportsPerRunDetails) {
  const auto sum = run_bridge_crossing(10, 15, make_flood_max(), 4, 9);
  ASSERT_EQ(sum.runs.size(), 4u);
  EXPECT_GT(sum.kappa, 1u);
  for (const auto& r : sum.runs) {
    EXPECT_LT(r.open_left, dumbbell_open_edge_count(15));
    EXPECT_LE(r.messages_before_cross, r.messages_total);
    // side_m counts one side's edges: the bridges belong to neither side.
    const Dumbbell d = make_dumbbell(10, 15, r.open_left, r.open_right);
    std::size_t left_edges = 0;
    for (EdgeId e = 0; e < d.graph.m(); ++e) {
      const auto [u, v] = d.graph.edge_endpoints(e);
      left_edges += u < d.side_n && v < d.side_n;
    }
    EXPECT_EQ(sum.side_m, left_edges);
  }
}

}  // namespace
}  // namespace ule
