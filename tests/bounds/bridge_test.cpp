#include "bounds/bridge_crossing.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <utility>

#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"
#include "net/recorder.hpp"

namespace ule {
namespace {

FlatMsg ping() {
  FlatMsg m;
  m.type = 1;
  m.bits = 64;
  m.a = 9;
  return m;
}

TEST(BridgeCrossing, FirstCrossingReadsTheTrace) {
  // 0-1-2: the crossing of edge (1,2); node 0 pings, node 1 relays.
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  class Relay : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      if (ctx.slot() == 0) ctx.send(0, ping());
      ctx.idle();
    }
    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      if (ctx.slot() == 1 && !inbox.empty()) {
        for (PortId p = 0; p < ctx.degree(); ++p)
          if (p != inbox[0].port) ctx.send(p, ping());
      }
      ctx.idle();
    }
  };
  SyncEngine eng(g);
  eng.init_processes(
      recording([](NodeId) { return std::make_unique<Relay>(); }));
  eng.run();
  const EdgeId watched[] = {1};  // edge (1,2)
  const FirstCrossing cross = first_crossing(eng, watched);
  EXPECT_EQ(cross.round, 1u);            // relayed in round 1
  EXPECT_EQ(cross.messages_before, 1u);  // only the original ping
}

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

  // Pinned per-run values: the opened edges and the first crossing
  // (round, messages strictly before it) of every sample.  Flood-first
  // least_el_all crosses in its wake-up round, so the count is the first
  // bridge sender's position in round 0's send order.
  struct Pinned {
    std::size_t open_left, open_right;
    Round first_cross;
    std::uint64_t messages_before_cross;
  };
  const Pinned expected[] = {{2, 8, 0, 4},  {8, 6, 0, 14}, {0, 3, 0, 4},
                             {3, 2, 0, 4},  {9, 3, 0, 19}, {3, 6, 0, 4}};
  const auto least = run_bridge_crossing(
      10, 15, make_least_el(LeastElConfig::all_candidates()), 6, 9);
  ASSERT_EQ(least.runs.size(), std::size(expected));
  for (std::size_t i = 0; i < least.runs.size(); ++i) {
    const BridgeCrossingRun& r = least.runs[i];
    EXPECT_EQ(r.open_left, expected[i].open_left) << "run " << i;
    EXPECT_EQ(r.open_right, expected[i].open_right) << "run " << i;
    EXPECT_EQ(r.first_cross, expected[i].first_cross) << "run " << i;
    EXPECT_EQ(r.messages_before_cross, expected[i].messages_before_cross)
        << "run " << i;
  }
}

}  // namespace
}  // namespace ule
