#include "broadcast/broadcast.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "graphgen/dumbbell.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/recorder.hpp"

namespace ule {
namespace {

TEST(Broadcast, SendsBeforeReadsTheTrace) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  class Chatter : public Process {
   public:
    static FlatMsg one() {
      FlatMsg m;
      m.type = 1;
      m.bits = 64;
      m.a = 1;
      return m;
    }
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      ctx.send(0, one());
    }
    void on_round(Context& ctx, std::span<const Envelope>) override {
      if (ctx.round() < 3) ctx.send(0, one());
      else ctx.idle();
    }
  };
  SyncEngine eng(g);
  eng.init_processes(
      recording([](NodeId) { return std::make_unique<Chatter>(); }));
  eng.run();
  // Rounds 0,1,2 send 2 messages each.
  EXPECT_EQ(sends_before(eng, 1), 2u);
  EXPECT_EQ(sends_before(eng, 2), 4u);
  EXPECT_EQ(sends_before(eng, 100), 6u);
}

TEST(Broadcast, ReachesEveryone) {
  for (const Graph& g : {make_cycle(20), make_grid(4, 5), make_star(15)}) {
    const auto rep = run_broadcast(g, 0, 1);
    EXPECT_TRUE(rep.all_informed) << g.summary();
  }
}

TEST(Broadcast, TimeEqualsEccentricity) {
  const Graph g = make_path(12);
  const auto rep = run_broadcast(g, 0, 1);
  EXPECT_TRUE(rep.all_informed);
  // Flood reaches distance d at round d; echoes take as long again.
  EXPECT_GE(rep.rounds_total, 11u);
  EXPECT_LE(rep.rounds_total, 3 * 11u + 3);
}

TEST(Broadcast, MessagesLinearInM) {
  Rng rng(1);
  const Graph g = make_random_connected(50, 300, rng);
  const auto rep = run_broadcast(g, 3, 2);
  EXPECT_TRUE(rep.all_informed);
  // One forward + one echo per direction at most.
  EXPECT_LE(rep.messages_total, 4 * g.m());
  EXPECT_GE(rep.messages_total, g.m());  // every edge carries something
}

TEST(Broadcast, MajorityCountsFewerMessagesThanTotal) {
  const Graph g = make_path(30);
  const auto rep = run_broadcast(g, 0, 5);
  EXPECT_TRUE(rep.all_informed);
  EXPECT_LT(rep.round_majority, rep.rounds_total);
  EXPECT_LT(rep.messages_majority, rep.messages_total);
  EXPECT_GT(rep.messages_majority, 0u);
}

TEST(Broadcast, MajorityCostIsPinned) {
  // One fixed instance: the majority is informed in round 2, and the sends
  // of rounds 0 and 1 are the majority cost.
  Rng rng(1);
  const Graph g = make_random_connected(50, 300, rng);
  const auto rep = run_broadcast(g, 3, 2);
  EXPECT_EQ(rep.round_majority, 2u);
  EXPECT_EQ(rep.messages_majority, 234u);
  EXPECT_EQ(rep.messages_total, 1102u);
  EXPECT_EQ(rep.rounds_total, 7u);
}

TEST(Broadcast, MajorityOnDumbbellStillCostsOmegaM) {
  // Corollary 3.12: even majority broadcast pays Θ(m) on dumbbells —
  // reaching > n/2 nodes forces a bridge crossing, and reaching the bridge
  // costs Ω(m1) inside the source's clique side.
  for (const std::size_t m : {30u, 90u, 200u}) {
    const Dumbbell d = make_dumbbell(m / 2, m, 0, 1);
    const auto rep = run_broadcast(d.graph, 0, 3);
    EXPECT_TRUE(rep.all_informed);
    const double side_m = (static_cast<double>(d.graph.m()) - 2) / 2;
    EXPECT_GE(static_cast<double>(rep.messages_majority), 0.8 * side_m)
        << "m=" << m;
  }
}

TEST(Broadcast, SourceDetectsCompletion) {
  const Graph g = make_cycle(16);
  EngineConfig cfg;
  cfg.seed = 1;
  SyncEngine eng(g, cfg);
  eng.init_processes(make_flood_broadcast(4));
  eng.run();
  const auto* src = dynamic_cast<const FloodBroadcastProcess*>(eng.process(4));
  EXPECT_NE(src->complete_round(), kRoundForever);
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = dynamic_cast<const FloodBroadcastProcess*>(eng.process(s));
    EXPECT_TRUE(p->informed());
    EXPECT_LE(p->informed_round(), hop_distance(g, 4, s) + 1);
  }
}

}  // namespace
}  // namespace ule
