#include "election/explicit_elect.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"
#include "election/trivial_random.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

struct ExplicitOutcome {
  ElectionReport rep;
  std::set<std::uint64_t> learned;  ///< distinct leader tokens seen
  std::size_t know_count = 0;       ///< nodes with known_leader set
};

ExplicitOutcome run_explicit(const Graph& g, const ProcessFactory& inner,
                             const RunOptions& opt) {
  ExplicitOutcome out;
  const auto inspect = [&out](const SyncEngine& eng) {
    for (NodeId s = 0; s < eng.graph().n(); ++s) {
      const auto* p = dynamic_cast<const ExplicitProcess*>(eng.process(s));
      if (p->known_leader().has_value()) {
        ++out.know_count;
        out.learned.insert(*p->known_leader());
      }
    }
  };
  out.rep = run_election(g, make_explicit(inner), opt, inspect);
  return out;
}

TEST(ExplicitElect, EveryNodeLearnsTheLeaderFloodMax) {
  Rng rng(11);
  for (const auto& g :
       {make_cycle(16), make_grid(4, 6), make_complete(8),
        make_random_connected(40, 100, rng)}) {
    RunOptions opt;
    opt.seed = 5;
    const auto out = run_explicit(g, make_flood_max(), opt);
    ASSERT_TRUE(out.rep.verdict.unique_leader) << g.summary();
    EXPECT_EQ(out.know_count, g.n()) << g.summary();
    EXPECT_EQ(out.learned.size(), 1u) << g.summary();
  }
}

TEST(ExplicitElect, LearnedTokenIsTheWinnersUid) {
  const Graph g = make_grid(5, 5);
  EngineConfig cfg;
  cfg.seed = 3;
  SyncEngine eng(g, cfg);
  Rng id_rng(17);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomFromZ, id_rng));
  eng.init_processes(make_explicit(make_flood_max()));
  eng.run();
  const auto verdict = judge_election(eng);
  ASSERT_TRUE(verdict.unique_leader);
  const Uid winner = eng.uid_of(verdict.leader_slot);
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = dynamic_cast<const ExplicitProcess*>(eng.process(s));
    ASSERT_TRUE(p->known_leader().has_value()) << "slot " << s;
    EXPECT_EQ(*p->known_leader(), winner) << "slot " << s;
  }
}

TEST(ExplicitElect, AnnouncementCostsExactlyOneFloodDeterministic) {
  // The wrapper adds exactly deg(L) + sum_{v != L}(deg(v) - 1) = 2m - (n-1)
  // messages on top of a deterministic inner algorithm.
  Rng rng(7);
  const Graph g = make_random_connected(30, 80, rng);
  RunOptions opt;
  opt.seed = 9;
  const auto implicit = run_election(g, make_flood_max(), opt);
  const auto expl = run_explicit(g, make_flood_max(), opt);
  ASSERT_TRUE(implicit.verdict.unique_leader);
  ASSERT_TRUE(expl.rep.verdict.unique_leader);
  const auto announce_msgs = expl.rep.run.messages - implicit.run.messages;
  EXPECT_EQ(announce_msgs, 2 * g.m() - (g.n() - 1));
}

TEST(ExplicitElect, WorksOnAnonymousNetworks) {
  // The identity learned is the winner's random announcement token.
  const Graph g = make_cycle(20);
  LeastElConfig lcfg = LeastElConfig::all_candidates();
  lcfg.tiebreak = LeastElConfig::Tiebreak::Random;
  RunOptions opt;
  opt.anonymous = true;
  opt.seed = 21;
  const auto out = run_explicit(g, make_least_el(lcfg), opt);
  ASSERT_TRUE(out.rep.verdict.unique_leader);
  EXPECT_EQ(out.know_count, g.n());
  EXPECT_EQ(out.learned.size(), 1u);
}

TEST(ExplicitElect, HaltingInnerDoesNotStrandTheAnnouncement) {
  // trivial_random halts instantly at every node; the wrapper must defer
  // those halts until the announcement flood has passed through.
  const Graph g = make_path(24);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RunOptions opt;
    opt.seed = seed;
    opt.knowledge = Knowledge::of_n(g.n());
    const auto out = run_explicit(g, make_trivial_random(), opt);
    if (out.rep.verdict.elected == 1) {
      EXPECT_EQ(out.know_count, g.n()) << "seed " << seed;
      EXPECT_EQ(out.learned.size(), 1u) << "seed " << seed;
    } else {
      // No single winner: nothing (or several things) to learn; the run
      // must still terminate, which reaching this line demonstrates.
      EXPECT_TRUE(out.rep.run.completed);
    }
  }
}

TEST(ExplicitElect, ComposesWithKingdom) {
  Rng rng(13);
  const Graph g = make_random_connected(36, 80, rng);
  RunOptions opt;
  opt.seed = 4;
  opt.max_rounds = 500'000;
  const auto out = run_explicit(g, make_kingdom(), opt);
  ASSERT_TRUE(out.rep.verdict.unique_leader);
  EXPECT_EQ(out.know_count, g.n());
}

TEST(ExplicitElect, ComposesWithLeastElVariantA) {
  Rng rng(15);
  const Graph g = make_random_connected(50, 150, rng);
  RunOptions opt;
  opt.seed = 6;
  opt.knowledge = Knowledge::of_n(g.n());
  const auto out =
      run_explicit(g, make_least_el(LeastElConfig::variant_A(g.n())), opt);
  ASSERT_TRUE(out.rep.verdict.unique_leader);
  EXPECT_EQ(out.know_count, g.n());
  EXPECT_EQ(out.learned.size(), 1u);
}

TEST(ExplicitElect, ComposesWithSleepingInnerLasVegas) {
  // The Las Vegas inner algorithm parks itself with sleep_until() between
  // epochs; the wrapper must faithfully relay that wish (and still wake it
  // for real messages), exercising the Sleep branch of the pass-through.
  Rng rng(43);
  const Graph g = make_random_connected(24, 60, rng);
  const auto d = diameter_exact(g);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    RunOptions opt;
    opt.seed = seed;
    opt.knowledge = Knowledge::of_n_d(g.n(), d);
    const auto out = run_explicit(
        g, make_least_el(LeastElConfig::las_vegas(d)), opt);
    ASSERT_TRUE(out.rep.verdict.unique_leader) << "seed " << seed;
    EXPECT_EQ(out.know_count, g.n()) << "seed " << seed;
  }
}

TEST(ExplicitElect, CongestClean) {
  const Graph g = make_complete(8);
  RunOptions opt;
  opt.seed = 2;
  opt.congest = CongestMode::Count;
  const auto out = run_explicit(g, make_flood_max(), opt);
  ASSERT_TRUE(out.rep.verdict.unique_leader);
  EXPECT_EQ(out.rep.run.congest_violations, 0u);
}

TEST(ExplicitElect, SingleNodeGraph) {
  const Graph g = make_path(1);
  RunOptions opt;
  opt.seed = 1;
  const auto out = run_explicit(g, make_flood_max(), opt);
  EXPECT_TRUE(out.rep.verdict.unique_leader);
  EXPECT_EQ(out.know_count, 1u);
}

}  // namespace
}  // namespace ule
