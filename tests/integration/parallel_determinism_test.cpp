// Parallel-determinism matrix: the engine must produce BIT-FOR-BIT identical
// runs at every thread count.  A subset of the engine-equivalence golden
// cells (every algorithm family, sparse and dense graphs) runs at threads ∈
// {1, 2, 3, 8} with the sequential-fallback cutoff forced to 1 so even these
// small graphs exercise the sharded execute / ordered-merge pipeline (and,
// via the 16x scatter threshold, the parallel CSR bucket pass).  Everything
// observable must match the threads=1 run: every RunResult counter, every
// node's election status, the leader slot, and the per-node send counts.
//
// The threads=1 runs themselves are pinned against the seed engine by
// engine_equivalence_test, so transitively every thread count reproduces the
// seed engine exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "election/clustering.hpp"
#include "election/dfs_election.hpp"
#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"
#include "election/size_estimate.hpp"
#include "election/sublinear_complete.hpp"
#include "graphgen/dumbbell.hpp"
#include "graphgen/generators.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"
#include "net/ids.hpp"
#include "spanner/spanner_elect.hpp"

namespace ule {
namespace {

/// The production path itself: run_election reports per-node statuses and
/// send counts, so the matrix tests exactly the engine configuration every
/// experiment uses (no hand-mirrored setup to drift).
ElectionReport run_snapshot(const Graph& g, const ProcessFactory& factory,
                            const RunOptions& opt) {
  return run_election(g, factory, opt);
}

void expect_identical(const ElectionReport& base, const ElectionReport& got,
                      const std::string& where) {
  EXPECT_TRUE(testing::same_counters(base.run, got.run)) << where;
  EXPECT_EQ(base.run.undecided_nodes, got.run.undecided_nodes) << where;
  EXPECT_EQ(base.run.dead_link_nodes, got.run.dead_link_nodes) << where;
  ASSERT_EQ(base.statuses.size(), got.statuses.size()) << where;
  for (NodeId s = 0; s < base.statuses.size(); ++s)
    EXPECT_EQ(base.statuses[s], got.statuses[s]) << where << " node " << s;
  EXPECT_EQ(base.sent_by_node, got.sent_by_node) << where;
}

struct Cell {
  const char* name;
  Graph graph;
  ProcessFactory factory;
  RunOptions opt;
  /// Adversarial cells may legitimately fail to elect (that's the scenario
  /// layer's concern, not this test's) — they only have to fail identically.
  bool require_completed = true;
};

std::vector<Cell> matrix() {
  std::vector<Cell> cells;
  const auto add = [&cells](const char* name, Graph g, ProcessFactory f,
                            RunOptions opt) {
    cells.push_back(Cell{name, std::move(g), std::move(f), std::move(opt)});
  };

  RunOptions opt;
  add("flood_max/complete12", make_complete(12), make_flood_max(), opt);
  add("flood_max/grid4x6", make_grid(4, 6), make_flood_max(), opt);

  opt = RunOptions{};
  opt.ids = IdScheme::RandomPermutation;
  opt.max_rounds = Round{1} << 62;
  add("dfs/cycle24", make_cycle(24), make_dfs_election(), opt);

  {
    Rng rng(0xFA417ULL);
    Graph g = make_random_connected(40, 100, rng);
    opt = RunOptions{};
    opt.knowledge = Knowledge::of_n(g.n());
    add("least_el_all/gnm40_100", std::move(g),
        make_least_el(LeastElConfig::all_candidates()), opt);
  }

  opt = RunOptions{};
  opt.max_rounds = 1'000'000;
  add("kingdom/cycle24", make_cycle(24), make_kingdom(), opt);

  opt = RunOptions{};
  opt.knowledge = Knowledge::of_n(64);
  add("sublinear/complete64", make_complete(64), make_sublinear_complete(),
      opt);

  opt = RunOptions{};
  add("size_estimate/cycle24", make_cycle(24), make_size_estimate_elect(),
      opt);

  opt = RunOptions{};
  opt.knowledge = Knowledge::of_n(24);
  add("clustering/grid4x6", make_grid(4, 6), make_clustering(), opt);

  {
    Rng rng(0xFA417ULL);
    Graph g = make_random_connected(40, 100, rng);
    opt = RunOptions{};
    opt.knowledge = Knowledge::of_n(g.n());
    add("spanner_elect/gnm40_100", std::move(g),
        make_spanner_elect(SpannerElectConfig{3, 0}), opt);
  }

  // Dense rounds at a size where shards hold real work and the scatter pass
  // crosses its 16x threshold with cutoff=1 (K96: ~9k envelopes per round).
  opt = RunOptions{};
  add("flood_max/complete96", make_complete(96), make_flood_max(), opt);

  {
    const Dumbbell db = make_dumbbell(32, 60, 0, 3);
    opt = RunOptions{};
    opt.knowledge = Knowledge::of_n(db.graph.n());
    add("least_el_logn/dumbbell32_60", db.graph,
        make_least_el(LeastElConfig::variant_A(db.graph.n())), opt);
  }

  // Adversarial cells.  The adversary's coins are keyed by (seed, sender,
  // edge, per-sender send index) — never by execution order — so a faulty
  // run must be just as bit-for-bit reproducible across thread counts as a
  // clean one.  Cells with lossy faults run under a tight round cap and are
  // allowed to end undecided; the matrix then also pins the non-termination
  // diagnostics (last_progress, crashed, undecided_nodes) across threads.
  const auto add_adv = [&cells](const char* name, Graph g, ProcessFactory f,
                                RunOptions opt) {
    cells.push_back(Cell{name, std::move(g), std::move(f), std::move(opt),
                         /*require_completed=*/false});
  };

  opt = RunOptions{};
  opt.adversary.seed = 0xA11CE;
  opt.adversary.reorder = 0.5;
  add_adv("flood_max/complete12+reorder", make_complete(12), make_flood_max(),
          opt);

  opt = RunOptions{};
  opt.max_rounds = 20'000;
  opt.adversary.seed = 0xBEEF;
  opt.adversary.max_delay = 2;
  opt.adversary.drop = 0.10;
  add_adv("kingdom/cycle24+delay_drop", make_cycle(24), make_kingdom(), opt);

  // Dense delayed rounds: with cutoff=1 they cross the 16x scatter threshold
  // with envelopes both in the due ring slot and in the lanes, so the
  // parallel scatter walks every kind of delivery source.  Plain flood_max
  // is not safe under delays and duplicates; the ARQ wrapper makes it elect.
  opt = RunOptions{};
  opt.max_rounds = 5'000;
  opt.adversary.seed = 0xDE1A;
  opt.adversary.max_delay = 2;
  opt.adversary.duplicate = 0.05;
  add("flood_max_reliable/complete96+delay_dup", make_complete(96),
      make_reliable(make_flood_max(), ReliableConfig{}), opt);

  opt = RunOptions{};
  opt.max_rounds = 5'000;
  opt.adversary.seed = 0xC4A5;
  opt.adversary.crashes = {{5, 2}, {17, 4}};
  add_adv("flood_max/grid4x6+crash", make_grid(4, 6), make_flood_max(), opt);

  // Churn cells: crash-RECOVERY intervals.  A rebirth replaces the process
  // mid-run (fresh state, per-incarnation RNG domain) and purges the dead
  // window's deliveries into adv_crash_drops — all of which must reproduce
  // bit-for-bit across thread counts, including the recovery coins.
  opt = RunOptions{};
  opt.max_rounds = 5'000;
  opt.adversary.seed = 0xC4A6;
  opt.adversary.crashes = {{5, 0, 4}, {17, 0, 6}};  // two empty first lives
  add_adv("flood_max/grid4x6+churn", make_grid(4, 6), make_flood_max(), opt);

  opt = RunOptions{};
  opt.max_rounds = 20'000;
  opt.adversary.seed = 0xBEE2;
  opt.adversary.max_delay = 2;
  opt.adversary.drop = 0.10;
  opt.adversary.crashes = {{7, 1, 5}};  // post-step rebirth, delivery mix on
  add_adv("kingdom/cycle24+churn_mix", make_cycle(24), make_kingdom(), opt);

  // Every fault class at once, on the one protocol calibrated as safe under
  // all of them (sublinear_complete, safe_under = kAll).
  opt = RunOptions{};
  opt.knowledge = Knowledge::of_n(32);
  opt.max_rounds = 5'000;
  opt.adversary.seed = 0xF17E;
  opt.adversary.max_delay = 1;
  opt.adversary.drop = 0.05;
  opt.adversary.duplicate = 0.05;
  opt.adversary.reorder = 0.3;
  opt.adversary.crashes = {{3, 3}};
  add_adv("sublinear/complete32+all_faults", make_complete(32),
          make_sublinear_complete(), opt);

  return cells;
}

TEST(ParallelDeterminism, MatrixIdenticalAtEveryThreadCount) {
  const unsigned kThreads[] = {2, 3, 8};
  for (Cell& cell : matrix()) {
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      RunOptions opt = cell.opt;
      opt.seed = seed;
      opt.threads = 1;
      const ElectionReport base = run_snapshot(cell.graph, cell.factory, opt);
      if (cell.require_completed) {
        ASSERT_TRUE(base.run.completed) << cell.name;
      }
      for (const unsigned t : kThreads) {
        opt.threads = t;
        opt.parallel_cutoff = 1;  // force even tiny rounds onto the pool
        const ElectionReport got = run_snapshot(cell.graph, cell.factory, opt);
        expect_identical(base, got,
                         std::string(cell.name) + " seed " +
                             std::to_string(seed) + " threads " +
                             std::to_string(t));
      }
    }
  }
}

TEST(ParallelDeterminism, DefaultCutoffKeepsSmallGraphsSequentialAndIdentical) {
  // Without the cutoff override, small graphs should take the sequential
  // fallback inside a threads>1 engine — and still match, trivially.
  RunOptions opt;
  opt.seed = 7;
  const Graph g = make_complete(12);
  opt.threads = 1;
  const ElectionReport base = run_snapshot(g, make_flood_max(), opt);
  opt.threads = 4;
  const ElectionReport got = run_snapshot(g, make_flood_max(), opt);
  expect_identical(base, got, "flood_max/complete12 default cutoff");
}

TEST(ParallelDeterminism, CongestEnforceThrowsAtEveryThreadCount) {
  // A protocol that double-sends on one port must throw under Enforce on
  // the parallel path too (the first worker error in shard order).
  class DoubleSend final : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      FlatMsg m;
      m.type = 1;
      m.channel = 99;
      m.bits = 64;
      ctx.send(0, m);
      ctx.send(0, m);
      ctx.halt();
    }
    void on_round(Context&, std::span<const Envelope>) override {}
  };
  const Graph g = make_complete(8);
  for (const unsigned t : {1u, 4u}) {
    EngineConfig cfg;
    cfg.congest = CongestMode::Enforce;
    cfg.threads = t;
    cfg.parallel_cutoff = 1;
    SyncEngine eng(g, cfg);
    eng.init_processes(
        [](NodeId) { return std::make_unique<DoubleSend>(); });
    EXPECT_THROW(eng.run(), std::runtime_error) << "threads " << t;
  }
}

}  // namespace
}  // namespace ule
