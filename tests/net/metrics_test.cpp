// The engine telemetry surface (net/metrics.hpp): gauge/counter accounting,
// the engine_metrics JSON schema and its validator, and the two contracts
// the ISSUE pins — snapshots are bit-for-bit identical at every thread
// count (telemetry is a pure function of the run), and enabling metrics
// never changes a single RunResult counter (telemetry is pure observation).

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "election/flood_max.hpp"
#include "graphgen/generators.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"
#include "net/metrics.hpp"
#include "net/reliable.hpp"

namespace ule {
namespace {

std::optional<std::uint64_t> counter_value(const MetricsSnapshot& snap,
                                           const std::string& name) {
  for (const auto& [n, v] : snap.counters)
    if (n == name) return v;
  return std::nullopt;
}

TEST(Metrics, GaugeStatsTrackSamplesLastMaxTotal) {
  GaugeStats g;
  EXPECT_EQ(g.samples, 0u);
  g.observe(3);
  g.observe(7);
  g.observe(2);
  EXPECT_EQ(g.samples, 3u);
  EXPECT_EQ(g.last, 2u);
  EXPECT_EQ(g.max, 7u);
  EXPECT_EQ(g.total, 12u);
}

TEST(Metrics, RegistryAccumulatesCountersSortedByName) {
  MetricsRegistry reg;
  reg.counter("b.second", 2);
  reg.counter("a.first", 1);
  reg.counter("b.second", 3);  // accumulates, not overwrites
  reg.sample_round(4, 2, 8, 16);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.active_set.last, 4u);
  EXPECT_EQ(snap.wake_heap.max, 2u);
  EXPECT_EQ(snap.inbox_csr.total, 8u);
  EXPECT_EQ(snap.outbox_arena.samples, 1u);
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a.first");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "b.second");
  EXPECT_EQ(snap.counters[1].second, 5u);
}

TEST(Metrics, JsonRoundTripsThroughItsOwnValidator) {
  MetricsRegistry reg;
  reg.sample_round(10, 5, 20, 40);
  reg.sample_round(8, 3, 12, 24);
  reg.counter("engine.messages", 123);
  reg.counter("arq.retransmissions", 4);
  const std::string doc = metrics_json(reg.snapshot());
  std::string err;
  EXPECT_TRUE(validate_metrics_json(doc, &err)) << err;
  // The schema is strict, not decorative: corruptions are caught.
  std::string wrong_tag = doc;
  wrong_tag.replace(wrong_tag.find("engine_metrics"), 14, "engine_MUTATED");
  EXPECT_FALSE(validate_metrics_json(wrong_tag, &err));
  std::string unknown_field = doc;
  unknown_field.replace(unknown_field.find("\"samples\""), 9, "\"smuggle\"");
  EXPECT_FALSE(validate_metrics_json(unknown_field, &err));
  EXPECT_FALSE(validate_metrics_json(doc + "x", &err));  // trailing garbage
  EXPECT_FALSE(validate_metrics_json("", &err));
}

TEST(Metrics, EmptySnapshotStillValidates) {
  // A run with metrics on but zero rounds and zero counters must still emit
  // schema-valid JSON (the validator requires the four gauge rows, which
  // exist with samples = 0).
  MetricsRegistry reg;
  std::string err;
  EXPECT_TRUE(validate_metrics_json(metrics_json(reg.snapshot()), &err))
      << err;
}

/// Adversarial flood-max through the ARQ wrapper on K_16: exercises every
/// counter family (engine.*, adversary.*, arq.*) and both fault-recovery
/// paths, while still electing a leader.
ElectionReport metered_run(unsigned threads, bool metrics) {
  const Graph g = make_complete(16);
  RunOptions opt;
  opt.seed = 77;
  opt.congest = CongestMode::Off;
  opt.threads = threads;
  opt.parallel_cutoff = 1;  // force the sharded path at threads > 1
  opt.adversary.seed = 0xBEEF;
  opt.adversary.drop = 0.15;
  opt.adversary.duplicate = 0.10;
  opt.metrics.enabled = metrics;
  ReliableConfig rcfg;
  return run_election(g, make_reliable(make_flood_max(), rcfg), opt);
}

TEST(Metrics, SnapshotsAreBitForBitIdenticalAcrossThreadCounts) {
  const ElectionReport ref = metered_run(1, true);
  ASSERT_TRUE(ref.run.metrics.has_value());
  const std::string ref_json = metrics_json(*ref.run.metrics);
  for (const unsigned t : {2u, 4u}) {
    const ElectionReport rep = metered_run(t, true);
    ASSERT_TRUE(rep.run.metrics.has_value()) << "threads=" << t;
    EXPECT_EQ(*rep.run.metrics, *ref.run.metrics) << "threads=" << t;
    EXPECT_EQ(metrics_json(*rep.run.metrics), ref_json) << "threads=" << t;
  }
}

TEST(Metrics, ChurnSnapshotsAreBitForBitIdenticalAcrossThreadCounts) {
  // Same wall, churn edition: a run whose adversary schedule reborn a node
  // mid-run (crash at 0, recover at 5) must produce byte-identical snapshot
  // JSON at every thread count — including the adversary.recoveries and
  // adversary.crash_drops counters the churn layer added, and the arq.*
  // counters of the wrapper replacing the reborn node's process.
  const auto churn_run = [](unsigned threads) {
    const Graph g = make_complete(16);
    RunOptions opt;
    opt.seed = 77;
    opt.congest = CongestMode::Off;
    opt.threads = threads;
    opt.parallel_cutoff = 1;
    opt.adversary.seed = 0xBEEF;
    opt.adversary.drop = 0.15;
    opt.adversary.duplicate = 0.10;
    opt.adversary.crashes = {{3, 0, 5}};
    opt.metrics.enabled = true;
    ReliableConfig rcfg;
    return run_election(g, make_reliable(make_flood_max(), rcfg), opt);
  };
  const ElectionReport ref = churn_run(1);
  ASSERT_TRUE(ref.run.metrics.has_value());
  EXPECT_EQ(ref.run.recoveries, 1u);
  EXPECT_EQ(counter_value(*ref.run.metrics, "adversary.recoveries"), 1u);
  EXPECT_EQ(counter_value(*ref.run.metrics, "adversary.crash_drops"),
            ref.run.adv_crash_drops);
  const std::string ref_json = metrics_json(*ref.run.metrics);
  for (const unsigned t : {2u, 4u}) {
    const ElectionReport rep = churn_run(t);
    ASSERT_TRUE(rep.run.metrics.has_value()) << "threads=" << t;
    EXPECT_EQ(metrics_json(*rep.run.metrics), ref_json) << "threads=" << t;
  }
}

TEST(Metrics, EnablingMetricsNeverPerturbsTheRun) {
  // The in-process twin of the metrics_off_overhead bench row: same seed,
  // metrics on vs off, every RunResult counter identical — and the off run
  // carries no snapshot at all.
  const ElectionReport off = metered_run(1, false);
  const ElectionReport on = metered_run(1, true);
  EXPECT_FALSE(off.run.metrics.has_value());
  ASSERT_TRUE(on.run.metrics.has_value());
  EXPECT_TRUE(testing::same_counters(off.run, on.run));
}

TEST(Metrics, SnapshotCountersMatchTheRunResult) {
  const ElectionReport rep = metered_run(1, true);
  ASSERT_TRUE(rep.run.metrics.has_value());
  const MetricsSnapshot& snap = *rep.run.metrics;
  const RunResult& r = rep.run;
  EXPECT_EQ(counter_value(snap, "engine.messages"), r.messages);
  EXPECT_EQ(counter_value(snap, "engine.bits"), r.bits);
  EXPECT_EQ(counter_value(snap, "engine.node_steps"), r.node_steps);
  // The adversary really fired on this seed, and both surfaces agree.
  EXPECT_GT(r.adv_drops, 0u);
  EXPECT_GT(r.adv_dups, 0u);
  EXPECT_EQ(counter_value(snap, "adversary.drops"), r.adv_drops);
  EXPECT_EQ(counter_value(snap, "adversary.duplicates"), r.adv_dups);
  // The ARQ wrappers exported recovery work into the same snapshot.
  const auto retx = counter_value(snap, "arq.retransmissions");
  ASSERT_TRUE(retx.has_value());
  EXPECT_GT(*retx, 0u);
  // Per-round gauges were actually sampled, one observation per round.
  EXPECT_EQ(snap.active_set.samples,
            static_cast<std::uint64_t>(r.executed_rounds));
  EXPECT_GT(snap.active_set.max, 0u);
  const std::string doc = metrics_json(snap);
  std::string err;
  EXPECT_TRUE(validate_metrics_json(doc, &err)) << err;
}

}  // namespace
}  // namespace ule
