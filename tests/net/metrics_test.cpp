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

/// Adversarial flood-max through the ARQ wrapper on K_16: exercises every
/// counter family (engine.*, adversary.*, arq.*) and both fault-recovery
/// paths, while still electing a leader.  `max_delay` > 0 adds delays.
ElectionReport metered_run(unsigned threads, bool metrics,
                           Round max_delay = 0) {
  const Graph g = make_complete(16);
  RunOptions opt;
  opt.seed = 77;
  opt.congest = CongestMode::Off;
  opt.threads = threads;
  opt.parallel_cutoff = 1;  // force the sharded path at threads > 1
  opt.adversary.seed = 0xBEEF;
  opt.adversary.drop = 0.15;
  opt.adversary.duplicate = 0.10;
  opt.adversary.max_delay = max_delay;
  opt.metrics.enabled = metrics;
  ReliableConfig rcfg;
  return run_election(g, make_reliable(make_flood_max(), rcfg), opt);
}

/// metrics_json of a fixed two-round registry, pinned byte for byte.  The
/// validator corpus below is built from these bytes.
const std::string kGoldenSnapshot =
    "{\n"
    "  \"bench\": \"engine_metrics\",\n"
    "  \"rows\": [\n"
    "    {\"kind\": \"gauge\", \"name\": \"active_set\", \"samples\": 2, "
    "\"last\": 8, \"max\": 10, \"total\": 18},\n"
    "    {\"kind\": \"gauge\", \"name\": \"wake_heap\", \"samples\": 2, "
    "\"last\": 3, \"max\": 5, \"total\": 8},\n"
    "    {\"kind\": \"gauge\", \"name\": \"inbox_csr\", \"samples\": 2, "
    "\"last\": 12, \"max\": 20, \"total\": 32},\n"
    "    {\"kind\": \"gauge\", \"name\": \"outbox_arena\", \"samples\": 2, "
    "\"last\": 24, \"max\": 40, \"total\": 64},\n"
    "    {\"kind\": \"counter\", \"name\": \"arq.retransmissions\", "
    "\"value\": 4},\n"
    "    {\"kind\": \"counter\", \"name\": \"engine.messages\", "
    "\"value\": 123}\n"
    "  ]\n"
    "}\n";

/// `doc` with the first occurrence of `from` replaced by `to`.
std::string mutate(std::string doc, const std::string& from,
                   const std::string& to) {
  const std::size_t at = doc.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return doc.replace(at, from.size(), to);
}

std::string replace_all(std::string doc, const std::string& from,
                        const std::string& to) {
  for (std::size_t at = 0; (at = doc.find(from, at)) != std::string::npos;
       at += to.size())
    doc.replace(at, from.size(), to);
  return doc;
}

TEST(Metrics, JsonRoundTripsThroughItsOwnValidator) {
  MetricsRegistry reg;
  reg.sample_round(10, 5, 20, 40);
  reg.sample_round(8, 3, 12, 24);
  reg.counter("engine.messages", 123);
  reg.counter("arq.retransmissions", 4);
  const std::string doc = metrics_json(reg.snapshot());
  EXPECT_EQ(doc, kGoldenSnapshot);

  // The golden corpus of the schema gate: bytes -> verdict.  Every verdict
  // was recorded from the validator that predates the shared bench-document
  // reader; `changed` marks the only two that differ — that validator
  // counted field occurrences, so a repeated key could stand in for a
  // missing one or silently overwrite the first.
  struct Case {
    std::string what;
    std::string bytes;
    bool valid;
    bool changed = false;
  };
  const std::string gauge_row =
      "{\"kind\": \"gauge\", \"name\": \"active_set\", \"samples\": 2, "
      "\"last\": 8, \"max\": 10, \"total\": 18}";
  const std::string messages_row =
      "{\"kind\": \"counter\", \"name\": \"engine.messages\", \"value\": 123}";
  std::vector<Case> corpus = {
      // Writer outputs.
      {"golden snapshot", doc, true},
      {"empty snapshot", metrics_json(MetricsSnapshot{}), true},
      {"adversarial reliable run", metrics_json(*metered_run(1, true).run.metrics),
       true},
      // Whitespace and bytes the grammar allows.
      {"form feeds between tokens", replace_all(doc, ", ", ",\f"), true},
      {"CRLF line ends", replace_all(doc, "\n", "\r\n"), true},
      {"leading and trailing whitespace", " \t\n" + doc + "\n\v ", true},
      {"backslash inside a name",
       mutate(doc, "engine.messages", "engine\\messages"), true},
      {"fields reordered within a row",
       mutate(doc, gauge_row,
              "{\"total\": 18, \"max\": 10, \"last\": 8, \"samples\": 2, "
              "\"name\": \"active_set\", \"kind\": \"gauge\"}"),
       true},
      {"leading zeros in a counter", mutate(doc, "\"value\": 4}", "\"value\": 004}"),
       true},
      // Schema rejects.
      {"wrong bench tag", mutate(doc, "engine_metrics", "engine_MUTATED"), false},
      {"unknown field", mutate(doc, "\"samples\"", "\"smuggle\""), false},
      {"value 1.0", mutate(doc, "\"value\": 4}", "\"value\": 1.0}"), false},
      {"value -1", mutate(doc, "\"value\": 4}", "\"value\": -1}"), false},
      {"value true", mutate(doc, "\"value\": 4}", "\"value\": true}"), false},
      {"value 1e3", mutate(doc, "\"value\": 4}", "\"value\": 1e3}"), false},
      {"value +5", mutate(doc, "\"value\": 4}", "\"value\": +5}"), false},
      {"quoted value", mutate(doc, "\"value\": 4}", "\"value\": \"4\"}"), false},
      {"quoted samples", mutate(doc, "\"samples\": 2,", "\"samples\": \"2\","),
       false},
      {"empty rows", "{\"bench\": \"engine_metrics\", \"rows\": []}", false},
      {"unsorted counters",
       mutate(mutate(doc, "arq.retransmissions", "zzz.placeholder"),
              "engine.messages", "arq.retransmissions"),
       false},
      {"missing gauge",
       mutate(doc,
              "    {\"kind\": \"gauge\", \"name\": \"wake_heap\", \"samples\": "
              "2, \"last\": 3, \"max\": 5, \"total\": 8},\n",
              ""),
       false},
      {"duplicated gauge row", mutate(doc, gauge_row, gauge_row + ", " + gauge_row),
       false},
      {"unknown gauge", mutate(doc, "\"wake_heap\"", "\"heap\""), false},
      {"gauge missing a stat",
       mutate(doc, gauge_row,
              "{\"kind\": \"gauge\", \"name\": \"active_set\", \"samples\": 2, "
              "\"last\": 8, \"max\": 10}"),
       false},
      {"counter carrying a stat",
       mutate(doc, messages_row,
              "{\"kind\": \"counter\", \"name\": \"engine.messages\", "
              "\"value\": 123, \"max\": 1}"),
       false},
      {"unknown row kind", mutate(doc, "\"kind\": \"counter\"", "\"kind\": \"histogram\""),
       false},
      {"unquoted kind", mutate(doc, "\"kind\": \"counter\"", "\"kind\": counter"),
       false},
      {"row without a name",
       mutate(doc, messages_row, "{\"kind\": \"counter\", \"value\": 123}"), false},
      // Grammar rejects.
      {"trailing garbage", doc + "x", false},
      {"empty document", "", false},
      {"trailing comma in rows", mutate(doc, "123}\n", "123},\n"), false},
      {"top-level key after rows", mutate(doc, "  ]\n}", "  ], \"extra\": 1\n}"),
       false},
      {"rows before bench",
       "{\"rows\": [], \"bench\": \"engine_metrics\"}", false},
      {"nested value", mutate(doc, "\"value\": 4}", "\"value\": {}}"), false},
      // A repeated key: the duplicate "samples" hides the missing "total",
      // and a second "name" overwrote the first.
      {"repeated samples instead of total",
       mutate(doc, gauge_row,
              "{\"kind\": \"gauge\", \"name\": \"active_set\", \"samples\": 1, "
              "\"last\": 1, \"max\": 1, \"samples\": 1}"),
       false, true},
      {"repeated name",
       mutate(doc, messages_row,
              "{\"kind\": \"counter\", \"name\": \"b.first\", \"name\": "
              "\"engine.messages\", \"value\": 123}"),
       false, true},
  };
  // Every proper prefix up to the closing brace is a truncated document.
  const std::size_t close = doc.rfind('}');
  for (std::size_t len = 0; len < close; ++len)
    corpus.push_back({"prefix of " + std::to_string(len) + " bytes",
                      doc.substr(0, len), false});
  corpus.push_back({"prefix through the closing brace", doc.substr(0, close + 1),
                    true});

  std::size_t changed = 0;
  for (const Case& c : corpus) {
    std::string err;
    EXPECT_EQ(validate_metrics_json(c.bytes, &err), c.valid)
        << c.what << " (" << err << ")\n" << c.bytes;
    if (!c.valid) {
      EXPECT_FALSE(err.empty()) << c.what;
    }
    changed += c.changed ? 1 : 0;
  }
  EXPECT_EQ(changed, 2u);
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

TEST(Metrics, OutboxGaugeCountsDelayedSends) {
  // The outbox_arena gauge samples every envelope a round sent, whether it
  // is due next round or held back by a drawn delay: over the run it totals
  // the billed sends minus the dropped ones plus the duplicate copies.
  for (const Round max_delay : {1u, 3u}) {
    for (const unsigned t : {1u, 2u, 4u}) {
      const ElectionReport rep = metered_run(t, true, max_delay);
      ASSERT_TRUE(rep.run.metrics.has_value());
      const RunResult& r = rep.run;
      EXPECT_GT(r.adv_delays, 0u) << "max_delay=" << max_delay;
      EXPECT_EQ(rep.run.metrics->outbox_arena.total,
                r.messages - r.adv_drops + r.adv_dups)
          << "max_delay=" << max_delay << " threads=" << t;
    }
  }
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
