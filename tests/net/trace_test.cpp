// Run narration (net/recorder.hpp): wakes, sends (with their payloads) and
// status changes, recorded on the process side, visited in execution order
// and rendered round by round.  Recording changes nothing about the run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "election/flood_max.hpp"
#include "graphgen/generators.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"
#include "net/metrics.hpp"
#include "net/recorder.hpp"
#include "net/reliable.hpp"

namespace ule {
namespace {

SyncEngine run_engine(const Graph& g, EngineConfig cfg,
                      const ProcessFactory& make) {
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make);
  eng.run();
  return eng;
}

SyncEngine recorded_run(const Graph& g, unsigned threads = 1) {
  EngineConfig cfg;
  cfg.seed = 2;
  cfg.threads = threads;
  cfg.parallel_cutoff = 1;  // every round on the sharded path at threads > 1
  return run_engine(g, cfg, recording(make_flood_max()));
}

std::vector<TraceEvent> events(const SyncEngine& eng) {
  std::vector<TraceEvent> out;
  for_each_event(eng, [&out](const TraceEvent& ev) {
    out.push_back(ev);
    return true;
  });
  return out;
}

std::size_t count(const std::vector<TraceEvent>& evs, TraceEvent::Kind k) {
  std::size_t c = 0;
  for (const TraceEvent& ev : evs) c += ev.kind == k;
  return c;
}

TEST(Trace, RecordingPerturbsNothing) {
  // Plain flood-max, and flood-max behind the ARQ layer under a dropping,
  // duplicating adversary (so arq.* and adversary.* metrics are in play):
  // the recorded twin has the same counters, per-node send counts and
  // engine_metrics bytes, sequentially and on the sharded path.
  const Graph g = make_complete(24);
  for (const bool lossy : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      EngineConfig cfg;
      cfg.seed = 5;
      cfg.threads = threads;
      cfg.parallel_cutoff = 1;
      cfg.metrics.enabled = true;
      ProcessFactory make = make_flood_max();
      if (lossy) {
        cfg.adversary.seed = 0xBEEF;
        cfg.adversary.drop = 0.10;
        cfg.adversary.duplicate = 0.05;
        make = make_reliable(make);
      }
      const SyncEngine plain = run_engine(g, cfg, make);
      const SyncEngine rec = run_engine(g, cfg, recording(make));
      SCOPED_TRACE(std::string(lossy ? "lossy" : "clean") + " threads " +
                   std::to_string(threads));
      EXPECT_TRUE(plain.result().completed);
      EXPECT_TRUE(testing::same_counters(plain.result(), rec.result()));
      EXPECT_EQ(plain.sent_by_node(), rec.sent_by_node());
      ASSERT_TRUE(plain.result().metrics && rec.result().metrics);
      EXPECT_EQ(metrics_json(*plain.result().metrics),
                metrics_json(*rec.result().metrics));
      EXPECT_EQ(count(events(rec), TraceEvent::Kind::Send),
                rec.result().messages);
    }
  }
}

TEST(Trace, NarrationIsIdenticalAcrossThreadCounts) {
  const Graph g = make_complete(24);
  const std::string seq = format_trace(recorded_run(g, 1), 1'000'000);
  EXPECT_NE(seq.find("status := elected"), std::string::npos);
  EXPECT_EQ(seq, format_trace(recorded_run(g, 4), 1'000'000));
}

TEST(Trace, RecordsWakesSendsAndStatusChanges) {
  const Graph g = make_path(3);
  const SyncEngine eng = recorded_run(g);
  const std::vector<TraceEvent> evs = events(eng);
  EXPECT_EQ(count(evs, TraceEvent::Kind::Wake), 3u);  // every node wakes once
  // Every counted message has a Send event.
  EXPECT_EQ(count(evs, TraceEvent::Kind::Send), eng.result().messages);
  // Every node decides exactly once here: 1 elected + 2 non-elected.
  EXPECT_EQ(count(evs, TraceEvent::Kind::StatusChange), 3u);
}

TEST(Trace, EventsComeInRoundThenSlotOrder) {
  const Graph g = make_cycle(8);
  const std::vector<TraceEvent> evs = events(recorded_run(g));
  ASSERT_FALSE(evs.empty());
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(std::pair(evs[i - 1].round, evs[i - 1].node),
              std::pair(evs[i].round, evs[i].node));
}

TEST(Trace, SendEventsCarryEndpointsAndPayload) {
  const Graph g = make_path(2);
  bool saw_send = false;
  for (const TraceEvent& ev : events(recorded_run(g))) {
    if (ev.kind != TraceEvent::Kind::Send) continue;
    saw_send = true;
    EXPECT_LT(ev.node, 2u);
    EXPECT_LT(ev.peer, 2u);
    EXPECT_NE(ev.node, ev.peer);
    EXPECT_NE(ev.msg.type, 0u);
    EXPECT_FALSE(flat_debug_string(ev.msg).empty());
  }
  EXPECT_TRUE(saw_send);
}

TEST(Trace, VisitStopsWhenAsked) {
  const Graph g = make_complete(6);
  const SyncEngine eng = recorded_run(g);
  std::size_t calls = 0;
  for_each_event(eng, [&calls](const TraceEvent&) { return ++calls < 5; });
  EXPECT_EQ(calls, 5u);
}

TEST(Trace, ASendThatThrowsLogsNothing) {
  // Two sends on one port in one round under CONGEST Enforce: the second
  // throws, and only the first is narrated.
  class DoubleSend final : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      FlatMsg m;
      m.type = 1;
      m.bits = 64;
      ctx.send(0, m);
      ctx.send(0, m);
    }
    void on_round(Context& ctx, std::span<const Envelope>) override {
      ctx.idle();
    }
  };
  const Graph g = make_path(2);
  EngineConfig cfg;
  cfg.congest = CongestMode::Enforce;
  SyncEngine eng(g, cfg);
  eng.init_processes(
      recording([](NodeId) { return std::make_unique<DoubleSend>(); }));
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(count(events(eng), TraceEvent::Kind::Send), 1u);
}

TEST(Trace, UnrecordedRunThrows) {
  EngineConfig cfg;
  cfg.seed = 2;
  const Graph g = make_path(4);
  const SyncEngine eng = run_engine(g, cfg, make_flood_max());
  EXPECT_THROW(events(eng), std::logic_error);
  EXPECT_THROW(format_trace(eng), std::logic_error);
}

TEST(Trace, FormatMentionsRoundsAndElection) {
  const Graph g = make_path(3);
  const std::string text = format_trace(recorded_run(g));
  EXPECT_NE(text.find("--- round 0 ---"), std::string::npos);
  EXPECT_NE(text.find("wakes"), std::string::npos);
  EXPECT_NE(text.find("status := elected"), std::string::npos);
  EXPECT_NE(text.find("non-elected"), std::string::npos);
}

TEST(Trace, FormatRespectsLineBudget) {
  const Graph g = make_complete(8);
  const std::string text = format_trace(recorded_run(g), 10);
  EXPECT_NE(text.find("truncated at 10 lines"), std::string::npos);
  EXPECT_LE(std::count(text.begin(), text.end(), '\n'), 10 + 4);
}

}  // namespace
}  // namespace ule
