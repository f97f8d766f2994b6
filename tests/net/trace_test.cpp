// Engine execution tracing: wakes, sends (with their payloads) and
// status changes, recorded in execution order and rendered round-by-round.

#include <gtest/gtest.h>

#include <algorithm>

#include "election/flood_max.hpp"
#include "graphgen/generators.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

SyncEngine traced_run(const Graph& g, std::size_t limit) {
  EngineConfig cfg;
  cfg.seed = 2;
  cfg.trace_limit = limit;
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make_flood_max());
  eng.run();
  return eng;
}

TEST(Trace, OffByDefault) {
  const Graph g = make_path(4);
  EngineConfig cfg;
  cfg.seed = 2;
  SyncEngine eng(g, cfg);
  Rng id_rng(8);
  eng.set_uids(assign_ids(g.n(), IdScheme::Sequential, id_rng));
  eng.init_processes(make_flood_max());
  eng.run();
  EXPECT_TRUE(eng.trace().empty());
  EXPECT_FALSE(eng.trace_truncated());

  // Recording perturbs nothing: the traced twin has the same counters and
  // the same per-node send counts.
  const SyncEngine traced = traced_run(g, 10'000);
  EXPECT_FALSE(traced.trace().empty());
  EXPECT_FALSE(traced.trace_truncated());
  EXPECT_TRUE(testing::same_counters(eng.result(), traced.result()));
  EXPECT_EQ(eng.sent_by_node(), traced.sent_by_node());
}

TEST(Trace, RecordsWakesSendsAndStatusChanges) {
  const Graph g = make_path(3);
  const SyncEngine eng = traced_run(g, 10'000);
  const auto& tr = eng.trace();

  const auto count = [&](TraceEvent::Kind k) {
    return std::count_if(tr.begin(), tr.end(),
                         [k](const TraceEvent& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(TraceEvent::Kind::Wake), 3);  // every node wakes once
  // Every counted message has a Send event.
  EXPECT_EQ(static_cast<std::uint64_t>(count(TraceEvent::Kind::Send)),
            eng.result().messages);
  // Every node decides exactly once here: 1 elected + 2 non-elected.
  EXPECT_EQ(count(TraceEvent::Kind::StatusChange), 3);
}

TEST(Trace, EventsAreInNondecreasingRoundOrder) {
  const Graph g = make_cycle(8);
  const SyncEngine eng = traced_run(g, 10'000);
  const auto& tr = eng.trace();
  ASSERT_FALSE(tr.empty());
  for (std::size_t i = 1; i < tr.size(); ++i)
    EXPECT_LE(tr[i - 1].round, tr[i].round);
}

TEST(Trace, SendEventsCarryEndpointsAndPayload) {
  const Graph g = make_path(2);
  const SyncEngine eng = traced_run(g, 100);
  bool saw_send = false;
  for (const auto& ev : eng.trace()) {
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

TEST(Trace, LimitTruncatesAndFlags) {
  const Graph g = make_complete(6);
  const SyncEngine eng = traced_run(g, 5);
  EXPECT_EQ(eng.trace().size(), 5u);
  EXPECT_TRUE(eng.trace_truncated());
}

TEST(Trace, FormatMentionsRoundsAndElection) {
  const Graph g = make_path(3);
  const SyncEngine eng = traced_run(g, 10'000);
  const std::string text = format_trace(eng);
  EXPECT_NE(text.find("--- round 0 ---"), std::string::npos);
  EXPECT_NE(text.find("wakes"), std::string::npos);
  EXPECT_NE(text.find("status := elected"), std::string::npos);
  EXPECT_NE(text.find("non-elected"), std::string::npos);
}

TEST(Trace, FormatRespectsLineBudget) {
  const Graph g = make_complete(8);
  const SyncEngine eng = traced_run(g, 100'000);
  const std::string text = format_trace(eng, 10);
  EXPECT_NE(text.find("truncated at 10 lines"), std::string::npos);
  EXPECT_LE(std::count(text.begin(), text.end(), '\n'), 10 + 4);
}

}  // namespace
}  // namespace ule
