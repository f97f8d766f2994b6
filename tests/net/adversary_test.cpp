// Engine-level semantics of the delivery/fault adversary (net/adversary.hpp):
// the billing rules (a drop is billed at send but never delivered, a
// duplicate is delivered but never billed — the adversary's forgery, not the
// algorithm's spend), the delay bound and the delayed-older-first arrival
// order, crash-stop halting, and the zero-overhead contract that an INERT
// adversary config (seed set, every knob zero) runs bit-for-bit like a plain
// engine.  The scenario/registry layers build on exactly these guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "helpers.hpp"
#include "net/engine.hpp"

namespace ule {
namespace {

/// Broadcasts one flat message per port for `rounds_to_send` steps (payload
/// encodes sender slot and send round), then goes passive; records every
/// arrival as (arrival round, payload).
class Chatter final : public Process {
 public:
  explicit Chatter(int rounds_to_send) : left_(rounds_to_send) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }

  static std::uint64_t payload(NodeId slot, Round sent) {
    return slot * 1000 + sent;
  }
  static Round sent_round(std::uint64_t payload) { return payload % 1000; }

  std::vector<std::pair<Round, std::uint64_t>> got;

 private:
  void step(Context& ctx, std::span<const Envelope> inbox) {
    for (const Envelope& e : inbox) got.emplace_back(ctx.round(), e.flat.a);
    if (left_ > 0) {
      --left_;
      FlatMsg m;
      m.type = 7;
      m.channel = 99;
      m.bits = 64;
      m.a = payload(ctx.slot(), ctx.round());
      ctx.broadcast(m);
    } else {
      ctx.idle();
    }
  }
  int left_;
};

Graph path2() { return Graph::from_edges(2, {{0, 1}}); }
Graph path3() { return Graph::from_edges(3, {{0, 1}, {1, 2}}); }

/// Halts on its first step: the voluntary-halt foil for the crash-billing
/// split (its discarded arrivals must never count as adversary damage).
class Quitter final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    ctx.halt();
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    ctx.halt();
  }
};

TEST(Adversary, InertConfigsMatchPlainRunExactly) {
  // An inert adversary (seed set, every knob zero: active() is false) and a
  // churn schedule of ONLY empty intervals (recover == crash, dropped at
  // build time) must both take the exact fault-free hot path — every
  // counter identical to a plain run, so nothing crashed and nothing reborn.
  const auto run_once = [](const AdversaryConfig& adversary) {
    EngineConfig cfg;
    cfg.seed = 5;
    cfg.adversary = adversary;
    const Graph g = path3();
    SyncEngine eng(g, cfg);
    eng.init_processes([](NodeId) { return std::make_unique<Chatter>(4); });
    return eng.run();
  };
  const RunResult plain = run_once({});
  EXPECT_TRUE(plain.completed);
  AdversaryConfig inert;
  inert.seed = 0xFEED;
  EXPECT_TRUE(testing::same_counters(plain, run_once(inert)));
  AdversaryConfig noop_churn;
  noop_churn.crashes = {{1, 3, 3}, {2, 4, 4}};
  EXPECT_TRUE(testing::same_counters(plain, run_once(noop_churn)));
}

TEST(Adversary, DropIsBilledButNotDelivered) {
  EngineConfig cfg;
  cfg.adversary.seed = 11;
  cfg.adversary.drop = 1.0;  // every message eaten
  const Graph g = path2();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId slot) {
    return std::make_unique<Chatter>(slot == 0 ? 5 : 0);
  });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 5u);  // the algorithm SPENT five messages...
  EXPECT_EQ(res.bits, 5u * 64u);
  const auto* receiver = dynamic_cast<const Chatter*>(eng.process(1));
  EXPECT_TRUE(receiver->got.empty());  // ...and the adversary ate them all
}

TEST(Adversary, DuplicateIsDeliveredTwiceButBilledOnce) {
  EngineConfig cfg;
  cfg.adversary.seed = 11;
  cfg.adversary.duplicate = 1.0;  // every message doubled
  const Graph g = path2();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId slot) {
    return std::make_unique<Chatter>(slot == 0 ? 3 : 0);
  });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 3u);  // the duplicate is the adversary's forgery
  EXPECT_EQ(res.bits, 3u * 64u);
  const auto* receiver = dynamic_cast<const Chatter*>(eng.process(1));
  ASSERT_EQ(receiver->got.size(), 6u);
  // Copies are adjacent (queued back-to-back on the same lane) and identical.
  for (std::size_t i = 0; i < 6; i += 2)
    EXPECT_EQ(receiver->got[i].second, receiver->got[i + 1].second);
}

TEST(Adversary, DelayIsBoundedAndOlderArrivalsComeFirst) {
  EngineConfig cfg;
  cfg.adversary.seed = 0xD31A;
  cfg.adversary.max_delay = 3;
  const Graph g = path2();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId slot) {
    return std::make_unique<Chatter>(slot == 0 ? 20 : 0);
  });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  const auto* receiver = dynamic_cast<const Chatter*>(eng.process(1));
  ASSERT_EQ(receiver->got.size(), 20u);  // delayed, never lost

  for (std::size_t i = 0; i < receiver->got.size(); ++i) {
    const auto [arrived, payload] = receiver->got[i];
    const Round sent = Chatter::sent_round(payload);
    // A message sent in round r arrives in [r + 1, r + 1 + max_delay].
    EXPECT_GE(arrived, sent + 1);
    EXPECT_LE(arrived, sent + 1 + cfg.adversary.max_delay);
    // Within one arrival round, messages delayed from earlier rounds are
    // delivered before fresher ones (the ring drains before the new lanes).
    if (i > 0 && receiver->got[i - 1].first == arrived) {
      EXPECT_LE(Chatter::sent_round(receiver->got[i - 1].second), sent);
    }
  }
}

TEST(Adversary, CrashStopHaltsTheNodeMidRun) {
  EngineConfig cfg;
  cfg.adversary.crashes = {{2, 3}};  // node 2 dies at the start of round 3
  const Graph g = path3();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Chatter>(8); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.crashed, 1u);

  // The victim neither stepped nor received after its crash round...
  const auto* victim = dynamic_cast<const Chatter*>(eng.process(2));
  for (const auto& [round, payload] : victim->got) EXPECT_LT(round, 3u);
  // ...and its neighbor hears nothing the victim would have sent at or
  // after round 3 (sends from rounds 0-2 still arrive one round later).
  const auto* neighbor = dynamic_cast<const Chatter*>(eng.process(1));
  for (const auto& [round, payload] : neighbor->got) {
    if (payload / 1000 == 2) {
      EXPECT_LT(Chatter::sent_round(payload), 3u);
    }
  }
}

TEST(Adversary, RecoveryAfterGlobalTerminationReopensTheRun) {
  // Everyone quiesces by round ~6; node 2's rebirth at 30 must still
  // happen — the fast-forward jumps TO the recovery round, not past it —
  // and the reborn node restarts from its initial state (fresh init, same
  // slot), its new sends reaching the idle survivors.
  EngineConfig cfg;
  cfg.adversary.crashes = {{2, 0, 30}};
  const Graph g = path3();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Chatter>(2); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.crashed, 1u);
  EXPECT_EQ(res.recoveries, 1u);
  EXPECT_GE(res.rounds, 31u);

  // The reborn victim is a FRESH process: it woke at round 30 and re-ran
  // its full send budget from scratch.
  const auto* victim = dynamic_cast<const Chatter*>(eng.process(2));
  for (const auto& [round, payload] : victim->got) EXPECT_GE(round, 30u);
  // Its neighbor hears the second life: payloads stamped with send rounds
  // 30 and 31, arriving one round later.
  const auto* neighbor = dynamic_cast<const Chatter*>(eng.process(1));
  std::size_t second_life = 0;
  for (const auto& [round, payload] : neighbor->got) {
    if (payload / 1000 != 2) continue;
    ++second_life;
    EXPECT_GE(Chatter::sent_round(payload), 30u);
    EXPECT_EQ(round, Chatter::sent_round(payload) + 1);
  }
  EXPECT_EQ(second_life, 2u);
}

TEST(Adversary, SameNodeCanChurnTwice) {
  // Two disjoint intervals for one node: dead [1,3), alive [3,5), dead
  // [5,8), alive from 8.  Each interval is one crash + one rebirth, and
  // the final incarnation is again a fresh process.
  EngineConfig cfg;
  cfg.adversary.crashes = {{2, 1, 3}, {2, 5, 8}};
  const Graph g = path3();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Chatter>(8); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.crashed, 2u);
  EXPECT_EQ(res.recoveries, 2u);
  // The surviving process object is the THIRD incarnation: nothing it
  // received predates its rebirth round.
  const auto* victim = dynamic_cast<const Chatter*>(eng.process(2));
  for (const auto& [round, payload] : victim->got) EXPECT_GE(round, 8u);
}

TEST(Adversary, CrashedWindowDeliveriesBillAdvCrashDropsOnly) {
  // The split-counter contract: a delivery purged because its receiver sits
  // in a crashed window bills adv_crash_drops — NOT adv_drops (the random
  // delivery-drop counter), and a voluntarily halted receiver's discarded
  // deliveries bill neither.  Node 1 broadcasts six rounds; node 0 churns
  // over [1, 6) (purging the five arrivals of rounds 1-5); node 2 halts
  // immediately, so its five discarded arrivals must stay unbilled.
  EngineConfig cfg;
  cfg.adversary.crashes = {{0, 1, 6}};
  const Graph g = path3();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId slot) -> std::unique_ptr<Process> {
    if (slot == 2) return std::make_unique<Quitter>();
    return std::make_unique<Chatter>(slot == 1 ? 6 : 2);
  });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.crashed, 1u);
  EXPECT_EQ(res.recoveries, 1u);
  EXPECT_EQ(res.adv_crash_drops, 5u);  // node 0's dead window only
  EXPECT_EQ(res.adv_drops, 0u);        // no random drops in this run
  // The reborn node 0 hears node 1's round-5 send (arriving exactly at its
  // recovery round) and everything after.
  const auto* reborn = dynamic_cast<const Chatter*>(eng.process(0));
  ASSERT_FALSE(reborn->got.empty());
  EXPECT_EQ(reborn->got.front().first, 6u);
}

TEST(Adversary, ConfigValidationRejectsBadKnobs) {
  {
    EngineConfig cfg;
    cfg.adversary.drop = 1.5;
    EXPECT_THROW(SyncEngine(path2(), cfg), std::invalid_argument);
  }
  {
    EngineConfig cfg;
    cfg.adversary.reorder = -0.25;
    EXPECT_THROW(SyncEngine(path2(), cfg), std::invalid_argument);
  }
  {
    EngineConfig cfg;
    cfg.adversary.crashes = {{9, 1}};  // node out of range for a 2-node graph
    EXPECT_THROW(SyncEngine(path2(), cfg), std::invalid_argument);
  }
  {
    EngineConfig cfg;
    cfg.adversary.crashes = {{1, 5, 2}};  // recovers before it crashes
    EXPECT_THROW(SyncEngine(path2(), cfg), std::invalid_argument);
  }
}

/// Sends for a few rounds, then sleeps far past the horizon — the run hits
/// max_rounds with a long silent tail.
class Staller final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 3;
    m.channel = 98;
    m.bits = 64;
    ctx.broadcast(m);
    ctx.sleep_until(1'000'000);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    ctx.sleep_until(1'000'000);  // re-arm: a message arrival must not wake us
  }
};

TEST(Adversary, NonTerminationDiagnosticsNameTheStragglers) {
  EngineConfig cfg;
  cfg.max_rounds = 50;
  cfg.fast_forward = false;  // tick through the crash round, don't jump it
  cfg.adversary.crashes = {{1, 2}};
  const Graph g = path3();
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Staller>(); });
  const RunResult res = eng.run();
  ASSERT_FALSE(res.completed);
  EXPECT_LE(res.last_progress, 3u);  // all progress happened up front
  EXPECT_EQ(res.crashed, 1u);

  // The sample lists the undecided survivors; the crash victim can never
  // decide and must NOT be blamed.
  EXPECT_EQ(res.undecided_nodes.size(), 2u);
  EXPECT_EQ(std::count(res.undecided_nodes.begin(), res.undecided_nodes.end(),
                       NodeId{1}),
            0);

  const std::string d = describe_nontermination(res);
  EXPECT_NE(d.find("max_rounds"), std::string::npos) << d;
  EXPECT_NE(d.find("last progress"), std::string::npos) << d;
  EXPECT_NE(d.find("undecided"), std::string::npos) << d;
}

TEST(Adversary, CompletedUndecidedRunTellsQuiescentStory) {
  // Chatter never decides: the run QUIESCES with every node undecided.  That
  // is the deadlock/starvation shape (as opposed to hitting max_rounds), and
  // since PR 7 it gets its own diagnosis — a drop=1.0 partition or a crashed
  // relay leaves exactly this signature.
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<Chatter>(2); });
  const RunResult res = eng.run();
  ASSERT_TRUE(res.completed);
  EXPECT_EQ(res.undecided_nodes.size(), 2u);
  const std::string d = describe_nontermination(res);
  EXPECT_NE(d.find("quiesced undecided"), std::string::npos) << d;
  EXPECT_NE(d.find("last progress"), std::string::npos) << d;
  EXPECT_EQ(d.find("max_rounds"), std::string::npos) << d;
}

}  // namespace
}  // namespace ule
