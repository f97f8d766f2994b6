// Active-set scheduler unit tests: the event-driven runnable set (dirty list
// + wake-deadline min-heap) must reproduce the semantics of the original
// full-scan scheduler — staggered wakeups fire exactly on schedule,
// fast-forward jumps over quiet stretches via the heap top, stale heap
// entries (a node woken early by a message, then re-sleeping) never cause
// spurious wakeups, and halting with messages still in flight quiesces
// cleanly.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/engine.hpp"
#include "net/wakeup.hpp"

namespace ule {
namespace {

FlatMsg ping() {
  FlatMsg m;
  m.type = 1;
  m.bits = 64;
  return m;
}

/// Records every round it runs; configurable action per run.
class ProbeProcess : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    ran_at.push_back(ctx.round());
    act(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    ran_at.push_back(ctx.round());
    act(ctx, inbox);
  }
  virtual void act(Context& ctx, std::span<const Envelope>) { ctx.idle(); }

  std::vector<Round> ran_at;
};

Graph path4() { return Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}}); }

TEST(Scheduler, StaggeredWakeupsFireExactlyOnSchedule) {
  const Graph g = path4();
  SyncEngine eng(g);
  eng.set_wakeup({0, 10, 100, 1000});
  eng.init_processes([](NodeId) { return std::make_unique<ProbeProcess>(); });
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  for (NodeId s = 0; s < 4; ++s) {
    const auto* p = dynamic_cast<const ProbeProcess*>(eng.process(s));
    ASSERT_EQ(p->ran_at.size(), 1u) << "node " << s;
  }
  EXPECT_EQ(dynamic_cast<const ProbeProcess*>(eng.process(0))->ran_at[0], 0u);
  EXPECT_EQ(dynamic_cast<const ProbeProcess*>(eng.process(1))->ran_at[0], 10u);
  EXPECT_EQ(dynamic_cast<const ProbeProcess*>(eng.process(2))->ran_at[0], 100u);
  EXPECT_EQ(dynamic_cast<const ProbeProcess*>(eng.process(3))->ran_at[0],
            1000u);
  // Four executed rounds; everything between is fast-forwarded.
  EXPECT_EQ(res.executed_rounds, 4u);
  EXPECT_EQ(res.rounds, 1001u);
}

TEST(Scheduler, FastForwardJumpsToHeapTopAcrossStaggeredSleeps) {
  // Four sleepers with exponentially staggered deadlines; each halts when
  // its deadline fires.  The engine must simulate exactly 5 rounds (round 0
  // plus the four deadline rounds) regardless of the logical span.
  class SleepHalt final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ran_at.size() == 1) {
        ctx.sleep_until(deadline);
      } else {
        ctx.halt();
      }
    }
    Round deadline = 0;
  };
  const Graph g = path4();
  EngineConfig cfg;
  cfg.max_rounds = Round{1} << 62;  // deadlines exceed the default budget
  SyncEngine eng(g, cfg);
  const Round deadlines[4] = {100, 10'000, 1'000'000, 1'000'000'000};
  eng.init_processes([&](NodeId s) {
    auto p = std::make_unique<SleepHalt>();
    p->deadline = deadlines[s];
    return p;
  });
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.executed_rounds, 5u);  // round 0 + four deadline rounds
  EXPECT_EQ(res.rounds, 1'000'000'001u);
  for (NodeId s = 0; s < 4; ++s) {
    const auto* p = dynamic_cast<const SleepHalt*>(eng.process(s));
    ASSERT_EQ(p->ran_at.size(), 2u);
    EXPECT_EQ(p->ran_at[1], deadlines[s]) << "node " << s;
  }
}

TEST(Scheduler, MessageWakesSleeperEarlyAndDeadlineStillFires) {
  // Node 1 sleeps until round 50; node 0 pings it in round 10.  Node 1 must
  // run at 11 (woken by the message), go back to sleep for the SAME deadline
  // (leaving a stale heap entry from before the early wake), and still run
  // exactly once more, at 50.
  class Sleeper final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ctx.round() < 50) {
        ctx.sleep_until(50);
      } else {
        ctx.halt();
      }
    }
  };
  class Pinger final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ctx.round() < 10) {
        ctx.sleep_until(10);
      } else if (ctx.round() == 10) {
        ctx.send(0, ping());
        ctx.halt();
      }
    }
  };
  const Graph g = Graph::from_edges(2, {{0, 1}});
  SyncEngine eng(g);
  eng.set_process(0, std::make_unique<Pinger>());
  eng.set_process(1, std::make_unique<Sleeper>());
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  const auto* s = dynamic_cast<const Sleeper*>(eng.process(1));
  ASSERT_EQ(s->ran_at.size(), 3u);
  EXPECT_EQ(s->ran_at[0], 0u);   // initial wake
  EXPECT_EQ(s->ran_at[1], 11u);  // woken by the ping, re-sleeps until 50
  EXPECT_EQ(s->ran_at[2], 50u);  // the deadline still fires exactly once
  EXPECT_EQ(res.rounds, 51u);
}

TEST(Scheduler, HaltWithMessagesStillInFlightQuiesces) {
  // Node 0 sends a burst over several rounds; node 1 halts immediately.
  // Every message must still be delivered (counted) and the run must reach
  // global quiescence instead of deadlocking on undeliverable mail.
  class Burst final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ctx.round() < 3) {
        ctx.send(0, ping());
      } else {
        ctx.halt();
      }
    }
  };
  class HaltNow final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override { ctx.halt(); }
  };
  const Graph g = Graph::from_edges(2, {{0, 1}});
  SyncEngine eng(g);
  eng.set_process(0, std::make_unique<Burst>());
  eng.set_process(1, std::make_unique<HaltNow>());
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 3u);
  const auto* h = dynamic_cast<const HaltNow*>(eng.process(1));
  EXPECT_EQ(h->ran_at.size(), 1u);  // halted nodes never run again
}

TEST(Scheduler, RunningNodesAreScheduledEveryRound) {
  class Spin final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ctx.round() >= 9) ctx.halt();  // stay Running for rounds 0..9
    }
  };
  const Graph g = Graph::from_edges(2, {{0, 1}});
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<Spin>(); });
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.executed_rounds, 10u);
  EXPECT_EQ(res.node_steps, 20u);  // both nodes, every round
  const auto* p = dynamic_cast<const Spin*>(eng.process(0));
  ASSERT_EQ(p->ran_at.size(), 10u);
  for (Round r = 0; r < 10; ++r) EXPECT_EQ(p->ran_at[r], r);
}

TEST(Scheduler, TwoChannelsShareOneInboxInSendOrder) {
  // Two messages on different channels sent to the same node in the same
  // round arrive in one inbox, in send order, each with its own payload.
  class Dual final : public ProbeProcess {
   public:
    void act(Context& ctx, std::span<const Envelope>) override {
      if (ctx.slot() == 0 && ctx.round() == 0) {
        FlatMsg f;
        f.type = 7;
        f.channel = 42;
        f.bits = 64;
        f.a = 1234;
        ctx.send(0, f);
        FlatMsg g = ping();
        g.channel = 43;
        ctx.send(0, g);
      }
      ctx.idle();
    }
    void on_round(Context& ctx, std::span<const Envelope> inbox) override {
      for (const auto& env : inbox) {
        if (env.flat.channel == 42) {
          saw_first = (env.flat.type == 7 && env.flat.a == 1234);
        } else {
          saw_second = (env.flat.channel == 43 && env.flat.type == 1);
        }
        order.push_back(env.flat.channel);
      }
      ctx.idle();
    }
    bool saw_first = false;
    bool saw_second = false;
    std::vector<std::uint8_t> order;
  };
  const Graph g = Graph::from_edges(2, {{0, 1}});
  EngineConfig cfg;
  cfg.congest = CongestMode::Count;  // two sends on one port: counted, not fatal
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Dual>(); });
  const RunResult res = eng.run();

  EXPECT_EQ(res.messages, 2u);
  EXPECT_EQ(res.bits, 128u);
  EXPECT_EQ(res.congest_violations, 1u);
  const auto* p = dynamic_cast<const Dual*>(eng.process(1));
  EXPECT_TRUE(p->saw_first);
  EXPECT_TRUE(p->saw_second);
  ASSERT_EQ(p->order.size(), 2u);
  EXPECT_EQ(p->order[0], 42);  // send order preserved
  EXPECT_EQ(p->order[1], 43);
}

}  // namespace
}  // namespace ule
