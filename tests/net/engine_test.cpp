#include "net/engine.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "net/wakeup.hpp"

namespace ule {
namespace {

FlatMsg tm(std::uint64_t payload, std::uint32_t bits = 64) {
  FlatMsg m;
  m.type = 1;
  m.bits = bits;
  m.a = payload;
  return m;
}

/// Sends one message on port 0 at wake, records everything it receives.
class PingProcess : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    wake_round = ctx.round();
    if (ctx.slot() == 0) ctx.send(0, tm(41));
    ctx.idle();
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    for (const auto& env : inbox) {
      received_round = ctx.round();
      received_port = env.port;
      received_value = env.flat.a;
    }
    ctx.idle();
  }
  Round wake_round = kRoundForever;
  Round received_round = kRoundForever;
  PortId received_port = kNoPort;
  std::uint64_t received_value = 0;
};

Graph path2() { return Graph::from_edges(2, {{0, 1}}); }

TEST(Engine, MessageDeliveredNextRoundOnCorrectPort) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<PingProcess>(); });
  const RunResult res = eng.run();

  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 1u);
  const auto* p1 = dynamic_cast<const PingProcess*>(eng.process(1));
  EXPECT_EQ(p1->received_round, 1u);  // sent in round 0, received in round 1
  EXPECT_EQ(p1->received_value, 41u);
  EXPECT_EQ(p1->received_port, 0u);
}

TEST(Engine, QuiescesAndReportsRounds) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<PingProcess>(); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  // Round 0: wake + send; round 1: delivery; quiescent after.
  EXPECT_EQ(res.rounds, 2u);
}

class StatusProcess : public Process {
 public:
  explicit StatusProcess(Status s) : s_(s) {}
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    ctx.set_status(s_);
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}

 private:
  Status s_;
};

TEST(Engine, StatusAccounting) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  SyncEngine eng(g);
  eng.init_processes([](NodeId slot) {
    return std::make_unique<StatusProcess>(slot == 1 ? Status::Elected
                                                     : Status::NonElected);
  });
  const RunResult res = eng.run();
  EXPECT_EQ(res.elected, 1u);
  EXPECT_EQ(res.non_elected, 2u);
  EXPECT_EQ(res.undecided, 0u);
  EXPECT_EQ(eng.status(1), Status::Elected);
}

class SleeperProcess : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    ctx.sleep_until(1'000'000);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    fired_at = ctx.round();
    ctx.halt();
  }
  Round fired_at = kRoundForever;
};

TEST(Engine, FastForwardSkipsQuietRounds) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<SleeperProcess>(); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  const auto* p = dynamic_cast<const SleeperProcess*>(eng.process(0));
  EXPECT_EQ(p->fired_at, 1'000'000u);
  EXPECT_EQ(res.rounds, 1'000'001u);  // logical rounds, simulated in O(1)
}

class LateWakeProbe : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    wake_round = ctx.round();
    woke_with_message = !inbox.empty();
    if (ctx.slot() == 0) ctx.send(0, tm(7));
    ctx.idle();
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    ctx.idle();
  }
  Round wake_round = kRoundForever;
  bool woke_with_message = false;
};

TEST(Engine, MessageWakesSleepingNode) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.set_wakeup(single_wakeup(2, 0));  // node 1 sleeps until contacted
  eng.init_processes([](NodeId) { return std::make_unique<LateWakeProbe>(); });
  eng.run();
  const auto* p1 = dynamic_cast<const LateWakeProbe*>(eng.process(1));
  EXPECT_EQ(p1->wake_round, 1u);
  EXPECT_TRUE(p1->woke_with_message);
}

TEST(Engine, ScheduledWakeupRespected) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.set_wakeup({0, 5});
  eng.init_processes([](NodeId) { return std::make_unique<LateWakeProbe>(); });
  eng.run();
  const auto* p1 = dynamic_cast<const LateWakeProbe*>(eng.process(1));
  // Node 0's wake message arrives at round 1, before the scheduled round 5.
  EXPECT_EQ(p1->wake_round, 1u);
}

class DoubleSender : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    if (ctx.slot() == 0) {
      ctx.send(0, tm(1));
      ctx.send(0, tm(2));  // CONGEST violation: same port, same round
    }
    ctx.idle();
  }
  void on_round(Context& ctx, std::span<const Envelope>) override { ctx.idle(); }
};

TEST(Engine, CongestEnforceThrowsOnDuplicatePort) {
  const Graph g = path2();
  EngineConfig cfg;
  cfg.congest = CongestMode::Enforce;
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<DoubleSender>(); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, CongestCountRecordsViolations) {
  const Graph g = path2();
  EngineConfig cfg;
  cfg.congest = CongestMode::Count;
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<DoubleSender>(); });
  const RunResult res = eng.run();
  EXPECT_EQ(res.congest_violations, 1u);
}

class BigSender : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    if (ctx.slot() == 0) ctx.send(0, tm(1, 100'000));  // way over budget
    ctx.idle();
  }
  void on_round(Context& ctx, std::span<const Envelope>) override { ctx.idle(); }
};

TEST(Engine, CongestEnforcesMessageSize) {
  const Graph g = path2();
  EngineConfig cfg;
  cfg.congest = CongestMode::Enforce;
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<BigSender>(); });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST(Engine, MaxRoundsStopsRun) {
  const Graph g = path2();
  class Forever : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      ctx.send(0, tm(1));
    }
    void on_round(Context& ctx, std::span<const Envelope>) override {
      ctx.send(0, tm(1));
    }
  };
  EngineConfig cfg;
  cfg.max_rounds = 50;
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId) { return std::make_unique<Forever>(); });
  const RunResult res = eng.run();
  EXPECT_FALSE(res.completed);
  EXPECT_EQ(res.rounds, 50u);
}

TEST(Engine, AnonymousUidThrows) {
  const Graph g = path2();
  class UidAsker : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      EXPECT_TRUE(ctx.anonymous());
      EXPECT_THROW(ctx.uid(), std::logic_error);
      ctx.halt();
    }
    void on_round(Context&, std::span<const Envelope>) override {}
  };
  SyncEngine eng(g);  // no uids set => anonymous
  eng.init_processes([](NodeId) { return std::make_unique<UidAsker>(); });
  eng.run();
}

TEST(Engine, UidsExposedWhenSet) {
  const Graph g = path2();
  class UidReader : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      uid = ctx.uid();
      ctx.halt();
    }
    void on_round(Context&, std::span<const Envelope>) override {}
    Uid uid = 0;
  };
  SyncEngine eng(g);
  eng.set_uids({42, 17});
  eng.init_processes([](NodeId) { return std::make_unique<UidReader>(); });
  eng.run();
  EXPECT_EQ(dynamic_cast<const UidReader*>(eng.process(0))->uid, 42u);
  EXPECT_EQ(dynamic_cast<const UidReader*>(eng.process(1))->uid, 17u);
  EXPECT_EQ(eng.uid_of(1), 17u);
}

TEST(Engine, RunTwiceThrows) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<PingProcess>(); });
  eng.run();
  EXPECT_THROW(eng.run(), std::logic_error);
}

TEST(Engine, SendOnBadPortThrows) {
  const Graph g = path2();
  class BadSender : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      ctx.send(5, tm(1));
    }
    void on_round(Context&, std::span<const Envelope>) override {}
  };
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<BadSender>(); });
  EXPECT_THROW(eng.run(), std::out_of_range);
}

TEST(Engine, HaltedNodeStillCountsIncomingMessages) {
  const Graph g = path2();
  class HaltThenReceive : public Process {
   public:
    void on_wake(Context& ctx, std::span<const Envelope>) override {
      if (ctx.slot() == 1) {
        ctx.halt();
      } else {
        ctx.send(0, tm(1));
        ctx.idle();
      }
    }
    void on_round(Context& ctx, std::span<const Envelope>) override {
      ctx.idle();
    }
  };
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<HaltThenReceive>(); });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);     // dropped delivery doesn't deadlock
  EXPECT_EQ(res.messages, 1u);    // the send is still counted
}

TEST(Engine, DeterministicAcrossRuns) {
  for (int rep = 0; rep < 2; ++rep) {
    const Graph g = path2();
    EngineConfig cfg;
    cfg.seed = 9;
    SyncEngine eng(g, cfg);
    eng.init_processes([](NodeId) { return std::make_unique<PingProcess>(); });
    const RunResult res = eng.run();
    EXPECT_EQ(res.rounds, 2u);
    EXPECT_EQ(res.messages, 1u);
  }
}

TEST(Engine, SentByNodeTracksSenders) {
  const Graph g = path2();
  SyncEngine eng(g);
  eng.init_processes([](NodeId) { return std::make_unique<PingProcess>(); });
  eng.run();
  EXPECT_EQ(eng.sent_by_node()[0], 1u);
  EXPECT_EQ(eng.sent_by_node()[1], 0u);
}

}  // namespace
}  // namespace ule
