// Engine-level semantics of the reliable link layer (net/reliable.hpp): the
// header is billed on the wire and invisible to the inner protocol, the
// wrapper gives the inner protocol exactly-once per-port FIFO delivery under
// drop + duplication + reorder, retransmit/dedup/park work is observable
// through the wrapper's split counters (duplicate_drops vs parked_frames — a parked
// frame is buffered reordering pressure, not a loss), give-up restores
// quiescence under total loss with the death visible in dead_links /
// dead_link_drops and the nontermination diagnosis, the wrapper steps its
// inner exactly when the engine would have, and the whole machine is
// deterministic (no RNG, no thread-dependent state).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/engine.hpp"
#include "net/recorder.hpp"
#include "net/reliable.hpp"

namespace ule {
namespace {

/// Sends `to_send` flat messages on port 0 (one per step, payload = send
/// index), then idles; records every arrival payload in order.
class Courier final : public Process {
 public:
  explicit Courier(int to_send) : left_(to_send) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }

  std::vector<std::uint64_t> got;
  std::vector<std::uint32_t> got_bits;

 private:
  void step(Context& ctx, std::span<const Envelope> inbox) {
    for (const Envelope& e : inbox) {
      got.push_back(e.flat.a);
      got_bits.push_back(e.flat.bits);
    }
    if (left_ > 0) {
      FlatMsg m;
      m.type = 7;
      m.bits = 64;
      m.a = static_cast<std::uint64_t>(sent_++);
      ctx.send(0, m);
      --left_;
    } else {
      ctx.idle();
    }
  }
  int left_;
  int sent_ = 0;
};

Graph path2() { return Graph::from_edges(2, {{0, 1}}); }

/// Graph + engine, in that member order: SyncEngine holds the graph by
/// reference, so the graph must outlive it.
struct CourierRun {
  Graph g = path2();
  std::unique_ptr<SyncEngine> eng;
};

/// path2 with node 0 sending `k` frames through the wrapper and node 1 just
/// listening, narrated (net/recorder.hpp) so a test can read the frames on
/// the wire.  Returns the run after the engine quiesced.
CourierRun run_courier(const EngineConfig& cfg, int k, ReliableConfig rcfg) {
  CourierRun run;
  run.eng = std::make_unique<SyncEngine>(run.g, cfg);
  run.eng->init_processes(
      recording([k, rcfg](NodeId slot) -> std::unique_ptr<Process> {
        return std::make_unique<ReliableProcess>(
            std::make_unique<Courier>(slot == 0 ? k : 0), rcfg);
      }));
  run.eng->run();
  return run;
}

const Courier* inner_courier(const SyncEngine& eng, NodeId slot) {
  return unwrap<Courier>(eng.process(slot));
}

TEST(Reliable, FramesBillTheHeaderAndTheInnerSeesItsOwnBits) {
  // One 64-bit payload over a fault-free edge: the data frame bills 64 + 72,
  // the receiver's standalone ack bills 72 on the reserved ack channel, and
  // the receiving inner process sees the 64 bits its peer sent.
  static_assert(kReliableHeaderBits == 72);
  EngineConfig cfg;
  cfg.seed = 9;
  const CourierRun run = run_courier(cfg, 1, ReliableConfig{});
  const RunResult& res = run.eng->result();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 2u);
  EXPECT_EQ(res.bits, (64u + 72u) + 72u);
  std::vector<std::string> sends;
  for_each_event(*run.eng, [&sends](const TraceEvent& ev) {
    if (ev.kind == TraceEvent::Kind::Send)
      sends.push_back(flat_debug_string(ev.msg));
    return true;
  });
  ASSERT_EQ(sends.size(), 2u);
  EXPECT_EQ(sends[1], flat_debug_string(FlatMsg{kReliableAckType,
                                                kReliableAckChannel}));
  const Courier* rx = inner_courier(*run.eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->got, (std::vector<std::uint64_t>{0}));
  EXPECT_EQ(rx->got_bits, (std::vector<std::uint32_t>{64}));
}

TEST(Reliable, FaultFreeDeliveryIsExactlyOnceFifoWithHeaderBilling) {
  EngineConfig cfg;
  cfg.seed = 9;
  ReliableConfig rcfg;
  rcfg.rto = 4;
  const CourierRun run = run_courier(cfg, 5, rcfg);
  const RunResult& res = run.eng->result();
  EXPECT_TRUE(res.completed);
  const Courier* rx = inner_courier(*run.eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  // Every data frame pays the ARQ header on top of the 64-bit payload; the
  // total also covers whatever standalone acks the idle tail needed.
  EXPECT_GE(res.bits, 5 * (64u + kReliableHeaderBits));
  const auto* tx = unwrap<ReliableProcess>(run.eng->process(0));
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->retransmissions(), 0u);  // nothing lost, nothing re-sent
}

TEST(Reliable, ExactlyOnceFifoUnderDropDupReorder) {
  // The core guarantee: whatever the adversary does in flight — eat frames,
  // double them, shuffle inboxes — the inner protocol sees each payload
  // exactly once, in send order.
  EngineConfig cfg;
  cfg.seed = 21;
  cfg.adversary.seed = 0xBAD;
  cfg.adversary.drop = 0.4;
  cfg.adversary.duplicate = 0.4;
  cfg.adversary.reorder = 0.9;
  ReliableConfig rcfg;
  rcfg.rto = 3;
  rcfg.backoff_cap = 12;
  const CourierRun run = run_courier(cfg, 8, rcfg);
  const RunResult& res = run.eng->result();
  EXPECT_TRUE(res.completed);
  const Courier* rx = inner_courier(*run.eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->got,
            (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  // The adversary really bit: recovery work is visible in the counters.
  // Duplicates eaten and frames parked for reordering are separate stories
  // (a park is NOT a drop — it is delivered later), so they are counted
  // separately; under this mixed fault mask both kinds of work happen.
  const auto* tx = unwrap<ReliableProcess>(run.eng->process(0));
  const auto* rxw = unwrap<ReliableProcess>(run.eng->process(1));
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rxw, nullptr);
  EXPECT_GT(tx->retransmissions(), 0u);
  EXPECT_GT(rxw->duplicate_drops(), 0u);
  EXPECT_GT(rxw->parked_frames(), 0u);
  // Nothing died: parks and dups are recoverable faults.
  EXPECT_EQ(tx->dead_links(), 0u);
  EXPECT_EQ(rxw->dead_links(), 0u);
}

TEST(Reliable, DuplicationAloneCountsDuplicatesNotParks) {
  // In-order duplication: every original arrives at the expected seq, every
  // extra copy arrives behind it with seq < expected.  All recovery work is
  // duplicate eating; nothing is ever out of order, so nothing parks.
  EngineConfig cfg;
  cfg.seed = 11;
  cfg.adversary.seed = 0xD0D0;
  cfg.adversary.duplicate = 0.9;
  ReliableConfig rcfg;
  rcfg.rto = 4;
  const CourierRun run = run_courier(cfg, 8, rcfg);
  EXPECT_TRUE(run.eng->result().completed);
  const Courier* rx = inner_courier(*run.eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4, 5, 6, 7}));
  const auto* rxw = unwrap<ReliableProcess>(run.eng->process(1));
  ASSERT_NE(rxw, nullptr);
  EXPECT_GT(rxw->duplicate_drops(), 0u);
  EXPECT_EQ(rxw->parked_frames(), 0u);
}

TEST(Reliable, RunsAreDeterministicAcrossIdenticalReruns) {
  // Zero RNG in the wrapper: same (graph, seeds, config) → same counters,
  // retransmission for retransmission.
  EngineConfig cfg;
  cfg.seed = 33;
  cfg.adversary.seed = 0xF00D;
  cfg.adversary.drop = 0.3;
  cfg.adversary.duplicate = 0.3;
  cfg.adversary.reorder = 0.5;
  ReliableConfig rcfg;
  rcfg.rto = 3;
  const CourierRun a = run_courier(cfg, 6, rcfg);
  const CourierRun b = run_courier(cfg, 6, rcfg);
  EXPECT_EQ(a.eng->result().rounds, b.eng->result().rounds);
  EXPECT_EQ(a.eng->result().messages, b.eng->result().messages);
  EXPECT_EQ(a.eng->result().bits, b.eng->result().bits);
  EXPECT_EQ(a.eng->result().node_steps, b.eng->result().node_steps);
  const auto* ta = unwrap<ReliableProcess>(a.eng->process(0));
  const auto* tb = unwrap<ReliableProcess>(b.eng->process(0));
  EXPECT_EQ(ta->retransmissions(), tb->retransmissions());
}

TEST(Reliable, GiveUpRestoresQuiescenceUnderTotalLoss) {
  // drop = 1.0 is a partition: no ARQ can push a bit through.  The wrapper
  // must retransmit through its bounded backoff ladder, declare the link
  // dead, and let the run quiesce — not spin to max_rounds.
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.adversary.seed = 0xDEAD;
  cfg.adversary.drop = 1.0;
  ReliableConfig rcfg;
  rcfg.rto = 2;
  rcfg.backoff_cap = 4;
  rcfg.max_retries = 5;  // small ladder keeps the test fast
  const CourierRun run = run_courier(cfg, 3, rcfg);
  const RunResult& res = run.eng->result();
  EXPECT_TRUE(res.completed);  // quiesced, not cut off
  const Courier* rx = inner_courier(*run.eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_TRUE(rx->got.empty());
  const auto* tx = unwrap<ReliableProcess>(run.eng->process(0));
  ASSERT_NE(tx, nullptr);
  // Exactly the ladder, go-back-all: each of the max_retries timeouts
  // resends the whole 3-frame queue, then silence.
  EXPECT_EQ(tx->retransmissions(), 15u);
  // The run outlived the full backoff ladder (2 + 4 + 4 + 4 + 4 rounds).
  EXPECT_GE(res.rounds, 18u);
  // The give-up is visible: one dead link at the sender, and the engine's
  // failure sweep surfaced it on the RunResult and in the diagnosis (the
  // couriers never decide, so the run lands in the undecided path).
  EXPECT_EQ(tx->dead_links(), 1u);
  EXPECT_EQ(tx->dead_link_drops(), 0u);  // sender went quiet before death
  EXPECT_EQ(res.dead_links, 1u);
  EXPECT_EQ(res.dead_link_nodes, (std::vector<NodeId>{0}));
  const std::string diag = describe_nontermination(res);
  EXPECT_NE(diag.find("dead ARQ link"), std::string::npos) << diag;
}

/// Sends one frame on port 0 when it wakes, then sleeps until round 20 (or
/// halts); every later step records its round and idles.
class WakeThenWait final : public Process {
 public:
  explicit WakeThenWait(bool halt) : halt_(halt) {}

  void on_wake(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 7;
    m.bits = 64;
    ctx.send(0, m);
    if (halt_) {
      ctx.halt();
    } else {
      ctx.sleep_until(20);
    }
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    stepped_at.push_back(ctx.round());
    ctx.idle();
  }

  std::vector<Round> stepped_at;

 private:
  bool halt_;
};

/// path2 with the wrapped probe at node 0 and a wrapped Courier sending
/// `peer_sends` frames at node 1; returns the rounds the probe was stepped.
std::vector<Round> probe_steps(bool halt, int peer_sends) {
  Graph g = path2();
  SyncEngine eng(g, EngineConfig{});
  eng.init_processes([&](NodeId slot) -> std::unique_ptr<Process> {
    if (slot == 0)
      return std::make_unique<ReliableProcess>(
          std::make_unique<WakeThenWait>(halt), ReliableConfig{});
    return std::make_unique<ReliableProcess>(
        std::make_unique<Courier>(peer_sends), ReliableConfig{});
  });
  EXPECT_TRUE(eng.run().completed);
  const auto* probe = unwrap<WakeThenWait>(eng.process(0));
  EXPECT_NE(probe, nullptr);
  return probe != nullptr ? probe->stepped_at : std::vector<Round>{};
}

TEST(Reliable, WrapperStepsTheInnerOnlyWhenTheEngineWould) {
  // The peer's pure ack arrives at round 2 and wakes the wrapper, but the
  // inner asked to sleep until round 20 and has no message of its own: the
  // engine would not have stepped it, so the wrapper must not either.
  EXPECT_EQ(probe_steps(/*halt=*/false, 0), (std::vector<Round>{20}));
  // A halted inner is never stepped again, even when data arrives for it.
  EXPECT_EQ(probe_steps(/*halt=*/true, 1), (std::vector<Round>{}));
}

/// Sends one frame on port 0 at its first step, sleeps past the give-up
/// ladder, then sends two more into the (by then dead) link and idles.
class LateSender final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    on_round(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 7;
    m.bits = 64;
    if (!sent_first_) {
      sent_first_ = true;
      m.a = 0;
      ctx.send(0, m);
      ctx.sleep_until(40);  // the ladder below is fully exhausted by ~22
      return;
    }
    m.a = 1;
    ctx.send(0, m);
    m.a = 2;
    ctx.send(0, m);
    ctx.idle();
  }

 private:
  bool sent_first_ = false;
};

TEST(Reliable, SendsAfterLinkDeathHealTheLink) {
  // A sender that comes back after the link died: the first post-death
  // enqueue HEALS the edge — the stream re-arms from seq 1 under a fresh
  // epoch instead of silently swallowing the payload.  Under this total
  // partition the healed stream exhausts its retries and dies a second
  // time, so the same run shows the whole life cycle: die, heal, die again
  // — with nothing ever dropped on the floor (dead_link_drops stays 0) and
  // the healing visible on the wrapper, on RunResult, and in the
  // nontermination diagnosis.  (A sender pushing fresh frames every round
  // keeps re-arming the RTO, so the first death only fires once it pauses —
  // hence the sleep.)
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.adversary.seed = 0xDEAD;
  cfg.adversary.drop = 1.0;
  ReliableConfig rcfg;
  rcfg.rto = 2;
  rcfg.backoff_cap = 4;
  rcfg.max_retries = 5;
  Graph g = path2();
  SyncEngine eng(g, cfg);
  eng.init_processes([rcfg](NodeId slot) -> std::unique_ptr<Process> {
    if (slot == 0)
      return std::make_unique<ReliableProcess>(std::make_unique<LateSender>(),
                                               rcfg);
    return std::make_unique<ReliableProcess>(std::make_unique<Courier>(0),
                                             rcfg);
  });
  const RunResult& res = eng.run();
  EXPECT_TRUE(res.completed);
  const auto* tx = unwrap<ReliableProcess>(eng.process(0));
  ASSERT_NE(tx, nullptr);
  EXPECT_EQ(tx->dead_links(), 2u);       // died, healed, died again
  EXPECT_EQ(tx->healed_links(), 1u);
  EXPECT_EQ(tx->dead_link_drops(), 0u);  // healing swallows nothing
  EXPECT_EQ(res.dead_links, 2u);
  EXPECT_EQ(res.healed_links, 1u);
  EXPECT_EQ(res.dead_link_drops, 0u);
  const std::string diag = describe_nontermination(res);
  EXPECT_NE(diag.find("later healed"), std::string::npos) << diag;
}

TEST(Reliable, BackoffCapBoundsTheRetransmitInterval) {
  // Same partition, uncapped-ish vs tightly capped: the capped ladder must
  // finish its retries strictly sooner (interval = min(rto << k, cap)).
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.adversary.seed = 0xDEAD;
  cfg.adversary.drop = 1.0;
  ReliableConfig wide;
  wide.rto = 2;
  wide.backoff_cap = 64;
  wide.max_retries = 6;
  ReliableConfig tight = wide;
  tight.backoff_cap = 2;
  const CourierRun slow = run_courier(cfg, 1, wide);
  const CourierRun fast = run_courier(cfg, 1, tight);
  EXPECT_TRUE(slow.eng->result().completed);
  EXPECT_TRUE(fast.eng->result().completed);
  EXPECT_LT(fast.eng->result().rounds, slow.eng->result().rounds);
}

/// Sends one payload per step for rounds [0, 9), pauses (letting the
/// retransmit ladder exhaust and the link die), then resumes with four more
/// payloads — the resume heals the link mid-burst.
class PauseSender final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    step(ctx, inbox);
  }

 private:
  void step(Context& ctx, std::span<const Envelope>) {
    if (ctx.round() < 9) {
      FlatMsg m;
      m.type = 7;
      m.bits = 64;
      m.a = static_cast<std::uint64_t>(n_++);
      ctx.send(0, m);
    } else if (ctx.round() < 16) {
      ctx.sleep_until(16);  // the pause that lets the give-up fire
    } else if (left_ > 0) {
      --left_;
      FlatMsg m;
      m.type = 7;
      m.bits = 64;
      m.a = static_cast<std::uint64_t>(n_++);
      ctx.send(0, m);
    } else {
      ctx.idle();
    }
  }
  int n_ = 0;
  int left_ = 4;
};

TEST(Reliable, HealingMidBurstDropsStaleEpochFramesWithoutResequencing) {
  // The heal-mid-retransmit-burst race: the link gives up during the pause
  // (clearing the first epoch's queue), the resume heals it onto a fresh
  // epoch, and DELAYED retransmit copies from the dead epoch are still in
  // flight.  The adversary seed is pinned (found by scanning) so that at
  // least one stale copy arrives AFTER the receiver adopted the new epoch:
  // it must be discarded and counted — never parked or delivered — or a
  // dead life's seq numbers would corrupt the successor stream's cursor.
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.adversary.seed = 229;
  cfg.adversary.drop = 0.9;
  cfg.adversary.max_delay = 6;
  cfg.adversary.duplicate = 0.3;
  ReliableConfig rcfg;
  rcfg.rto = 2;
  rcfg.backoff_cap = 2;
  rcfg.max_retries = 2;
  Graph g = path2();
  SyncEngine eng(g, cfg);
  eng.init_processes([rcfg](NodeId slot) -> std::unique_ptr<Process> {
    if (slot == 0)
      return std::make_unique<ReliableProcess>(std::make_unique<PauseSender>(),
                                               rcfg);
    return std::make_unique<ReliableProcess>(std::make_unique<Courier>(0),
                                             rcfg);
  });
  const RunResult& res = eng.run();
  EXPECT_TRUE(res.completed);

  const auto* tx = unwrap<ReliableProcess>(eng.process(0));
  const auto* rxw = unwrap<ReliableProcess>(eng.process(1));
  ASSERT_NE(tx, nullptr);
  ASSERT_NE(rxw, nullptr);
  // First epoch dies in the pause, heals at the resume; the tail of the
  // resume burst dies again once the sender falls silent for good.
  EXPECT_EQ(tx->dead_links(), 2u);
  EXPECT_EQ(tx->healed_links(), 1u);
  EXPECT_EQ(tx->dead_link_drops(), 0u);
  // The stale copies from the dead epoch reached the receiver after it had
  // adopted the healed epoch: discarded and counted, not resequenced.
  EXPECT_EQ(rxw->stale_epoch_drops(), 2u);

  // Not resequenced, concretely: the inner receiver saw ONLY the healed
  // epoch's prefix, in FIFO order, with no dead-epoch payload spliced in
  // (payloads 0..8 belong to the first life whose queue died with it).
  const Courier* rx = inner_courier(eng, 1);
  ASSERT_NE(rx, nullptr);
  EXPECT_EQ(rx->got, (std::vector<std::uint64_t>{9, 10}));
}

}  // namespace
}  // namespace ule
