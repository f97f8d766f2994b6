// Unit tests for the parallel-merge seams (previously covered only
// end-to-end by the parallel-determinism matrix): counter-block summation
// and fold order with hand-crafted SendLanes, first-exception-in-lane-order
// selection, the preservation of send order through the lane concatenation
// at the receiving side, byte-identical inboxes out of the parallel CSR
// bucket pass at every thread count, and round storage that a thread reuses
// across runs without carrying anything from one run into the next.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "graphgen/generators.hpp"
#include "net/engine.hpp"
#include "net/outbox.hpp"

namespace ule {
namespace {

// --- hand-crafted lanes: fold_lane_counters / merge_lane_counters ---------

TEST(LaneMerge, CounterBlocksSumInLaneOrder) {
  std::vector<SendLane> lanes(3);
  lanes[0].messages = 5;
  lanes[0].bits = 320;
  lanes[1].messages = 7;
  lanes[1].bits = 448;
  lanes[1].congest_violations = 2;
  lanes[2].messages = 1;
  lanes[2].bits = 64;

  RunResult result;
  const std::exception_ptr err = merge_lane_counters(lanes, result, 17);
  EXPECT_EQ(err, nullptr);
  EXPECT_EQ(result.messages, 13u);
  EXPECT_EQ(result.bits, 832u);
  EXPECT_EQ(result.congest_violations, 2u);
  EXPECT_EQ(result.last_status_change, 0u);  // nobody changed status
  for (const SendLane& lane : lanes) {
    EXPECT_EQ(lane.messages, 0u);  // blocks are zeroed by the fold
    EXPECT_EQ(lane.bits, 0u);
    EXPECT_EQ(lane.congest_violations, 0u);
  }
}

TEST(LaneMerge, StatusChangeStampsTheFoldRound) {
  SendLane lane;
  lane.status_changed = true;  // a status change with zero sends must fold
  RunResult result;
  EXPECT_EQ(fold_lane_counters(lane, result, 42), nullptr);
  EXPECT_EQ(result.last_status_change, 42u);
  EXPECT_FALSE(lane.status_changed);

  // A later quiet lane must NOT overwrite the stamp.
  SendLane quiet;
  EXPECT_EQ(fold_lane_counters(quiet, result, 99), nullptr);
  EXPECT_EQ(result.last_status_change, 42u);
}

TEST(LaneMerge, FoldAccumulatesAcrossRounds) {
  SendLane lane;
  RunResult result;
  lane.messages = 3;
  lane.bits = 192;
  ASSERT_EQ(fold_lane_counters(lane, result, 1), nullptr);
  lane.messages = 4;
  lane.bits = 256;
  lane.status_changed = true;
  ASSERT_EQ(fold_lane_counters(lane, result, 2), nullptr);
  EXPECT_EQ(result.messages, 7u);
  EXPECT_EQ(result.bits, 448u);
  EXPECT_EQ(result.last_status_change, 2u);
}

TEST(LaneMerge, FirstErrorInLaneOrderWinsAndAllLanesStillFold) {
  std::vector<SendLane> lanes(4);
  lanes[0].messages = 1;
  lanes[0].bits = 64;
  lanes[1].messages = 2;
  lanes[1].bits = 128;
  lanes[1].error = std::make_exception_ptr(std::runtime_error("lane 1"));
  lanes[2].messages = 4;
  lanes[2].bits = 256;
  lanes[3].error = std::make_exception_ptr(std::runtime_error("lane 3"));

  RunResult result;
  const std::exception_ptr err = merge_lane_counters(lanes, result, 5);
  ASSERT_NE(err, nullptr);
  try {
    std::rethrow_exception(err);
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 1");  // first in lane order, not lane 3
  }
  // Counters reflect every lane, including the ones at and past the error.
  EXPECT_EQ(result.messages, 7u);
  EXPECT_EQ(result.bits, 448u);
  // Errors are consumed by the fold.
  for (const SendLane& lane : lanes) EXPECT_EQ(lane.error, nullptr);
}

// --- engine-level seams ----------------------------------------------------

/// Every spoke sends its slot number to the hub in one dense round; the hub
/// records (arrival port, payload) in inbox order.  Because shards are
/// contiguous ascending slot ranges and lanes are concatenated in lane
/// order, the hub's inbox must be in sender-slot order at EVERY thread
/// count — this is the envelope half of the ordered merge.
class HubProcess final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    on_round(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    for (const auto& env : inbox)
      arrivals_.emplace_back(env.port, env.flat.a);
    ctx.idle();
  }
  const std::vector<std::pair<PortId, std::uint64_t>>& arrivals() const {
    return arrivals_;
  }

 private:
  std::vector<std::pair<PortId, std::uint64_t>> arrivals_;
};

class SpokeProcess final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 1;
    m.channel = 77;
    m.bits = 64;
    m.a = ctx.slot();
    ctx.send(0, m);  // a spoke's only port leads to the hub
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}
};

std::vector<std::pair<PortId, std::uint64_t>> run_star(unsigned threads) {
  const Graph g = make_star(33);  // hub 0, spokes 1..32 (hub port p -> p+1)
  EngineConfig cfg;
  cfg.seed = 3;
  cfg.threads = threads;
  cfg.parallel_cutoff = 1;  // force even these rounds through the pool
  SyncEngine eng(g, cfg);
  eng.init_processes([](NodeId s) -> std::unique_ptr<Process> {
    if (s == 0) return std::make_unique<HubProcess>();
    return std::make_unique<SpokeProcess>();
  });
  const RunResult res = eng.run();
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages, 32u);
  return dynamic_cast<const HubProcess*>(eng.process(0))->arrivals();
}

TEST(LaneMerge, LaneConcatenationPreservesSlotSendOrder) {
  const auto base = run_star(1);
  ASSERT_EQ(base.size(), 32u);
  for (std::size_t i = 0; i < base.size(); ++i) {
    EXPECT_EQ(base[i].first, i);       // hub port i <-> spoke i+1
    EXPECT_EQ(base[i].second, i + 1);  // sender slots ascending
  }
  for (const unsigned t : {2u, 3u, 8u}) {
    EXPECT_EQ(run_star(t), base) << "threads " << t;
  }
}

/// Two nodes throw in the same dense round; the error surfaced must be the
/// lowest-slot one at every thread count (first-in-lane-order = first in
/// slot order), and counters must cover the sends that preceded the throw.
class ThrowAtProcess final : public Process {
 public:
  explicit ThrowAtProcess(bool thrower) : thrower_(thrower) {}
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    if (thrower_)
      throw std::runtime_error("boom at slot " + std::to_string(ctx.slot()));
    FlatMsg m;
    m.type = 1;
    m.channel = 77;
    m.bits = 64;
    ctx.send(0, m);
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}

 private:
  bool thrower_;
};

TEST(LaneMerge, LowestSlotExceptionSurfacesAtEveryThreadCount) {
  const Graph g = make_cycle(24);
  for (const unsigned t : {1u, 4u}) {
    EngineConfig cfg;
    cfg.seed = 1;
    cfg.threads = t;
    cfg.parallel_cutoff = 1;
    SyncEngine eng(g, cfg);
    eng.init_processes([](NodeId s) {
      return std::make_unique<ThrowAtProcess>(s == 7 || s == 19);
    });
    try {
      eng.run();
      FAIL() << "expected a throw at threads " << t;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at slot 7") << "threads " << t;
    }
  }
}

/// Floods every port for kFloodRounds rounds (payload and link header both
/// name the sender, round and port), then idles; every envelope it receives,
/// in inbox order, is folded into an FNV-1a digest of the receive round, the
/// arrival port and every FlatMsg and LinkHeader field.
class InboxDigestProcess final : public Process {
 public:
  static constexpr Round kFloodRounds = 4;

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    on_round(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    for (const Envelope& env : inbox) {
      mix(ctx.round());
      mix(env.port);
      mix(env.flat.type);
      mix(env.flat.channel);
      mix(env.flat.flags);
      mix(env.flat.bits);
      mix(env.flat.a);
      mix(env.flat.b);
      mix(env.flat.c);
      mix(env.link.seq);
      mix(env.link.epoch);
      mix(env.link.ack);
      mix(env.link.ack_epoch);
    }
    if (ctx.round() >= kFloodRounds) {
      ctx.idle();  // later (delayed) arrivals still wake it
      return;
    }
    for (PortId p = 0; p < ctx.degree(); ++p) {
      FlatMsg m;
      m.type = 3;
      m.channel = 41;
      m.flags = static_cast<std::uint8_t>(p);
      m.bits = 64;
      m.a = ctx.slot();
      m.b = ctx.round();
      m.c = p;
      const auto r = static_cast<std::uint32_t>(ctx.round());
      ctx.send(p, m, LinkHeader{ctx.slot(), r, p, ~r});
    }
  }
  std::uint64_t digest() const { return digest_; }

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i, v >>= 8) {
      digest_ ^= v & 0xff;
      digest_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

/// Everything a run of InboxDigestProcess leaves behind.
struct DigestRun {
  RunResult result;
  std::vector<Status> statuses;
  std::vector<std::uint64_t> sent_by_node;
  std::vector<std::uint64_t> digests;
};

DigestRun digest_run(const Graph& g, const EngineConfig& cfg) {
  SyncEngine eng(g, cfg);
  eng.init_processes(
      [](NodeId) { return std::make_unique<InboxDigestProcess>(); });
  DigestRun out;
  out.result = eng.run();
  out.sent_by_node = eng.sent_by_node();
  for (NodeId s = 0; s < g.n(); ++s) {
    out.statuses.push_back(eng.status(s));
    out.digests.push_back(
        dynamic_cast<const InboxDigestProcess*>(eng.process(s))->digest());
  }
  return out;
}

/// Delays put the due ring slot and the lanes into one bucket pass.
void add_delays_and_duplicates(EngineConfig& cfg) {
  cfg.adversary.seed = 0xD1CE;
  cfg.adversary.max_delay = 2;
  cfg.adversary.duplicate = 0.1;
}

std::vector<std::uint64_t> inbox_digests(unsigned threads, bool adversarial) {
  const Graph g = make_complete(64);
  EngineConfig cfg;
  cfg.seed = 11;
  cfg.threads = threads;
  cfg.parallel_cutoff = 1;  // every flood round takes the parallel bucket pass
  if (adversarial) add_delays_and_duplicates(cfg);
  const DigestRun run = digest_run(g, cfg);
  const RunResult& res = run.result;
  EXPECT_TRUE(res.completed);
  EXPECT_EQ(res.messages,
            64u * 63u * static_cast<std::uint64_t>(
                            InboxDigestProcess::kFloodRounds));
  if (adversarial) {
    EXPECT_GT(res.adv_delays, 0u);
    EXPECT_GT(res.adv_dups, 0u);
  }
  return run.digests;
}

TEST(LaneMerge, InboxesAreIdenticalAtEveryThreadCount) {
  for (const bool adversarial : {false, true}) {
    const auto base = inbox_digests(1, adversarial);
    for (const unsigned t : {2u, 3u, 8u}) {
      EXPECT_EQ(inbox_digests(t, adversarial), base)
          << "threads " << t << (adversarial ? " (delay + dup)" : " (clean)");
    }
  }
}

/// Floods every port in rounds 0 and 1; the culprit also sends a second
/// message on port 0 in round 1, which CongestMode::Enforce throws on in the
/// middle of a dense round.
class DoubleSendProcess final : public Process {
 public:
  explicit DoubleSendProcess(bool culprit) : culprit_(culprit) {}
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    on_round(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() > 1) {
      ctx.idle();
      return;
    }
    FlatMsg m;
    m.type = 5;
    m.channel = 41;
    m.bits = 64;
    m.a = ctx.slot();
    for (PortId p = 0; p < ctx.degree(); ++p) ctx.send(p, m);
    if (culprit_ && ctx.round() == 1) ctx.send(0, m);
  }

 private:
  bool culprit_;
};

// The engine's lanes and delivery buffer outlive it in a per-thread cache.
// After runs that leave every kind of storage behind — parked and duplicated
// envelopes across four lanes, a run abandoned mid-round by a throw, thread
// counts that take and hand back different numbers of lanes — a small run on
// the same thread must equal the same run on a fresh thread, whose cache is
// empty.
TEST(LaneMerge, ReusedRoundStorageNeverLeaksBetweenRuns) {
  const Graph small = make_complete(12);
  EngineConfig ref;
  ref.seed = 5;
  ref.threads = 3;
  ref.parallel_cutoff = 1;
  add_delays_and_duplicates(ref);
  ref.adversary.reorder = 0.3;

  DigestRun fresh;
  std::thread([&] { fresh = digest_run(small, ref); }).join();
  ASSERT_TRUE(fresh.result.completed);
  ASSERT_GT(fresh.result.adv_delays, 0u);

  // One thread runs the whole sequence, so every run reuses what the one
  // before it handed back.
  std::thread([&] {
    const auto first = inbox_digests(4, /*adversarial=*/true);
    {
      const Graph k64 = make_complete(64);
      EngineConfig enforce;
      enforce.seed = 3;
      enforce.threads = 4;
      enforce.parallel_cutoff = 1;
      enforce.congest = CongestMode::Enforce;
      add_delays_and_duplicates(enforce);
      SyncEngine eng(k64, enforce);
      eng.init_processes([](NodeId s) {
        return std::make_unique<DoubleSendProcess>(s == 40);
      });
      EXPECT_THROW(eng.run(), std::runtime_error);
    }
    EXPECT_EQ(inbox_digests(4, /*adversarial=*/true), first);
    EXPECT_EQ(inbox_digests(1, /*adversarial=*/true), first);
    EXPECT_EQ(inbox_digests(2, /*adversarial=*/true), first);

    const DigestRun reused = digest_run(small, ref);
    EXPECT_TRUE(diff_counters(fresh.result, reused.result).empty());
    EXPECT_EQ(reused.statuses, fresh.statuses);
    EXPECT_EQ(reused.sent_by_node, fresh.sent_by_node);
    EXPECT_EQ(reused.digests, fresh.digests);
  }).join();
}

}  // namespace
}  // namespace ule
