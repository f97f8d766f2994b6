// The conformance fuzzer: a clean registry fuzzes violation-free and
// deterministically; deliberately broken protocols are caught and shrunk to
// minimal replay strings that still reproduce the failure.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "scenario/fuzzer.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

namespace ule {
namespace {

TEST(Fuzzer, CleanRegistryFuzzesViolationFree) {
  FuzzConfig cfg;
  cfg.master_seed = 0xCAFE;
  cfg.count = 120;
  cfg.max_n = 32;
  const FuzzReport rep =
      run_fuzz(default_protocols(), default_families(), cfg);
  EXPECT_EQ(rep.scenarios_run, cfg.count);
  EXPECT_TRUE(rep.ok()) << rep.failures.size() << " failures, first: "
                        << (rep.failures.empty()
                                ? ""
                                : rep.failures[0].minimal.encode());
  // The space is not degenerate: most runs elect, some exercise threads.
  EXPECT_GT(rep.runs_elected, cfg.count / 2);
  EXPECT_GT(rep.determinism_checked, 0u);
}

TEST(Fuzzer, NewDiameterFamilyFuzzesViolationFree) {
  // A focused smoke on the D-ladder family: every scenario the fuzzer draws
  // is a cliquepath instance, swept across wakeup schedules, knowledge
  // grants and thread counts by the usual distribution.
  ProtocolRegistry protos;
  for (const char* name : {"flood_max", "kingdom", "dfs", "least_el_all"})
    protos.add(default_protocols().at(name));
  FamilyRegistry fams;
  fams.add(default_families().at("cliquepath"));

  FuzzConfig cfg;
  cfg.master_seed = 0xD1A11;
  cfg.count = 80;
  cfg.max_n = 40;
  const FuzzReport rep = run_fuzz(protos, fams, cfg);
  EXPECT_EQ(rep.scenarios_run, cfg.count);
  EXPECT_TRUE(rep.ok()) << rep.failures.size() << " failures, first: "
                        << (rep.failures.empty()
                                ? ""
                                : rep.failures[0].minimal.encode());
  EXPECT_GT(rep.runs_elected, cfg.count / 2);
}

TEST(Fuzzer, DrawSequenceIsDeterministic) {
  const auto draw_some = [] {
    Rng rng(0xD5EED);
    std::vector<std::string> tokens;
    for (int i = 0; i < 50; ++i)
      tokens.push_back(draw_scenario(rng, default_protocols(),
                                     default_families(), 48, 0.25, 0.5)
                           .encode());
    return tokens;
  };
  EXPECT_EQ(draw_some(), draw_some());
}

// --- deliberately broken protocols (test fixtures) -------------------------

/// Violates safety everywhere: the two lowest slots both elect themselves.
class TwoLeaders final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    ctx.set_status(ctx.slot() < 2 ? Status::Elected : Status::NonElected);
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}
};

/// Violates safety only on graphs with n >= 10 (shrinking must stop at the
/// boundary, not at the family minimum).
class TwoLeadersAbove9 final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    const bool big = ctx.knowledge().require_n() >= 10;
    ctx.set_status(ctx.slot() < (big ? 2u : 1u) ? Status::Elected
                                                : Status::NonElected);
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}
};

/// Violates liveness: node 0 sleeps far past any registered envelope before
/// electing itself.
class SlowPoke final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    if (ctx.slot() != 0) {
      ctx.set_status(Status::NonElected);
      ctx.halt();
      return;
    }
    ctx.sleep_until(1'000'000);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    ctx.set_status(Status::Elected);
    ctx.halt();
  }
};

/// Safe only under in-order delivery, but does not know it: each node
/// broadcasts its slot and elects iff the FIRST inbox envelope carries a
/// higher slot.  With lane-order delivery (inbox sorted by sender slot) node
/// 0 is the unique leader on paths and rings; one inbox shuffle at a middle
/// node mints a second.  Registered as reorder-safe to prove the fuzzer's
/// adversarial draws catch the false declaration.
class OrderSensitive final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 1;
    m.channel = 200;
    m.bits = wire::kIdField;
    m.a = ctx.slot();
    ctx.broadcast(m);
  }
  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    if (inbox.empty()) {
      ctx.idle();
      return;
    }
    ctx.set_status(inbox[0].flat.a > ctx.slot() ? Status::Elected
                                                : Status::NonElected);
    ctx.halt();
  }
};

ProtocolRegistry registry_with(const char* name,
                               std::function<std::unique_ptr<Process>()> make,
                               std::uint8_t safe_under = faults::kAll,
                               bool wakeup_tolerant = true) {
  ProtocolRegistry reg;  // ONLY the broken protocol: every draw hits it
  reg.add(ProtocolInfo{
      name, Contract::Deterministic, KnowledgeGrant::N,
      wakeup_tolerant, /*needs_complete=*/false,
      /*explicit_overlay=*/false,
      safe_under,
      [make = std::move(make)](const ScenarioShape&, RunOptions&) {
        return [make](NodeId) { return make(); };
      },
      [](const ScenarioShape& s) { return Round{64} + 2 * s.n; },
      [](const ScenarioShape& s) { return std::uint64_t{64} + 16 * s.m; }});
  return reg;
}

TEST(Fuzzer, CatchesAndShrinksASafetyBug) {
  const ProtocolRegistry broken = registry_with(
      "broken_duo", [] { return std::make_unique<TwoLeaders>(); });

  FuzzConfig cfg;
  cfg.master_seed = 7;
  cfg.count = 5;
  cfg.max_n = 40;
  cfg.adversary_fraction = 0;  // base machinery: a crash could mask a leader
  const FuzzReport rep = run_fuzz(broken, default_families(), cfg);
  ASSERT_EQ(rep.failures.size(), 5u);  // every scenario fails

  for (const FuzzFailure& f : rep.failures) {
    EXPECT_FALSE(f.original_violations.empty());
    EXPECT_FALSE(f.minimal_violations.empty());
    EXPECT_EQ(f.minimal_violations[0].rfind("safety", 0), 0u)
        << f.minimal_violations[0];

    // The minimal scenario is fully simplified: simplest family at the
    // smallest size that still has two slots to elect, simultaneous wakeup,
    // one thread — and its token still reproduces the failure.
    EXPECT_TRUE(f.minimal.family == "path" || f.minimal.family == "ring")
        << f.minimal.encode();
    EXPECT_LE(f.minimal.param("n"), 3u) << f.minimal.encode();
    EXPECT_EQ(f.minimal.wakeup, WakeupKind::Simultaneous);
    EXPECT_EQ(f.minimal.threads, 1u);
    const Scenario replay = Scenario::parse(f.minimal.encode());
    EXPECT_EQ(replay, f.minimal);
    EXPECT_FALSE(
        run_scenario(broken, default_families(), replay).ok());
  }
}

TEST(Fuzzer, ShrinkStopsAtTheFailureBoundary) {
  const ProtocolRegistry broken = registry_with(
      "broken_above_9", [] { return std::make_unique<TwoLeadersAbove9>(); });

  // Hand a known-failing scenario straight to the shrinker.
  Scenario s;
  s.family = "gnm";
  s.params = {{"n", 36}, {"m", 90}};
  s.protocol = "broken_above_9";
  s.knowledge = KnowledgeGrant::NMD;
  s.wakeup = WakeupKind::Random;
  s.wakeup_spread = 12;
  s.seed = 4242;
  s.threads = 3;
  ASSERT_FALSE(run_scenario(broken, default_families(), s).ok());

  std::size_t steps = 0;
  const Scenario minimal =
      shrink_scenario(broken, default_families(), s, &steps);
  EXPECT_GT(steps, 0u);
  EXPECT_FALSE(run_scenario(broken, default_families(), minimal).ok());
  // n = 10 is the smallest failing size; 9 passes, so the shrinker must
  // stop exactly there (decrement candidates make the minimum tight).
  EXPECT_EQ(minimal.param("n"), 10u) << minimal.encode();
  EXPECT_EQ(minimal.wakeup, WakeupKind::Simultaneous);
  EXPECT_EQ(minimal.threads, 1u);
  EXPECT_EQ(minimal.knowledge, KnowledgeGrant::N);  // the registered minimum

  // Every further single-step simplification passes (local minimality).
  Scenario smaller = minimal;
  smaller.params = {{"n", 9}};
  EXPECT_TRUE(run_scenario(broken, default_families(), smaller).ok());
}

TEST(Fuzzer, CatchesAndShrinksAnAdversarialBug) {
  // Every draw carries a reorder adversary (adversary_fraction = 1 and the
  // fixture declares only kReorder safe).  The failures it catches must
  // shrink to tokens that KEEP the a= segment — dropping the adversary makes
  // the run pass, so the shrinker has to retain the knob that bites — and
  // those tokens must round-trip and reproduce.
  const ProtocolRegistry broken = registry_with(
      "order_sensitive", [] { return std::make_unique<OrderSensitive>(); },
      faults::kReorder, /*wakeup_tolerant=*/false);
  FamilyRegistry fams;
  fams.add(default_families().at("ring"));
  fams.add(default_families().at("path"));

  FuzzConfig cfg;
  cfg.master_seed = 0xAD5EED;
  cfg.count = 60;
  cfg.max_n = 24;
  cfg.adversary_fraction = 1.0;
  const FuzzReport rep = run_fuzz(broken, fams, cfg);
  EXPECT_EQ(rep.adversarial_runs, rep.scenarios_run);
  ASSERT_FALSE(rep.failures.empty());  // the shuffle fires often at 60 draws

  for (const FuzzFailure& f : rep.failures) {
    ASSERT_FALSE(f.minimal_violations.empty());
    EXPECT_EQ(f.minimal_violations[0].rfind("safety", 0), 0u)
        << f.minimal_violations[0];
    EXPECT_GT(f.minimal.adversary.reorder_pm, 0u) << f.minimal.encode();
    EXPECT_NE(f.minimal.encode().find(":a="), std::string::npos)
        << f.minimal.encode();
    const Scenario replay = Scenario::parse(f.minimal.encode());
    EXPECT_EQ(replay, f.minimal);
    EXPECT_FALSE(run_scenario(broken, fams, replay).ok());
  }
}

TEST(Fuzzer, CatchesALivenessBug) {
  const ProtocolRegistry broken =
      registry_with("slow_poke", [] { return std::make_unique<SlowPoke>(); });

  FuzzConfig cfg;
  cfg.master_seed = 11;
  cfg.count = 3;
  cfg.max_n = 24;
  cfg.adversary_fraction = 0;  // a drop/crash draw would waive liveness
  const FuzzReport rep = run_fuzz(broken, default_families(), cfg);
  ASSERT_EQ(rep.failures.size(), 3u);
  for (const FuzzFailure& f : rep.failures) {
    ASSERT_FALSE(f.minimal_violations.empty());
    bool liveness = false;
    for (const std::string& v : f.minimal_violations)
      liveness = liveness || v.rfind("liveness", 0) == 0;
    EXPECT_TRUE(liveness) << f.minimal.encode();
  }
}

/// Elects slot 0 and sends twice on port 0 in its wake round: correct in
/// every respect but CONGEST's one message per edge per round.
class DoubleSender final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    FlatMsg m;
    m.type = 1;
    m.channel = 200;
    m.bits = wire::kIdField;
    ctx.send(0, m);
    ctx.send(0, m);
    ctx.set_status(ctx.slot() == 0 ? Status::Elected : Status::NonElected);
    ctx.halt();
  }
  void on_round(Context&, std::span<const Envelope>) override {}
};

/// Elects slot 0, then sends on every port each round until the whole
/// network has sent twice the registered 64 + 16m message envelope — one
/// message per port per round, inside the round envelope.  Needs m.
class Padder final : public Process {
 public:
  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    ctx.set_status(ctx.slot() == 0 ? Status::Elected : Status::NonElected);
    const std::uint64_t m = ctx.knowledge().m.value();
    rounds_ = (2 * (64 + 16 * m) + 2 * m - 1) / (2 * m);  // 2m sends a round
    on_round(ctx, inbox);
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (rounds_-- == 0) return ctx.halt();
    FlatMsg m;
    m.type = 1;
    m.channel = 200;
    m.bits = wire::kIdField;
    ctx.broadcast(m);
  }

 private:
  std::uint64_t rounds_ = 0;
};

/// The violations of one fault-free run of `proto` on ring(16), n, m and D
/// known.
std::vector<std::string> ring_violations(
    const char* proto, std::function<std::unique_ptr<Process>()> make) {
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 16}};
  s.protocol = proto;
  s.knowledge = KnowledgeGrant::NMD;
  return run_scenario(registry_with(proto, std::move(make)),
                      default_families(), s)
      .violations;
}

TEST(Fuzzer, CatchesACongestBug) {
  const std::vector<std::string> v = ring_violations(
      "double_sender", [] { return std::make_unique<DoubleSender>(); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "congest: 16 violations");
}

TEST(Fuzzer, CatchesAMessageBudgetOverrun) {
  // 64 + 16m = 320 messages registered; the padder sends 2 x 320 = 640.
  const std::vector<std::string> v =
      ring_violations("padder", [] { return std::make_unique<Padder>(); });
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], "budget: 640 messages > envelope 320");
}

TEST(Fuzzer, TimeBudgetStopsTheLoop) {
  FuzzConfig cfg;
  cfg.master_seed = 13;
  cfg.count = 1'000'000;       // would take far too long...
  cfg.max_n = 24;
  cfg.time_budget_sec = 0.05;  // ...but the budget cuts it off
  const FuzzReport rep =
      run_fuzz(default_protocols(), default_families(), cfg);
  EXPECT_TRUE(rep.time_budget_hit);
  EXPECT_LT(rep.scenarios_run, cfg.count);
  EXPECT_GT(rep.scenarios_run, 0u);
}

TEST(Fuzzer, TimeBudgetNeverStopsBeforeTheFirstDraw) {
  FuzzConfig cfg;
  cfg.master_seed = 13;
  cfg.count = 3;
  cfg.max_n = 24;
  cfg.time_budget_sec = 1e-9;  // spent before any draw could finish
  const FuzzReport rep =
      run_fuzz(default_protocols(), default_families(), cfg);
  EXPECT_EQ(rep.scenarios_run, 1u);
  EXPECT_TRUE(rep.time_budget_hit);
}

}  // namespace
}  // namespace ule
