// Scenario-level contract of the *_reliable registry variants: every variant
// conforms under the full delivery fault mask (delay + drop + dup + reorder)
// with bit-for-bit identical counters at threads {1, 2, 4}, the r= replay
// token tail round-trips and is rejected off reliable transports, and the
// adversary boundary cases behave — a total partition (drop = 1.0) quiesces
// with a clean non-termination diagnosis, a crash at round 0 kills a node
// before its first step without confusing the survivors, and bounded delay
// composes with random wakeup schedules.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "net/engine.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace ule {
namespace {

/// The full delivery fault mask at rough strengths (no crashes: those are
/// exercised separately — a dead node is outside any liveness promise).
ScenarioAdversary full_mask() {
  ScenarioAdversary a;
  a.max_delay = 2;
  a.drop_pm = 150;
  a.dup_pm = 150;
  a.reorder_pm = 300;
  a.seed = 0xF0LL;
  return a;
}

TEST(ReliableScenario, EveryVariantConformsUnderFullMaskAcrossThreads) {
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();
  std::size_t variants = 0;
  for (const ProtocolInfo& proto : protos.all()) {
    if (!proto.reliable_transport) continue;
    ++variants;
    EXPECT_EQ(proto.safe_under, faults::kAll) << proto.name;

    Scenario s;
    s.family = proto.needs_complete ? "complete" : "ring";
    s.params = {{"n", proto.needs_complete ? 8 : 9}};
    s.protocol = proto.name;
    s.knowledge = proto.min_knowledge;
    s.seed = 4242;
    s.adversary = full_mask();

    RunResult base;
    for (const unsigned t : {1u, 2u, 4u}) {
      s.threads = t;
      const ScenarioOutcome out = run_scenario(protos, fams, s);
      EXPECT_TRUE(out.ok()) << proto.name << " t=" << t << " on "
                            << s.encode() << ": " << out.violations[0];
      EXPECT_LE(out.report.verdict.elected, 1u) << s.encode();
      const RunResult& r = out.report.run;
      if (t == 1) {
        base = r;
        continue;
      }
      // Bit-for-bit: retransmit deadlines, adversary coins and wrapper state
      // are all pure functions of (round, seq, config) — worker interleaving
      // must never show through.
      EXPECT_TRUE(testing::same_counters(base, r)) << proto.name << " t=" << t;
    }
  }
  // The registry actually carries the reliable fleet.
  EXPECT_GE(variants, 6u);
}

TEST(ReliableScenario, ReplayTokenTailRoundTrips) {
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 8}};
  s.protocol = "flood_max_reliable";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 7;
  s.threads = 1;
  s.adversary.drop_pm = 200;
  s.adversary.seed = 99;
  s.reliable.rto = 5;
  s.reliable.cap = 20;
  const std::string token = s.encode();
  EXPECT_NE(token.find(":r=5.20"), std::string::npos) << token;
  EXPECT_EQ(Scenario::parse(token), s);
}

TEST(ReliableScenario, ReliableTailIsRejectedOffReliableTransports) {
  // r= on a protocol without the wrapper is a config error, not a silent
  // no-op — a replay token must never mean less than it says.
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 8}};
  s.protocol = "flood_max";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 7;
  s.threads = 1;
  s.reliable.rto = 5;
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);
}

TEST(ReliableScenario, TotalPartitionQuiescesWithDiagnosis) {
  // drop = 1.0: nothing is ever delivered.  The wrapper's give-up bound must
  // bring the run to quiescence (completed, undecided survivors) and the
  // non-termination story must name the stall — no livelock, no silence.
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 6}};
  s.protocol = "flood_max_reliable";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 11;
  s.threads = 1;
  s.adversary.drop_pm = 1000;
  s.adversary.seed = 5;
  s.reliable.rto = 2;
  s.reliable.cap = 2;  // tight ladder: give-up in ~2*max_retries rounds

  const ScenarioOutcome out =
      run_scenario(default_protocols(), default_families(), s);
  // Liveness is out of scope at drop = 1.0 (the runner only promises it up
  // to the calibrated 600‰); safety and clean quiescence still hold.
  EXPECT_TRUE(out.ok()) << out.violations[0];
  EXPECT_TRUE(out.report.run.completed);
  EXPECT_EQ(out.report.verdict.elected, 0u);
  EXPECT_EQ(out.report.verdict.undecided, 6u);
  const std::string diag = describe_nontermination(out.report.run);
  EXPECT_NE(diag.find("quiesced undecided"), std::string::npos) << diag;
  EXPECT_NE(diag.find("last progress"), std::string::npos) << diag;
}

TEST(ReliableScenario, CrashAtRoundZeroPreWakeup) {
  // A node crashed at the start of round 0 never takes a step — not even its
  // wakeup.  Survivors keep retransmitting into the corpse until give-up and
  // must then quiesce cleanly: safety intact, the crash reported, and the
  // stall narrated (a dead node is outside every liveness promise — its
  // neighbors' echo accounting can legally never close).
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 7}};
  s.protocol = "flood_max_reliable";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 13;
  s.threads = 1;
  s.adversary.crashes = {{2, 0}};
  s.reliable.rto = 2;
  s.reliable.cap = 2;

  const ScenarioOutcome out =
      run_scenario(default_protocols(), default_families(), s);
  EXPECT_TRUE(out.ok()) << out.violations[0];
  EXPECT_EQ(out.report.run.crashed, 1u);
  EXPECT_TRUE(out.report.run.completed);
  EXPECT_LE(out.report.verdict.elected, 1u);
  // If nobody decided, the run must say so — never a silent stall.
  if (out.report.verdict.elected == 0) {
    const std::string diag = describe_nontermination(out.report.run);
    EXPECT_NE(diag.find("undecided"), std::string::npos) << diag;
  }
}

TEST(ReliableScenario, BoundedDelayComposesWithRandomWakeup) {
  // Two independent sources of asynchrony at once: nodes wake over a spread
  // of rounds AND every delivery may stall up to max_delay.  A reliable
  // variant must conform with liveness enforced (delay-only mask).
  for (const std::uint64_t seed : {3ull, 77ull, 901ull}) {
    Scenario s;
    s.family = "ring";
    s.params = {{"n", 9}};
    s.protocol = "flood_max_reliable";
    s.knowledge = KnowledgeGrant::None;
    s.wakeup = WakeupKind::Random;
    s.wakeup_spread = 6;
    s.seed = seed;
    s.threads = 1;
    s.adversary.max_delay = 3;
    s.adversary.seed = seed + 1;

    const ScenarioOutcome out =
        run_scenario(default_protocols(), default_families(), s);
    EXPECT_TRUE(out.ok()) << "seed " << seed << ": " << out.violations[0];
    EXPECT_TRUE(out.report.verdict.unique_leader) << "seed " << seed;
  }
}

}  // namespace
}  // namespace ule
