// The churn conformance matrix: crash-RECOVERY schedules (bounded rebirth
// intervals, net/adversary.hpp churn) run against every crash-safe registry
// protocol on small families and fixed seeds.
//
// Two walls, matching the declarations:
//   - SAFETY for every protocol whose safe_under mask includes kCrash: no
//     churn cell ever elects two leaders, whatever else the rebirth wrecked.
//   - LIVENESS for every protocol behind the reliable transport (the
//     *_reliable fleet): inside the bounded-churn window (crash at round 0,
//     bounded recover) the run must still elect a unique leader — the ARQ
//     epoch-healing replay is what carries the winning wave to the reborn
//     node, and these cells pin that end to end, including the runner's
//     envelope stretch and its threads>1 determinism cross-check (which
//     compares recoveries and adv_crash_drops too).
//
// Post-step rebirth is NOT here: a node reborn after stepping receives
// responses to a life its fresh state never lived, which strict-accounting
// protocols rightly treat as a protocol violation — the runner rejects such
// schedules as config errors (pinned below), and the engine-level boundary
// tests in tests/net/adversary_test.cpp cover the raw semantics.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace ule {
namespace {

struct Rung {
  const char* name;
  ScenarioAdversary adv;
  /// Multi-node churn can disconnect the LIVE subgraph (two dead windows
  /// cut a ring into two segments), and disconnected components
  /// legitimately elect independent leaders on a plain transport — no
  /// protocol can agree across a cut that delivers nothing.  Only the
  /// reliable fleet is expected to survive it: the ARQ replay bridges a
  /// dead window, so to the inner protocol the graph never disconnected.
  bool reliable_only = false;
};

/// The churn ladder.  Every rebirth interval crashes at round 0 (the
/// runner's validity window); the rungs vary the recover round, the number
/// of churning nodes, and whether delivery faults ride along.
std::vector<Rung> ladder() {
  std::vector<Rung> rungs;
  {
    ScenarioAdversary a;
    a.crashes = {{3, 0, 5}};  // node 3 % n dead for rounds [0, 5)
    rungs.push_back({"churn", a});
  }
  {
    ScenarioAdversary a;
    a.crashes = {{1, 0, 3}, {5, 0, 7}};  // two nodes, staggered rebirths
    rungs.push_back({"churn2", a, /*reliable_only=*/true});
  }
  {
    ScenarioAdversary a;  // churn under the full delivery mix
    a.max_delay = 2;
    a.drop_pm = 80;
    a.dup_pm = 80;
    a.reorder_pm = 250;
    a.crashes = {{2, 0, 4}};
    a.seed = 0xC0A1;
    rungs.push_back({"churnmix", a});
  }
  {
    ScenarioAdversary a;  // empty interval: recover == crash is a no-op
    a.crashes = {{4, 2, 2}};
    rungs.push_back({"churn_noop", a});
  }
  return rungs;
}

std::vector<std::pair<std::string, ScenarioParams>> shapes_for(
    const ProtocolInfo& proto) {
  std::vector<std::pair<std::string, ScenarioParams>> shapes;
  if (!proto.needs_complete) {
    shapes.push_back({"ring", {{"n", 9}}});
    shapes.push_back({"gnm", {{"n", 12}, {"m", 24}}});
  }
  shapes.push_back({"complete", {{"n", 8}}});
  return shapes;
}

TEST(ChurnMatrix, SafetyHoldsForEveryCrashSafeProtocol) {
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();
  const std::vector<Rung> rungs = ladder();
  const std::uint64_t seeds[] = {11, 1231, 990017};

  std::size_t ran = 0, recovered_runs = 0;
  for (const ProtocolInfo& proto : protos.all()) {
    for (const Rung& rung : rungs) {
      const std::uint8_t classes = faults::classes(rung.adv);
      if (classes & ~proto.safe_under) continue;  // not declared safe: skip
      if (rung.reliable_only && !proto.reliable_transport) continue;
      for (const auto& [family, params] : shapes_for(proto)) {
        for (const std::uint64_t seed : seeds) {
          Scenario s;
          s.family = family;
          s.params = params;
          s.protocol = proto.name;
          s.knowledge = proto.min_knowledge;
          s.wakeup = WakeupKind::Simultaneous;
          s.seed = seed;
          // One seed runs the runner's parallel determinism cross-check,
          // which diffs recoveries and adv_crash_drops across thread counts.
          s.threads = seed == 1231 ? 2 : 1;
          s.adversary = rung.adv;

          const ScenarioOutcome out = run_scenario(protos, fams, s);
          ++ran;
          if (out.report.run.recoveries > 0) ++recovered_runs;
          EXPECT_TRUE(out.ok()) << proto.name << " under " << rung.name
                                << " on " << s.encode() << ": "
                                << out.violations[0];
          EXPECT_LE(out.report.verdict.elected, 1u) << s.encode();
          // The engine folded the churn into the run surface: every
          // non-empty interval crashes exactly once and recovers exactly
          // once (churn_noop's empty interval folds to zero of each).
          std::size_t rebirths = 0;
          for (const ScenarioCrash& c : rung.adv.crashes)
            if (c.recover != kRoundForever && c.recover != c.at) ++rebirths;
          EXPECT_EQ(out.report.run.crashed, rebirths) << s.encode();
          EXPECT_EQ(out.report.run.recoveries, rebirths) << s.encode();
        }
      }
    }
  }
  EXPECT_GT(ran, 100u);
  EXPECT_GT(recovered_runs, 50u);
}

TEST(ChurnMatrix, ReliableFleetStaysLiveUnderBoundedChurn) {
  // The liveness wall: every reliable-transport protocol must ELECT — not
  // just stay safe — through every bounded-churn rung.  out.ok() already
  // enforces the runner's liveness contract (completion inside the churn-
  // stretched envelope); the explicit unique-leader check keeps this test
  // honest even if the enforcement gate regresses.
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();
  const std::vector<Rung> rungs = ladder();
  const std::uint64_t seeds[] = {11, 1231, 990017};

  std::size_t ran = 0;
  for (const ProtocolInfo& proto : protos.all()) {
    if (!proto.reliable_transport) continue;
    for (const Rung& rung : rungs) {
      const std::uint8_t classes = faults::classes(rung.adv);
      if (classes & ~proto.safe_under) continue;
      for (const auto& [family, params] : shapes_for(proto)) {
        for (const std::uint64_t seed : seeds) {
          Scenario s;
          s.family = family;
          s.params = params;
          s.protocol = proto.name;
          s.knowledge = proto.min_knowledge;
          s.wakeup = WakeupKind::Simultaneous;
          s.seed = seed;
          s.threads = seed == 990017 ? 2 : 1;
          s.adversary = rung.adv;

          const ScenarioOutcome out = run_scenario(protos, fams, s);
          ++ran;
          EXPECT_TRUE(out.ok()) << proto.name << " under " << rung.name
                                << " on " << s.encode() << ": "
                                << out.violations[0];
          EXPECT_TRUE(out.report.verdict.unique_leader)
              << proto.name << " under " << rung.name << " on " << s.encode()
              << ": elected=" << out.report.verdict.elected
              << " undecided=" << out.report.verdict.undecided;
          EXPECT_TRUE(out.report.run.completed) << s.encode();
        }
      }
    }
  }
  // Six reliable variants x 4 rungs x shapes x 3 seeds, minus the
  // complete-only restriction: the wall actually has bricks in it.
  EXPECT_GT(ran, 100u);
}

TEST(ChurnMatrix, PostStepRebirthIsAConfigError) {
  // Rebirth after the node's first step hands the fresh process responses
  // to a life it never lived; the runner must reject the schedule up front
  // for EVERY crash-safe protocol — a config error, not a late abort or a
  // phantom conformance finding.  Same for a recover round past the
  // bounded-churn window.
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();
  for (const ProtocolInfo& proto : protos.all()) {
    if (!(proto.safe_under & faults::kCrash)) continue;
    Scenario s;
    s.family = proto.needs_complete ? "complete" : "ring";
    s.params = {{"n", 8}};
    s.protocol = proto.name;
    s.knowledge = proto.min_knowledge;
    s.seed = 5;
    s.threads = 1;
    s.adversary.crashes = {{3, 1, 4}};  // post-step: crash at round 1
    EXPECT_THROW(run_scenario(protos, fams, s), std::invalid_argument)
        << proto.name;
    s.adversary.crashes = {{3, 0, 40}};  // recover beyond the window
    EXPECT_THROW(run_scenario(protos, fams, s), std::invalid_argument)
        << proto.name;
  }
}

}  // namespace
}  // namespace ule
