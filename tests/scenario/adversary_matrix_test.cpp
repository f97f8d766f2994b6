// The safety-under-adversary conformance matrix: every registry protocol runs
// against a small adversary ladder — delay-only, drop, duplication, reorder,
// a single crash, and an everything-at-once mix — on a handful of small
// families and seeds, asserting that no run EVER elects two leaders or
// breaks leader-id agreement.  Liveness is asserted only where the runner
// promises it (loss-free classes for every protocol, plus bounded loss for
// the reliable transport); everywhere else a livelock is legal and only
// safety counts.
//
// This is the empirical pin behind every ProtocolInfo::safe_under mask: a
// declaration generous enough to let the fuzzer draw a double-electing
// adversary would first fail here.  The rungs use fixed seeds so the matrix
// is a regression test; the nightly fuzz hunts the open seed space.

#include <gtest/gtest.h>

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
};

/// The ladder: one rung per fault class, plus the all-at-once mix.  Knob
/// strengths are deliberately rough — ~10% loss and multi-round delays are
/// far outside anything the paper's model permits.
std::vector<Rung> ladder() {
  std::vector<Rung> rungs;
  {
    ScenarioAdversary a;
    a.max_delay = 2;
    a.seed = 0xDE1A;
    rungs.push_back({"delay", a});
  }
  {
    ScenarioAdversary a;
    a.drop_pm = 100;
    a.seed = 0xD20;
    rungs.push_back({"drop", a});
  }
  {
    ScenarioAdversary a;
    a.dup_pm = 150;
    a.seed = 0xD0B;
    rungs.push_back({"dup", a});
  }
  {
    ScenarioAdversary a;
    a.reorder_pm = 400;
    a.seed = 0x2E02;
    rungs.push_back({"reorder", a});
  }
  {
    ScenarioAdversary a;
    a.crashes = {{1, 2}};  // node 1 % n dies at the start of round 2
    rungs.push_back({"crash1", a});
  }
  {
    ScenarioAdversary a;
    a.max_delay = 2;
    a.drop_pm = 80;
    a.dup_pm = 80;
    a.reorder_pm = 250;
    a.crashes = {{2, 3}};
    a.seed = 0xA11;
    rungs.push_back({"mix", a});
  }
  return rungs;
}

TEST(AdversaryMatrix, SafetyHoldsUnderEveryDeclaredClass) {
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();
  const std::vector<Rung> rungs = ladder();
  const std::uint64_t seeds[] = {11, 1231, 990017};

  std::size_t ran = 0, livelocked = 0;
  for (const ProtocolInfo& proto : protos.all()) {
    // Two shapes per protocol: a sparse one (long paths for delays to bite)
    // and a dense one.  Complete-only protocols get only the clique.
    std::vector<std::pair<std::string, ScenarioParams>> shapes;
    if (!proto.needs_complete) {
      shapes.push_back({"ring", {{"n", 9}}});
      shapes.push_back({"gnm", {{"n", 12}, {"m", 24}}});
    }
    shapes.push_back({"complete", {{"n", 8}}});

    for (const Rung& rung : rungs) {
      const std::uint8_t classes = faults::classes(rung.adv);
      if (classes & ~proto.safe_under) continue;  // not declared safe: skip
      for (const auto& [family, params] : shapes) {
        for (const std::uint64_t seed : seeds) {
          Scenario s;
          s.family = family;
          s.params = params;
          s.protocol = proto.name;
          s.knowledge = proto.min_knowledge;
          s.wakeup = WakeupKind::Simultaneous;
          s.seed = seed;
          s.threads = 1;
          s.adversary = rung.adv;

          const ScenarioOutcome out = run_scenario(protos, fams, s);
          ++ran;
          if (!out.report.run.completed) ++livelocked;
          EXPECT_TRUE(out.ok())
              << proto.name << " under " << rung.name << " on "
              << s.encode() << ": " << out.violations[0];
          // The safety half of the contract, stated directly: never two
          // leaders, whatever else the adversary managed to wreck.
          EXPECT_LE(out.report.verdict.elected, 1u) << s.encode();
        }
      }
    }
  }
  // The matrix actually exercised the space (every protocol declares at
  // least one class, both shapes, three seeds).
  EXPECT_GT(ran, 100u);
}

TEST(AdversaryMatrix, UndeclaredClassIsAConfigError) {
  // A scenario whose adversary exercises a class outside safe_under must be
  // rejected up front — a config error, not a (missed) violation.
  const ProtocolRegistry& protos = default_protocols();
  for (const ProtocolInfo& proto : protos.all()) {
    if (proto.safe_under == faults::kAll) continue;
    ScenarioAdversary adv;
    if (!(proto.safe_under & faults::kDelay)) adv.max_delay = 1;
    else if (!(proto.safe_under & faults::kDrop)) adv.drop_pm = 50;
    else if (!(proto.safe_under & faults::kDuplicate)) adv.dup_pm = 50;
    else if (!(proto.safe_under & faults::kReorder)) adv.reorder_pm = 50;
    else adv.crashes = {{0, 1}};

    Scenario s;
    s.family = proto.needs_complete ? "complete" : "ring";
    s.params = proto.needs_complete ? ScenarioParams{{"n", 6}}
                                    : ScenarioParams{{"n", 6}};
    s.protocol = proto.name;
    s.knowledge = proto.min_knowledge;
    s.seed = 5;
    s.threads = 1;
    s.adversary = adv;
    EXPECT_THROW(run_scenario(protos, default_families(), s),
                 std::invalid_argument)
        << proto.name;
  }
}

TEST(AdversaryMatrix, CrashedNodesAreReportedNotBlamed) {
  // A crash victim can never decide; the runner must not flag the survivors'
  // clean election as incomplete because of it, and the result must carry
  // the crash count.
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 9}};
  s.protocol = "flood_max";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 77;
  s.threads = 1;
  s.adversary.crashes = {{3, 4}};

  const ScenarioOutcome out =
      run_scenario(default_protocols(), default_families(), s);
  EXPECT_TRUE(out.ok()) << out.violations[0];
  EXPECT_EQ(out.report.run.crashed, 1u);
  EXPECT_LE(out.report.verdict.elected, 1u);
}

}  // namespace
}  // namespace ule
