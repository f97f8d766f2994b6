// The scenario spec and registries: string round-trip, parse diagnostics,
// registry completeness, and replayability (same token -> same graph, same
// run).

#include <gtest/gtest.h>

#include <set>

#include "helpers.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace ule {
namespace {

TEST(ScenarioCodec, EncodeProducesTheDocumentedShape) {
  Scenario s;
  s.family = "gnm";
  s.params = {{"n", 40}, {"m", 100}};
  s.protocol = "least_el_all";
  s.knowledge = KnowledgeGrant::N;
  s.wakeup = WakeupKind::Random;
  s.wakeup_spread = 20;
  s.seed = 7919;
  s.threads = 2;
  EXPECT_EQ(s.encode(), "ule1:gnm{n=40,m=100}:least_el_all:k=n:w=rand.20:s=7919:t=2");
}

TEST(ScenarioCodec, ParseInvertsEncodeOnHandPickedScenarios) {
  Scenario sim;
  sim.family = "ring";
  sim.params = {{"n", 24}};
  sim.protocol = "flood_max";
  EXPECT_EQ(Scenario::parse(sim.encode()), sim);

  Scenario one;
  one.family = "complete";
  one.params = {{"n", 12}};
  one.protocol = "kingdom";
  one.knowledge = KnowledgeGrant::NMD;
  one.wakeup = WakeupKind::Single;
  one.wakeup_node = 7;
  one.seed = ~std::uint64_t{0} >> 1;
  one.threads = 8;
  EXPECT_EQ(Scenario::parse(one.encode()), one);
}

TEST(ScenarioCodec, CliquepathTokensRoundTripAndReplay) {
  // The D-ladder family goes through the same replay-token grammar as
  // everything else; its two params are registry-ordered (cliques, size).
  Scenario s;
  s.family = "cliquepath";
  s.params = {{"cliques", 9}, {"size", 3}};
  s.protocol = "flood_max";
  s.seed = 77;
  EXPECT_EQ(s.encode(), "ule1:cliquepath{cliques=9,size=3}:flood_max:k=none:w=sim:s=77:t=1");
  EXPECT_EQ(Scenario::parse(s.encode()), s);

  // And the built instance honors the family's exactness guarantee inside a
  // full conformance run: D = cliques - 1.
  const auto out = run_scenario(default_protocols(), default_families(), s);
  EXPECT_TRUE(out.ok()) << (out.violations.empty() ? "" : out.violations[0]);
  EXPECT_EQ(out.shape.n, 27u);
  EXPECT_EQ(out.shape.diameter, 8u);
}

TEST(ScenarioCodec, ParseInvertsEncodeOnTheFuzzDistribution) {
  // The acceptance property: parse(encode(s)) == s for every drawable s —
  // and the distribution actually reaches every registered family (so a
  // newly added family, e.g. cliquepath, is covered the moment it lands).
  Rng rng(0xABCDEF);
  std::set<std::string> drawn;
  std::size_t adversarial = 0;
  for (int i = 0; i < 500; ++i) {
    const Scenario s = draw_scenario(rng, default_protocols(),
                                     default_families(), 64, 0.3, 0.4);
    drawn.insert(s.family);
    if (s.adversary.active()) ++adversarial;
    const std::string token = s.encode();
    EXPECT_EQ(Scenario::parse(token), s) << token;
  }
  for (const FamilyInfo& fam : default_families().all())
    EXPECT_TRUE(drawn.count(fam.name)) << fam.name << " never drawn";
  EXPECT_GT(adversarial, 100u);  // the a=/f= segments are really exercised
}

TEST(ScenarioCodec, ParseRejectsMalformedTokens) {
  const char* bad[] = {
      "",
      "ule1",
      "ule2:ring{n=8}:flood_max:k=none:w=sim:s=1:t=1",   // wrong version
      "ule1:ring{n=8}:flood_max:k=none:w=sim:s=1",       // missing field
      "ule1:ring(n=8):flood_max:k=none:w=sim:s=1:t=1",   // wrong braces
      "ule1:ring{n=}:flood_max:k=none:w=sim:s=1:t=1",    // empty value
      "ule1:ring{n=8}:flood_max:k=maybe:w=sim:s=1:t=1",  // bad knowledge
      "ule1:ring{n=8}:flood_max:k=none:w=soon:s=1:t=1",  // bad wakeup
      "ule1:ring{n=8}:flood_max:k=none:w=rand.:s=1:t=1", // missing spread
      "ule1:ring{n=8}:flood_max:k=none:w=sim:s=x:t=1",   // non-numeric seed
      "ule1:ring{n=8}:flood_max:k=none:w=sim:s=1:t=0",   // zero threads
      "ule1:ring{n=8}:flood-max:k=none:w=sim:s=1:t=1",   // bad name char
  };
  for (const char* token : bad)
    EXPECT_THROW(Scenario::parse(token), std::invalid_argument) << token;
}

TEST(ScenarioCodec, AdversaryTokensRoundTrip) {
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 9}};
  s.protocol = "flood_max";
  s.adversary.reorder_pm = 400;
  s.adversary.seed = 99;
  EXPECT_EQ(s.encode(),
            "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1:a=0.0.0.400.99");
  EXPECT_EQ(Scenario::parse(s.encode()), s);

  // All knobs plus a crash schedule: a= strictly before f=.
  s.adversary.max_delay = 2;
  s.adversary.drop_pm = 100;
  s.adversary.dup_pm = 50;
  s.adversary.crashes = {{3, 4}, {5, 1}};
  EXPECT_EQ(s.encode(),
            "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1"
            ":a=2.100.50.400.99:f=3@4,5@1");
  EXPECT_EQ(Scenario::parse(s.encode()), s);

  // Crash-only adversary: f= stands alone, no a= segment (and the inert
  // adversary seed is not encoded).
  Scenario c;
  c.family = "ring";
  c.params = {{"n", 9}};
  c.protocol = "flood_max";
  c.adversary.crashes = {{1, 2}};
  EXPECT_EQ(c.encode(), "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1:f=1@2");
  EXPECT_EQ(Scenario::parse(c.encode()), c);
}

TEST(ScenarioCodec, ChurnTokensRoundTrip) {
  // A churn interval encodes as NODE@CRASH-RECOVER; a crash-stop entry
  // (recover == forever) keeps the bare NODE@CRASH shape, so old tokens
  // parse unchanged and mixed schedules encode both shapes side by side.
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 9}};
  s.protocol = "flood_max";
  s.adversary.crashes = {{3, 0, 5}, {5, 2}};
  EXPECT_EQ(s.encode(),
            "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1:f=3@0-5,5@2");
  EXPECT_EQ(Scenario::parse(s.encode()), s);

  // recover == crash (the empty interval, a documented no-op) still carries
  // its tail through the round trip: the token preserves the schedule as
  // written, and the engine folds it away.
  s.adversary.crashes = {{4, 2, 2}};
  EXPECT_EQ(s.encode(),
            "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1:f=4@2-2");
  EXPECT_EQ(Scenario::parse(s.encode()), s);

  // Parsed fields land where they should, not just equality.
  const Scenario p = Scenario::parse(
      "ule1:ring{n=9}:flood_max:k=none:w=sim:s=7:t=1:f=1@0-3,2@4");
  ASSERT_EQ(p.adversary.crashes.size(), 2u);
  EXPECT_EQ(p.adversary.crashes[0].node, 1u);
  EXPECT_EQ(p.adversary.crashes[0].at, 0u);
  EXPECT_EQ(p.adversary.crashes[0].recover, 3u);
  EXPECT_EQ(p.adversary.crashes[1].node, 2u);
  EXPECT_EQ(p.adversary.crashes[1].at, 4u);
  EXPECT_EQ(p.adversary.crashes[1].recover, kRoundForever);
}

TEST(ScenarioCodec, ParseRejectsMalformedAdversaryTokens) {
  const std::string base = "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1";
  const char* bad[] = {
      ":a=0.0.0.0.5",            // every knob zero: the segment says nothing
      ":a=1.0.0",                // wrong arity
      ":a=1.0.0.0",              // still missing the adversary seed
      ":a=1.1001.0.0.5",         // probability above 1000 permille
      ":a=1.0.0.0.x",            // non-numeric seed
      ":a=1.0.0.0.5:a=1.0.0.0.5",  // duplicate a=
      ":f=",                     // empty crash list
      ":f=3",                    // missing @round
      ":f=3@",                   // missing the round number
      ":f=@3",                   // missing the node
      ":f=1@2:f=3@4",            // duplicate f=
      ":f=1@2:a=1.0.0.0.5",      // f= before a=
      ":f=3@5-2",                // recovers before it crashes
      ":f=3@2-",                 // dangling recover tail
      ":f=3@-2",                 // missing the crash round
      ":f=3@2-x",                // non-numeric recover
      ":q=7",                    // unknown optional field
  };
  for (const char* suffix : bad)
    EXPECT_THROW(Scenario::parse(base + suffix), std::invalid_argument)
        << suffix;
}

std::string parse_error(const std::string& token) {
  try {
    Scenario::parse(token);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "parsed without error: " << token;
  return "";
}

TEST(ScenarioCodec, ParseRejectsDuplicateFamilyParams) {
  // A repeated param name used to parse silently with param() resolving to
  // the FIRST occurrence — a token that lies about what it runs.  Now it is
  // a parse error naming the offender.
  const std::string msg =
      parse_error("ule1:ring{n=8,n=9}:flood_max:k=none:w=sim:s=1:t=1");
  EXPECT_NE(msg.find("duplicate family param \"n\""), std::string::npos)
      << msg;
  EXPECT_NE(
      parse_error("ule1:gnm{n=8,m=12,m=13}:flood_max:k=none:w=sim:s=1:t=1")
          .find("duplicate family param \"m\""),
      std::string::npos);
  // Distinct names stay legal, whatever the order.
  EXPECT_NO_THROW(
      Scenario::parse("ule1:gnm{m=12,n=8}:flood_max:k=none:w=sim:s=1:t=1"));
}

TEST(ScenarioCodec, DuplicateTailDiagnosticsNameTheRealProblem) {
  // Duplicate optional fields and out-of-order optional fields are different
  // user mistakes; each diagnostic must say which one happened instead of a
  // catch-all (the old messages conflated them).
  const std::string base = "ule1:ring{n=9}:flood_max:k=none:w=sim:s=1:t=1";
  EXPECT_NE(parse_error(base + ":a=1.0.0.0.5:a=2.0.0.0.5")
                .find("duplicate a= field (no last-wins)"),
            std::string::npos);
  EXPECT_NE(parse_error(base + ":f=1@2:f=3@4")
                .find("duplicate f= field (no last-wins)"),
            std::string::npos);
  EXPECT_NE(parse_error(base + ":r=4.0:r=8.0")
                .find("duplicate r= field (no last-wins)"),
            std::string::npos);
  EXPECT_NE(parse_error(base + ":f=1@2:a=1.0.0.0.5")
                .find("a= must appear before f= and r="),
            std::string::npos);
  EXPECT_NE(parse_error(base + ":r=4.0:f=1@2")
                .find("f= must appear before r="),
            std::string::npos);
}

TEST(Registry, ProtocolNamesAreUniqueAndComplete) {
  const auto& protos = default_protocols().all();
  ASSERT_GE(protos.size(), 14u);
  std::set<std::string> names;
  for (const ProtocolInfo& p : protos) {
    EXPECT_TRUE(names.insert(p.name).second) << "duplicate " << p.name;
    EXPECT_TRUE(static_cast<bool>(p.prepare)) << p.name;
    EXPECT_TRUE(static_cast<bool>(p.round_envelope)) << p.name;
    EXPECT_TRUE(static_cast<bool>(p.message_envelope)) << p.name;
    // Envelopes must be positive on a modest reference shape.
    ScenarioShape shape;
    shape.n = 24;
    shape.m = 48;
    shape.diameter = 6;
    EXPECT_GT(p.round_envelope(shape), 0u) << p.name;
    EXPECT_GT(p.message_envelope(shape), 0u) << p.name;
  }
  EXPECT_NE(default_protocols().find("flood_max"), nullptr);
  EXPECT_EQ(default_protocols().find("nonexistent"), nullptr);
  EXPECT_THROW(default_protocols().at("nonexistent"), std::invalid_argument);
}

TEST(Registry, EveryFamilyDrawsValidBuildableParams) {
  Rng rng(42);
  for (const FamilyInfo& fam : default_families().all()) {
    for (int i = 0; i < 40; ++i) {
      const ScenarioParams ps = fam.draw(rng, 48);
      // Draws respect the declared specs (names in order, values in range).
      ASSERT_EQ(ps.size(), fam.params.size()) << fam.name;
      for (std::size_t j = 0; j < ps.size(); ++j) {
        EXPECT_EQ(ps[j].first, fam.params[j].name) << fam.name;
        EXPECT_GE(ps[j].second, fam.params[j].lo) << fam.name;
        EXPECT_LE(ps[j].second, fam.params[j].hi) << fam.name;
      }
      Rng grng(7);
      const Graph g = fam.build(ps, grng);  // must not throw
      EXPECT_GE(g.n(), 2u) << fam.name;
    }
  }
}

TEST(Registry, DrawsRespectDeclaredRangesEvenForHugeMaxN) {
  // draw() must clamp to the declared ParamSpec ranges for ANY --max-n, or
  // run_scenario rejects the fuzzer's own output mid-sweep.
  Rng rng(44);
  for (const FamilyInfo& fam : default_families().all()) {
    for (const std::size_t max_n : {1000u, 100000u}) {
      for (int i = 0; i < 20; ++i) {
        const ScenarioParams ps = fam.draw(rng, max_n);
        ASSERT_EQ(ps.size(), fam.params.size()) << fam.name;
        for (std::size_t j = 0; j < ps.size(); ++j) {
          EXPECT_GE(ps[j].second, fam.params[j].lo)
              << fam.name << " " << ps[j].first << " max_n=" << max_n;
          EXPECT_LE(ps[j].second, fam.params[j].hi)
              << fam.name << " " << ps[j].first << " max_n=" << max_n;
        }
      }
    }
  }
}

TEST(Registry, ShrinkCandidatesAreSmallerAndBuildable) {
  Rng rng(43);
  for (const FamilyInfo& fam : default_families().all()) {
    const ScenarioParams ps = fam.draw(rng, 48);
    for (const ScenarioParams& cand : fam.shrink(ps)) {
      EXPECT_NE(cand, ps) << fam.name;
      Rng grng(7);
      EXPECT_NO_THROW(fam.build(cand, grng)) << fam.name;
    }
  }
}

TEST(Runner, GraphBuildIsReplayable) {
  Scenario s;
  s.family = "gnm";
  s.params = {{"n", 30}, {"m", 70}};
  s.protocol = "flood_max";
  s.seed = 12345;
  const Graph a = build_scenario_graph(default_families(), s);
  const Graph b = build_scenario_graph(default_families(), s);
  ASSERT_EQ(a.n(), b.n());
  ASSERT_EQ(a.m(), b.m());
  for (EdgeId e = 0; e < a.m(); ++e)
    EXPECT_EQ(a.edge_endpoints(e), b.edge_endpoints(e));
  // A different seed draws a different random graph (same n, m).
  s.seed = 54321;
  const Graph c = build_scenario_graph(default_families(), s);
  bool any_differs = c.m() != a.m();
  for (EdgeId e = 0; !any_differs && e < a.m(); ++e)
    any_differs = a.edge_endpoints(e) != c.edge_endpoints(e);
  EXPECT_TRUE(any_differs);
}

TEST(Runner, RunIsReplayableFromTheToken) {
  Scenario s;
  s.family = "torus";
  s.params = {{"rows", 4}, {"cols", 5}};
  s.protocol = "kingdom";
  s.knowledge = KnowledgeGrant::None;
  s.seed = 99;
  const auto a = run_scenario(default_protocols(), default_families(), s);
  const auto b = run_scenario(default_protocols(), default_families(),
                              Scenario::parse(s.encode()));
  EXPECT_TRUE(a.ok());
  EXPECT_TRUE(testing::same_counters(a.report.run, b.report.run));
  EXPECT_EQ(a.report.verdict.leader_slot, b.report.verdict.leader_slot);
}

TEST(Runner, ConfigurationErrorsThrowInsteadOfViolating) {
  // Unknown names.
  Scenario s;
  s.family = "ring";
  s.params = {{"n", 8}};
  s.protocol = "no_such_protocol";
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);
  s.protocol = "flood_max";
  s.family = "no_such_family";
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);

  // Knowledge below the protocol's minimum.
  s.family = "ring";
  s.protocol = "las_vegas";  // requires ND
  s.knowledge = KnowledgeGrant::N;
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);

  // Adversarial wakeup on a fixed-schedule protocol.
  s.protocol = "spanner_elect";
  s.knowledge = KnowledgeGrant::N;
  s.wakeup = WakeupKind::Single;
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);

  // Complete-only protocol on a non-complete family.
  s.protocol = "sublinear_complete";
  s.wakeup = WakeupKind::Simultaneous;
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);

  // Param out of its declared range.
  s.protocol = "flood_max";
  s.knowledge = KnowledgeGrant::None;
  s.params = {{"n", 2}};  // ring needs n >= 3
  EXPECT_THROW(run_scenario(default_protocols(), default_families(), s),
               std::invalid_argument);
}

TEST(Runner, ExplicitOverlayAgreementIsChecked) {
  Scenario s;
  s.family = "grid";
  s.params = {{"rows", 4}, {"cols", 6}};
  s.protocol = "explicit_flood_max";
  s.seed = 17;
  const auto out = run_scenario(default_protocols(), default_families(), s);
  EXPECT_TRUE(out.ok()) << (out.violations.empty() ? "" : out.violations[0]);
  EXPECT_TRUE(out.report.verdict.unique_leader);
}

TEST(Runner, DeterminismAxisRunsTheParallelPath) {
  Scenario s;
  s.family = "complete";
  s.params = {{"n", 24}};
  s.protocol = "flood_max";
  s.seed = 5;
  s.threads = 3;
  const auto out = run_scenario(default_protocols(), default_families(), s);
  EXPECT_TRUE(out.ok()) << (out.violations.empty() ? "" : out.violations[0]);
}

}  // namespace
}  // namespace ule
