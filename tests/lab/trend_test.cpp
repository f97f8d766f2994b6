// The BENCH_lab.json trend gate (lab/trend.hpp): identical campaigns show no
// drift, wall-clock fields never count, and doctored documents — an exponent
// nudged out of tolerance, a counter statistic off by one, a dropped row —
// fail the comparison.  This is the in-test demonstration of the CI gate:
// "CI fails on a doctored exponent drift" without actually breaking CI.

#include "lab/trend.hpp"

#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "lab/campaign.hpp"
#include "lab/report.hpp"
#include "scenario/registry.hpp"

namespace ule::lab {
namespace {

CampaignConfig gate_config() {
  CampaignConfig cfg;
  cfg.master_seed = 5417;
  cfg.replicates = 2;
  cfg.protocols = {"dfs", "flood_max"};
  cfg.families = {"ring", "cliquepath"};
  cfg.d_ladder = {8, 16, 32};
  cfg.nominal_n = 64;
  cfg.ladder = {8, 16, 32};
  cfg.threads = 1;
  return cfg;
}

/// The document a CI run would diff against the committed baseline.
std::string gate_document() {
  static const std::string doc = bench_json(
      run_campaign(default_protocols(), default_families(), gate_config()));
  return doc;
}

/// Replace the first `"key": <number>` after `anchor` with `replacement`.
std::string doctor(const std::string& doc, const std::string& key,
                   const std::string& replacement,
                   const std::string& anchor = "") {
  std::size_t from = 0;
  if (!anchor.empty()) {
    from = doc.find(anchor);
    EXPECT_NE(from, std::string::npos) << anchor;
  }
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = doc.find(needle, from);
  EXPECT_NE(at, std::string::npos) << key;
  const std::size_t start = at + needle.size();
  std::size_t end = start;
  while (end < doc.size() && doc[end] != ',' && doc[end] != '}') ++end;
  return doc.substr(0, start) + replacement + doc.substr(end);
}

TEST(TrendTest, IdenticalDocumentsShowNoDrift) {
  const TrendReport rep = compare_lab_trend(gate_document(), gate_document());
  EXPECT_TRUE(rep.ok()) << rep.errors[0];
  EXPECT_GT(rep.cells_compared, 0u);
  EXPECT_GT(rep.fits_compared, 0u);
  EXPECT_TRUE(rep.notes.empty());
}

TEST(TrendTest, RerunFromTheSameSeedShowsNoDrift) {
  // The real CI shape: baseline and current come from independent campaign
  // executions (only wall clocks may differ; everything compared is a pure
  // function of the master seed).
  const std::string again = bench_json(
      run_campaign(default_protocols(), default_families(), gate_config()));
  const TrendReport rep = compare_lab_trend(gate_document(), again);
  EXPECT_TRUE(rep.ok()) << rep.errors[0];
}

TEST(TrendTest, WallClockFieldsAreIgnored) {
  // A baseline with wall statistics vs a current without (and vice versa)
  // still compares clean — wall clocks are machine-specific by design.
  const CampaignResult res =
      run_campaign(default_protocols(), default_families(), gate_config());
  const std::string with_wall = bench_json(res, /*include_wall=*/true);
  const std::string without_wall = bench_json(res, /*include_wall=*/false);
  EXPECT_NE(with_wall, without_wall);
  EXPECT_TRUE(compare_lab_trend(with_wall, without_wall).ok());
  EXPECT_TRUE(compare_lab_trend(without_wall, with_wall).ok());

  const std::string slow = doctor(with_wall, "wall_ms_median", "99999.9");
  EXPECT_TRUE(compare_lab_trend(with_wall, slow).ok());
}

TEST(TrendTest, DoctoredExponentDriftFails) {
  // The acceptance demonstration: nudge one fitted exponent past the
  // tolerance and the gate must fail, naming the curve.
  const std::string doc = gate_document();
  const std::string drifted = doctor(doc, "exponent", "2.71", "\"kind\": \"fit\"");
  const TrendReport rep = compare_lab_trend(doc, drifted);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("exponent drifted"), std::string::npos)
      << rep.errors[0];
  EXPECT_NE(rep.errors[0].find("fit "), std::string::npos);

  // Sub-tolerance wiggle (cross-platform libm noise) is NOT drift: the
  // default exponent tolerance absorbs it.
  const std::string doc2 = bench_json(
      run_campaign(default_protocols(), default_families(), gate_config()));
  TrendConfig strict;
  strict.exponent_tol = 0.0;
  EXPECT_TRUE(compare_lab_trend(doc, doc2, strict).ok());
}

TEST(TrendTest, DoctoredCounterStatisticFails) {
  const std::string doc = gate_document();
  const std::string drifted = doctor(doc, "messages_median", "1");
  const TrendReport rep = compare_lab_trend(doc, drifted);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("messages_median drifted"), std::string::npos)
      << rep.errors[0];

  // A flipped fit verdict fails even if the exponent itself stayed close.
  const std::string failed_fit =
      doctor(doc, "pass", "false", "\"kind\": \"fit\"");
  const TrendReport rep2 = compare_lab_trend(doc, failed_fit);
  ASSERT_FALSE(rep2.ok());
}

TEST(TrendTest, OneUnitCounterDriftFails) {
  // Counter statistics compare exactly: a relative tolerance would forgive
  // a one-message drift on any cell that sends 100 or more.
  const std::string doc = gate_document();
  const std::string needle = "\"messages_median\": ";
  std::size_t at = doc.find(needle);
  double v = 0;
  while (at != std::string::npos) {
    v = std::stod(doc.substr(at + needle.size()));
    if (v >= 100) break;
    at = doc.find(needle, at + 1);
  }
  ASSERT_NE(at, std::string::npos) << "no cell sends 100 messages";
  const std::string drifted =
      doc.substr(0, at) +
      doctor(doc.substr(at), "messages_median", std::to_string(v + 1));
  const TrendReport rep = compare_lab_trend(doc, drifted);
  ASSERT_EQ(rep.errors.size(), 1u);
  EXPECT_NE(rep.errors[0].find("messages_median drifted"), std::string::npos)
      << rep.errors[0];
}

TEST(TrendTest, MissingCoverageFailsUnlessAllowed) {
  // Current run covers fewer curves than the baseline (a protocol filter, a
  // deleted band): that is a coverage regression, not silence.
  CampaignConfig cfg = gate_config();
  cfg.protocols = {"dfs"};
  const std::string smaller =
      bench_json(run_campaign(default_protocols(), default_families(), cfg));
  const TrendReport rep = compare_lab_trend(gate_document(), smaller);
  ASSERT_FALSE(rep.ok());
  EXPECT_NE(rep.errors[0].find("missing from current"), std::string::npos);

  TrendConfig allow;
  allow.allow_missing = true;
  const TrendReport rep2 = compare_lab_trend(gate_document(), smaller, allow);
  EXPECT_TRUE(rep2.ok());
  EXPECT_FALSE(rep2.notes.empty());

  // The mirror image — new rows in the current document (a freshly declared
  // band whose baseline has not been regenerated yet) — is benign.
  const TrendReport rep3 = compare_lab_trend(smaller, gate_document());
  EXPECT_TRUE(rep3.ok()) << rep3.errors[0];
  EXPECT_FALSE(rep3.notes.empty());
}

TEST(TrendTest, IncomparableCampaignsFailFast) {
  CampaignConfig cfg = gate_config();
  cfg.master_seed = 99;
  const std::string other =
      bench_json(run_campaign(default_protocols(), default_families(), cfg));
  const TrendReport rep = compare_lab_trend(gate_document(), other);
  ASSERT_EQ(rep.errors.size(), 1u);  // one clear error, not per-row spam
  EXPECT_NE(rep.errors[0].find("master_seed"), std::string::npos);
}

TEST(TrendTest, MalformedDocumentsThrow) {
  EXPECT_THROW(compare_lab_trend("not json", gate_document()),
               std::invalid_argument);
  EXPECT_THROW(compare_lab_trend(gate_document(), "{\"bench\": \"x\"}"),
               std::invalid_argument);
  // The strict reader: no trailing content, a number must convert in full,
  // a row may not repeat a key, and the bench tag must be complexity_lab.
  const std::string doc = gate_document();
  for (const std::string& bad : {
           doc + "}}} garbage [",
           doctor(doc, "rounds_median", "4-7"),
           doctor(doc, "m", "12, \"m\": 99"),
           doctor(doc, "bench", "\"engine_metrics\""),
       }) {
    EXPECT_THROW(compare_lab_trend(doc, bad), std::invalid_argument);
    EXPECT_THROW(compare_lab_trend(bad, doc), std::invalid_argument);
  }
  // A valid document with no meta row is an error, not a crash.
  const TrendReport rep = compare_lab_trend(
      "{\"bench\": \"complexity_lab\", \"rows\": []}", gate_document());
  EXPECT_FALSE(rep.ok());
}

TEST(TrendTest, PreAxisBaselinesStayComparable) {
  // PR-4 era documents carry no "axis" field; rows default to axis "n" so an
  // old committed baseline still gates an axis-aware current document.
  CampaignConfig cfg = gate_config();
  cfg.families = {"ring"};
  const std::string doc =
      bench_json(run_campaign(default_protocols(), default_families(), cfg));
  std::string legacy = doc;
  for (std::string::size_type at;
       (at = legacy.find("\"axis\": \"n\", ")) != std::string::npos;)
    legacy.erase(at, std::string("\"axis\": \"n\", ").size());
  EXPECT_EQ(legacy.find("\"axis\""), std::string::npos);
  const TrendReport rep = compare_lab_trend(legacy, doc);
  EXPECT_TRUE(rep.ok()) << rep.errors[0];
  EXPECT_GT(rep.cells_compared, 0u);
}

}  // namespace
}  // namespace ule::lab
