#include "lab/report.hpp"

#include <cstdio>

#include "json/bench_doc.hpp"

namespace ule::lab {

namespace {

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

std::string u64(std::uint64_t v) { return std::to_string(v); }

void add_metric(json::JsonObject& row, const char* name,
                const MetricStats& s) {
  row.set(std::string(name) + "_median", s.median)
      .set(std::string(name) + "_p95", s.p95)
      .set(std::string(name) + "_max", s.max);
}

}  // namespace

std::string bench_json(const CampaignResult& res, bool include_wall) {
  json::JsonReport report("complexity_lab");
  report.add_row()
      .set("kind", "meta")
      .set("master_seed", res.master_seed)
      .set("replicates", std::uint64_t{res.replicates})
      .set("total_runs", std::uint64_t{res.total_runs});

  for (const CurveResult& c : res.curves) {
    for (const CellResult& cell : c.cells) {
      json::JsonObject& row = report.add_row();
      row.set("kind", "cell")
          .set("protocol", c.protocol)
          .set("family", c.family)
          .set("axis", c.axis)
          .set("n", cell.n)
          .set("m", cell.m)
          .set("diameter", std::uint64_t{cell.diameter})
          .set("replicates", std::uint64_t{cell.replicates});
      // Loss-axis rungs share one shape; drop_pm is the coordinate that
      // distinguishes them (and feeds the trend gate's row key).
      if (c.axis == "loss") row.set("drop_pm", cell.drop_pm);
      add_metric(row, "rounds", cell.rounds);
      add_metric(row, "messages", cell.messages);
      add_metric(row, "bits", cell.bits);
      if (include_wall) {
        row.set("wall_ms_median", cell.wall.median_ms)
            .set("wall_ms_p95", cell.wall.p95_ms)
            .set("wall_ms_max", cell.wall.max_ms);
      }
      // Opt-in telemetry (CampaignConfig::metrics): replicate-0 gauges and
      // counters flattened as mx_* fields.  The trend gate ignores fields
      // absent from either document, and the committed baselines are
      // metrics-free, so these rows stay byte-comparable either way.
      if (cell.has_metrics) {
        row.set("mx_active_set_max", cell.metrics.active_set.max)
            .set("mx_wake_heap_max", cell.metrics.wake_heap.max)
            .set("mx_inbox_csr_max", cell.metrics.inbox_csr.max)
            .set("mx_outbox_arena_max", cell.metrics.outbox_arena.max);
        for (const auto& [name, value] : cell.metrics.counters)
          row.set("mx_" + name, value);
      }
      row.set("ok", cell.violations.empty());
    }
    for (const FitOutcome& f : c.fits) {
      json::JsonObject& row = report.add_row();
      row.set("kind", "fit")
          .set("protocol", c.protocol)
          .set("family", c.family)
          .set("axis", c.axis)
          .set("metric", f.expect.metric)
          .set("points", std::uint64_t{f.fit.points});
      // A skipped fit has no exponent to report: the row documents why the
      // curve could not be fitted (degenerate ladder) instead of carrying
      // meaningless zeros the trend gate would then compare.
      if (f.skipped) {
        row.set("skipped", true).set("reason", f.reason);
      } else {
        row.set("exponent", f.fit.exponent)
            .set("stderr", f.fit.stderr_exponent)
            .set("r2", f.fit.r2);
      }
      row.set("expected", f.expect.exponent)
          .set("tol", f.expect.tol)
          .set("pass", f.pass);
    }
  }

  return report.str();
}

std::string complexity_markdown(const CampaignResult& res) {
  std::string md;
  md += "# Empirical complexity — fitted growth exponents\n\n";
  md +=
      "<!-- Generated by complexity_lab.  Regenerate from the repo root "
      "with:\n       ./build/complexity_lab --md docs/COMPLEXITY.md\n-->\n\n";
  md +=
      "The paper's Table 1 states *asymptotic* bounds — O(m) messages, O(D) "
      "time for\nuniversal election, and the sublinear ~O(√n·log^{3/2} n) "
      "message bound on\ncomplete graphs.  This table is its measured "
      "counterpart: every protocol that\ndeclares a growth curve in the "
      "[registry](REGISTRY.md) is swept over an\nascending ladder with seed "
      "replicates, the median cost per rung is fitted by\nlog-log least "
      "squares (`src/lab/fit.hpp`), and the fitted exponent must land "
      "in\nthe registry-declared band.  The ladder runs on the curve's "
      "declared **axis**:\n`n` grows the node count with the shape fixed "
      "(the message bounds), `diameter`\ngrows D at ~fixed total size and "
      "fits against the BFS-measured diameter (the\nO(D)-time bounds — an "
      "n-ladder alone would conflate the two axes), and `loss`\ngrows the "
      "seeded adversary's drop probability over a fixed instance and fits\n"
      "against x = 1/(1-p), the expected transmissions per delivered frame "
      "(the\nreliable-transport layer's retransmit overhead, "
      "[RELIABILITY.md](RELIABILITY.md)).\nCounter\nstatistics "
      "and exponents are a pure function of the master seed; wall clocks\n"
      "are from the machine that generated this file.\n\n"
      "This file and [REGISTRY.md](REGISTRY.md) (each protocol's success "
      "contract and\nrequired knowledge) are the measured Table 1.  The "
      "paper's lower bounds\n(Theorems 3.1 and 3.13) are tier-1 tests "
      "instead: `tests/bounds/` and\n`tests/integration/complexity_test.cpp`."
      "\n\n";
  md += "Campaign: master seed " + u64(res.master_seed) + ", " +
        u64(res.replicates) + " replicates per cell, " + u64(res.total_runs) +
        " engine runs.\n\n";

  md += "## Fitted exponents\n\n";
  md += "| protocol | family | axis | metric | fitted axis^a | ±95% | "
        "expected | R² | verdict | paper bound |\n";
  md += "|---|---|---|---|---|---|---|---|---|---|\n";
  for (const CurveResult& c : res.curves) {
    for (const FitOutcome& f : c.fits) {
      if (f.skipped) {
        md += "| `" + c.protocol + "` | " + c.family + " | " + c.axis +
              " | " + f.expect.metric + " | — | — | " +
              fmt("%.2f", f.expect.exponent) + " ± " +
              fmt("%.2f", f.expect.tol) + " | — | skipped (" + f.reason +
              ") | " + f.expect.note + " |\n";
        continue;
      }
      md += "| `" + c.protocol + "` | " + c.family + " | " + c.axis + " | " +
            f.expect.metric + " | " + fmt("%.3f", f.fit.exponent) + " | " +
            fmt("%.3f", f.fit.confidence()) + " | " +
            fmt("%.2f", f.expect.exponent) + " ± " +
            fmt("%.2f", f.expect.tol) + " | " + fmt("%.4f", f.fit.r2) +
            " | " + (f.pass ? "pass" : "**FAIL**") + " | " + f.expect.note +
            " |\n";
    }
  }
  md += "\n";

  md += "## Measured curves\n\n";
  md += "Per-cell order statistics over the replicates (median / p95 / "
        "max).  Wall\nclock covers the full scenario run (graph build + "
        "exact diameter + engine).\n\n";
  for (const CurveResult& c : res.curves) {
    const bool loss = c.axis == "loss";
    md += "### `" + c.protocol + "` × " + c.family + " [" + c.axis + "]\n\n";
    md += loss ? "| n | m | D | drop ‰ | rounds | messages | bits (med) | "
                 "wall ms (med) |\n|---|---|---|---|---|---|---|---|\n"
               : "| n | m | D | rounds | messages | bits (med) | "
                 "wall ms (med) |\n|---|---|---|---|---|---|---|\n";
    for (const CellResult& cell : c.cells) {
      md += "| " + u64(cell.n) + " | " + u64(cell.m) + " | " +
            u64(cell.diameter) + " | " +
            (loss ? u64(cell.drop_pm) + " | " : std::string()) +
            u64(cell.rounds.median) + " / " +
            u64(cell.rounds.p95) + " / " + u64(cell.rounds.max) + " | " +
            u64(cell.messages.median) + " / " + u64(cell.messages.p95) +
            " / " + u64(cell.messages.max) + " | " + u64(cell.bits.median) +
            " | " + fmt("%.2f", cell.wall.median_ms) + " |\n";
    }
    for (const CellResult& cell : c.cells) {
      for (const std::string& v : cell.violations)
        md += "\n**VIOLATION** at n=" + u64(cell.n) + ": " + v + "\n";
    }
    md += "\n";
  }

  md += "See [ARCHITECTURE.md](ARCHITECTURE.md) for how the lab executes "
        "campaigns and\n[REGISTRY.md](REGISTRY.md) for every declared "
        "envelope and growth band.\n";
  return md;
}

/// faults::to_string separates classes with '|', which would split a
/// markdown table cell — join with '+' in the generated doc instead.
std::string safe_under_cell(std::uint8_t mask) {
  std::string s = faults::to_string(mask);
  for (char& c : s)
    if (c == '|') c = '+';
  return s;
}

std::string registry_markdown(const ProtocolRegistry& protocols,
                              const FamilyRegistry& families) {
  // Reference shapes for envelope samples: the envelopes are code, so the
  // reference prints their *values* at two canonical instances.
  ScenarioShape ring64;
  ring64.n = 64;
  ring64.m = 64;
  ring64.diameter = 32;
  ring64.complete = false;
  ScenarioShape k64;
  k64.n = 64;
  k64.m = 64 * 63 / 2;
  k64.diameter = 1;
  k64.complete = true;

  std::string md;
  md += "# Protocol & family registry reference\n\n";
  md +=
      "<!-- GENERATED FILE — do not edit.  Regenerate from the repo root "
      "with:\n       ./build/complexity_lab --list-registry > "
      "docs/REGISTRY.md\n     CI regenerates this file and fails on drift. "
      "-->\n\n";
  md += "The single source of truth is `src/scenario/registry.cpp` "
        "(`default_protocols()`\nand `default_families()`); the conformance "
        "matrix, the CONGEST matrix, the\nfuzzer and the Complexity Lab all "
        "consume it.  Registering a protocol or\nfamily covers it everywhere "
        "at once.\n\n";

  md += "## Protocols (" + u64(protocols.all().size()) + ")\n\n";
  md += "Success contracts: *deterministic* and *las_vegas* must elect a "
        "unique leader\non every run; *monte_carlo* may fail to elect, but "
        "safety (never two leaders)\nmust still hold.  Knowledge is the "
        "chain none < n < nd < nmd.\n\nThe *safe-under* mask lists the "
        "adversary fault classes under which safety is\ndeclared (and "
        "fuzzed) to hold.  Every protocol terminates under loss-free\n"
        "bounded delay and reorder; *reliable transport* protocols also "
        "terminate\nunder loss up to 600‰ and bounded churn "
        "([ADVERSARY.md](ADVERSARY.md)).\n\n";
  md += "| protocol | contract | min knowledge | wakeup-tolerant | "
        "complete-only | explicit overlay | safe under | "
        "reliable transport |\n";
  md += "|---|---|---|---|---|---|---|---|\n";
  for (const ProtocolInfo& p : protocols.all()) {
    md += "| `" + p.name + "` | " + to_string(p.contract) + " | " +
          to_string(p.min_knowledge) + " | " +
          (p.wakeup_tolerant ? "yes" : "no") + " | " +
          (p.needs_complete ? "yes" : "no") + " | " +
          (p.explicit_overlay ? "yes" : "no") + " | " +
          safe_under_cell(p.safe_under) + " | " +
          (p.reliable_transport ? "yes" : "no") + " |\n";
  }
  md += "\n";

  md += "### Envelope samples\n\n";
  md += "The registered round/message envelopes are generous universal "
        "bounds (they\nmust hold for every family, seed and wakeup "
        "schedule).  Sampled at two\nreference instances — ring n=64 "
        "(m=64, D=32) and K_64 (m=2016, D=1):\n\n";
  md += "| protocol | rounds @ ring64 | messages @ ring64 | rounds @ K64 | "
        "messages @ K64 |\n";
  md += "|---|---|---|---|---|\n";
  for (const ProtocolInfo& p : protocols.all()) {
    const auto cell = [&](const ScenarioShape& s, bool rounds) {
      if (p.needs_complete && !s.complete) return std::string("—");
      return rounds ? u64(p.round_envelope(s)) : u64(p.message_envelope(s));
    };
    md += "| `" + p.name + "` | " + cell(ring64, true) + " | " +
          cell(ring64, false) + " | " + cell(k64, true) + " | " +
          cell(k64, false) + " |\n";
  }
  md += "\n";

  md += "### Declared growth curves\n\n";
  md += "Checked by `complexity_lab`: the log-log slope of the metric's "
        "median against\nthe declared axis over the family ladder must land "
        "within expected ± tol.  Axis\n`n` sweeps an ascending n-ladder; "
        "axis `diameter` sweeps the family's\ndiameter-ladder convention "
        "(total size ~fixed, growing D) and fits against the\nBFS-measured "
        "diameter; axis `loss` sweeps the adversary's drop probability "
        "over\na fixed instance and fits against x = 1/(1-p) "
        "(reliable-transport protocols\nonly).  Near-zero bands "
        "(|expected| <= 0.25) are additionally\n"
        "widened by the fit's own confidence (lab/fit.hpp).  See\n"
        "[COMPLEXITY.md](COMPLEXITY.md) for the latest fitted values.\n\n";
  md += "| protocol | family | axis | metric | expected | tol | "
        "paper bound |\n";
  md += "|---|---|---|---|---|---|---|\n";
  for (const ProtocolInfo& p : protocols.all()) {
    for (const GrowthExpectation& e : p.growth) {
      md += "| `" + p.name + "` | " + e.family + " | " + e.axis + " | " +
            e.metric + " | " + fmt("%.2f", e.exponent) + " | " +
            fmt("%.2f", e.tol) + " | " + e.note + " |\n";
    }
  }
  md += "\n";

  md += "## Families (" + u64(families.all().size()) + ")\n\n";
  md += "Every family is a parameterized, seedable generator; (params, "
        "seed) fully\ndetermines the instance, which is what makes replay "
        "tokens ([REPLAY.md](REPLAY.md))\nwork for randomized families "
        "too.\n\n";
  md += "Families with a *D-ladder* convention additionally support "
        "diameter-axis\ncampaigns: rung(nominal_n, D) builds an instance of "
        "~nominal_n total nodes\nwhose BFS diameter exactly matches the "
        "declared value (pinned by\ntests/graphgen/family_properties_test."
        "cpp).\n\n";
  md += "| family | parameters | complete | D-ladder |\n";
  md += "|---|---|---|---|\n";
  for (const FamilyInfo& f : families.all()) {
    std::string params;
    for (const ParamSpec& ps : f.params) {
      if (!params.empty()) params += ", ";
      params += ps.name + " ∈ [" + u64(ps.lo) + ", " + u64(ps.hi) + "]";
    }
    std::string dladder = "—";
    if (f.diameter_ladder.has_value())
      dladder = "D ∈ [" + u64(f.diameter_ladder->min_d) + ", " +
                u64(f.diameter_ladder->max_d) + "]";
    md += "| `" + f.name + "` | " + params + " | " +
          (f.complete ? "yes" : "no") + " | " + dladder + " |\n";
  }
  md += "\n";

  return md;
}

}  // namespace ule::lab
