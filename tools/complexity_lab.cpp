// The Complexity Lab CLI: run sweep campaigns over every registry-declared
// growth curve, fit growth exponents, and emit the bench baseline + docs.
//
//   complexity_lab                       default campaign: full ladders,
//                                        writes BENCH_lab.json +
//                                        docs/COMPLEXITY.md, exit 1 when any
//                                        fitted exponent leaves its band
//   complexity_lab --quick               small ladders (CI smoke, seconds)
//   complexity_lab --seed S              change the master seed
//   complexity_lab --replicates R        seed replicates per cell (default 5)
//   complexity_lab --threads T           worker pool size (0 = hardware)
//   complexity_lab --protocol P          restrict to protocol P (repeatable)
//   complexity_lab --family F            restrict to family F (repeatable)
//   complexity_lab --ladder 32,64,128    override every n-axis curve's ladder
//   complexity_lab --d-ladder 4,8,16     override every diameter-axis ladder
//   complexity_lab --loss-ladder 0,300,600
//                                        override every loss-axis drop_pm ladder
//   complexity_lab --nominal-n N         fixed total size for diameter-axis
//   complexity_lab --loss-n N            fixed instance size for loss-axis
//                                        curves (default 96 quick / 256 full)
//   complexity_lab --out FILE            JSON path (default BENCH_lab.json)
//   complexity_lab --md FILE             report path (docs/COMPLEXITY.md)
//   complexity_lab --no-md / --no-json   skip an output
//   complexity_lab --no-check            exit 0 even when fits fail
//   complexity_lab --list-registry       print the registry reference, the
//                                        bytes of docs/REGISTRY.md (CI
//                                        regenerates + diffs it)
//   complexity_lab --trend BASELINE CURRENT
//                                        diff two BENCH_lab.json documents
//                                        and fail on drift in any
//                                        deterministic counter statistic or
//                                        fitted exponent (lab/trend.hpp;
//                                        the CI trend gate)
//   complexity_lab --trend-exp-tol T     exponent drift tolerance (0.05)
//   complexity_lab --allow-missing       tolerate baseline rows absent from
//                                        the current document
//   complexity_lab --metrics             collect an engine telemetry snapshot
//                                        (net/metrics.hpp) on replicate 0 of
//                                        every cell; cell rows grow mx_*
//                                        fields (ignored by the trend gate)
//   complexity_lab --validate-metrics FILE
//                                        validate FILE against the
//                                        engine_metrics snapshot schema and
//                                        exit (the CI metrics smoke)
//
// Exit status: 0 = every fit in band and zero conformance violations (for
// --trend: no drift; for --validate-metrics: schema OK), 1 = a fit left its
// band, a run violated an invariant, the trend gate found drift or the
// snapshot failed validation, 2 = usage errors (a malformed number included).

#include <cstdio>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "json/bench_doc.hpp"
#include "lab/campaign.hpp"
#include "lab/report.hpp"
#include "lab/trend.hpp"
#include "net/metrics.hpp"
#include "scenario/registry.hpp"

using namespace ule;

int main(int argc, char** argv) {
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();

  lab::CampaignConfig cfg;
  lab::TrendConfig trend_cfg;
  std::string out_json = "BENCH_lab.json";
  std::string out_md = "docs/COMPLEXITY.md";
  std::string trend_baseline, trend_current;
  std::string validate_metrics_path;
  bool write_json = true, write_md = true, check = true;
  bool list_registry = false, trend = false;
  bool replicates_set = false;

  cli::ArgReader args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (arg == "--quick") {
      cfg.quick = true;
    } else if (arg == "--seed") {
      cfg.master_seed = args.number<std::uint64_t>();
    } else if (arg == "--replicates") {
      cfg.replicates = args.number<std::size_t>();
      replicates_set = true;
    } else if (arg == "--threads") {
      cfg.threads = args.number<unsigned>();
    } else if (arg == "--protocol") {
      cfg.protocols.push_back(args.value());
    } else if (arg == "--family") {
      cfg.families.push_back(args.value());
    } else if (arg == "--ladder") {
      cfg.ladder = args.number_list();
    } else if (arg == "--d-ladder") {
      cfg.d_ladder = args.number_list();
    } else if (arg == "--loss-ladder") {
      cfg.loss_ladder = args.number_list();
    } else if (arg == "--nominal-n") {
      cfg.nominal_n = args.number<std::uint64_t>();
    } else if (arg == "--loss-n") {
      cfg.loss_n = args.number<std::uint64_t>();
    } else if (arg == "--trend") {
      trend = true;
      trend_baseline = args.value();
      trend_current = args.value();
    } else if (arg == "--trend-exp-tol") {
      trend_cfg.exponent_tol = args.number<double>();
    } else if (arg == "--allow-missing") {
      trend_cfg.allow_missing = true;
    } else if (arg == "--metrics") {
      cfg.metrics = true;
    } else if (arg == "--validate-metrics") {
      validate_metrics_path = args.value();
    } else if (arg == "--out") {
      out_json = args.value();
    } else if (arg == "--md") {
      out_md = args.value();
    } else if (arg == "--no-md") {
      write_md = false;
    } else if (arg == "--no-json") {
      write_json = false;
    } else if (arg == "--no-check") {
      check = false;
    } else if (arg == "--list-registry") {
      list_registry = true;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  // --quick lowers the replicate default; an explicit --replicates wins
  // regardless of flag order.
  if (cfg.quick && !replicates_set) cfg.replicates = 3;

  if (!validate_metrics_path.empty()) {
    try {
      std::string err;
      if (validate_metrics_json(json::read_text_file(validate_metrics_path),
                                &err)) {
        std::printf("metrics snapshot OK: %s\n",
                    validate_metrics_path.c_str());
        return 0;
      }
      std::fprintf(stderr, "metrics schema violation in %s: %s\n",
                   validate_metrics_path.c_str(), err.c_str());
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "metrics validation error: %s\n", e.what());
      return 2;
    }
  }

  if (trend) {
    try {
      const lab::TrendReport rep = lab::compare_lab_trend(
          json::read_text_file(trend_baseline),
          json::read_text_file(trend_current), trend_cfg);
      for (const std::string& n : rep.notes)
        std::printf("note:  %s\n", n.c_str());
      for (const std::string& e : rep.errors)
        std::printf("DRIFT: %s\n", e.c_str());
      std::printf("trend gate: %zu cells + %zu fits compared against %s: "
                  "%zu drifts\n",
                  rep.cells_compared, rep.fits_compared,
                  trend_baseline.c_str(), rep.errors.size());
      if (rep.ok()) {
        std::printf("no drift outside tolerance\n");
        return 0;
      }
      std::printf("counter statistics and exponents are pure functions of "
                  "the master seed;\nintentional changes must regenerate the "
                  "committed baselines (see\ndocs/ARCHITECTURE.md, "
                  "\"Trend gate\")\n");
      return 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "trend error: %s\n", e.what());
      return 2;
    }
  }

  if (list_registry) {
    std::fputs(lab::registry_markdown(protos, fams).c_str(), stdout);
    return 0;
  }

  std::printf("complexity lab: %s ladders, master seed %llu, "
              "%zu replicates per cell\n\n",
              cfg.quick ? "quick" : "full",
              static_cast<unsigned long long>(cfg.master_seed),
              cfg.replicates);

  lab::CampaignResult res;
  try {
    res = lab::run_campaign(protos, fams, cfg, &std::cout);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "configuration error: %s\n", e.what());
    return 2;
  }

  try {
    if (write_json) {
      json::write_text_file(out_json, lab::bench_json(res));
      std::printf("\nwrote %s\n", out_json.c_str());
    }
    if (write_md) {
      json::write_text_file(out_md, lab::complexity_markdown(res));
      std::printf("wrote %s\n", out_md.c_str());
    }
  } catch (const std::runtime_error& e) {
    std::fprintf(stderr, "output error: %s\n", e.what());
    return 2;
  }

  const std::size_t failed = res.failed_fits();
  const std::size_t viol = res.violation_count();
  std::printf("\n%zu engine runs over %zu curves: %zu fit failures, "
              "%zu conformance violations\n",
              res.total_runs, res.curves.size(), failed, viol);
  if (res.ok()) {
    std::printf("all fitted exponents within their declared bands\n");
    return 0;
  }
  return check ? 1 : 0;
}
