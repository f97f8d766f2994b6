// The conformance fuzzer CLI: draw scenarios from a master seed, run them
// through the invariant checker, shrink failures, print replay strings.
//
//   fuzz_scenarios --quick              1000 scenarios, small graphs (CI gate)
//   fuzz_scenarios --smoke              200 scenarios (PR-workflow smoke)
//   fuzz_scenarios --count N --max-n M  custom sweep
//   fuzz_scenarios --time-budget SEC    stop drawing after SEC seconds (the
//                                       first draw always runs)
//   fuzz_scenarios --seed S             change the master seed
//   fuzz_scenarios --adversary-fraction F
//                                       fraction of draws carrying a
//                                       delivery/fault adversary (default .25)
//   fuzz_scenarios --protocol-filter S  only draw protocols whose name
//                                       contains S (e.g. "reliable")
//   fuzz_scenarios --threads-fraction F fraction of draws rerun at
//                                       threads > 1 (default .25)
//   fuzz_scenarios --churn-fraction F   fraction of crash draws upgraded to
//                                       bounded crash-recovery intervals
//                                       (reliable-transport protocols
//                                       only, default .25)
//   fuzz_scenarios --replay TOKEN      re-run one scenario from its token
//   fuzz_scenarios --list              print the registry reference
//                                       (the bytes of docs/REGISTRY.md)
//   fuzz_scenarios --stats             print per-protocol envelope headroom
//   fuzz_scenarios --no-shrink         report failures unshrunk
//
// Exit status: 0 when every scenario conforms, 1 on any violation, 2 on
// usage / configuration errors (a malformed number included) and on a run
// that checked no scenario (`--count 0`).

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>

#include "cli_args.hpp"
#include "lab/report.hpp"
#include "net/engine.hpp"
#include "net/metrics.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"

using namespace ule;

namespace {

int replay(const ProtocolRegistry& protos, const FamilyRegistry& fams,
           const std::string& token) {
  Scenario s;
  try {
    s = Scenario::parse(token);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    std::fprintf(stderr, "(token grammar: docs/REPLAY.md)\n");
    return 2;
  }
  try {
    // Replays always carry the engine telemetry snapshot: the whole point of
    // replaying a token is to look inside the run, and metrics are a pure
    // function of it (docs/OBSERVABILITY.md).
    ScenarioRunConfig cfg;
    cfg.metrics.enabled = true;
    const ScenarioOutcome out = run_scenario(protos, fams, s, cfg);
    std::printf("scenario  %s\n", out.scenario.encode().c_str());
    std::printf("shape     n=%zu m=%zu D=%u%s\n", out.shape.n, out.shape.m,
                out.shape.diameter, out.shape.complete ? " complete" : "");
    const RunResult& r = out.report.run;
    std::printf("run      ");
    for_each_counter(r, [](const char* name, std::uint64_t v) {
      std::printf(" %s=%llu", name, static_cast<unsigned long long>(v));
    });
    std::printf("\n");
    std::printf("verdict   elected=%zu non_elected=%zu undecided=%zu%s\n",
                out.report.verdict.elected, out.report.verdict.non_elected,
                out.report.verdict.undecided,
                out.report.verdict.unique_leader ? "  (unique leader)" : "");
    // Livelock/starvation story: which nodes are stuck and when progress
    // stopped (non-empty when the run hit max_rounds or quiesced undecided).
    const std::string diag = describe_nontermination(r);
    if (!diag.empty()) std::printf("diagnosis %s\n", diag.c_str());
    if (r.metrics) std::fputs(metrics_json(*r.metrics).c_str(), stdout);
    if (out.ok()) {
      std::printf("CONFORMS\n");
      return 0;
    }
    std::printf("VIOLATIONS:\n");
    for (const std::string& v : out.violations)
      std::printf("  %s\n", v.c_str());
    return 1;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "configuration error: %s\n", e.what());
    return 2;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const ProtocolRegistry& protos = default_protocols();
  const FamilyRegistry& fams = default_families();

  FuzzConfig cfg;
  cfg.count = 3000;
  cfg.max_n = 96;
  bool stats = false;

  cli::ArgReader args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (arg == "--quick") {
      cfg.count = 1000;
      cfg.max_n = 48;
    } else if (arg == "--smoke") {
      cfg.count = 200;
      cfg.max_n = 40;
    } else if (arg == "--count") {
      cfg.count = args.number<std::size_t>();
    } else if (arg == "--max-n") {
      cfg.max_n = args.number<std::size_t>();
    } else if (arg == "--seed") {
      cfg.master_seed = args.number<std::uint64_t>();
    } else if (arg == "--time-budget") {
      cfg.time_budget_sec = args.number<double>();
    } else if (arg == "--adversary-fraction") {
      cfg.adversary_fraction = args.fraction();
    } else if (arg == "--protocol-filter") {
      cfg.protocol_filter = args.value();
    } else if (arg == "--threads-fraction") {
      cfg.threads_fraction = args.fraction();
    } else if (arg == "--churn-fraction") {
      cfg.churn_fraction = args.fraction();
    } else if (arg == "--no-shrink") {
      cfg.shrink = false;
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--list") {
      std::fputs(lab::registry_markdown(protos, fams).c_str(), stdout);
      return 0;
    } else if (arg == "--replay") {
      return replay(protos, fams, args.value());
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("fuzzing %zu scenarios (master seed %llu, max n ~%zu)...\n",
              cfg.count, static_cast<unsigned long long>(cfg.master_seed),
              cfg.max_n);
  const FuzzReport rep = run_fuzz(protos, fams, cfg, &std::cout);

  std::printf("\nran %zu scenarios: %zu elected a unique leader, "
              "%zu Monte-Carlo misses, %zu determinism cross-checks, "
              "%zu adversarial%s\n",
              rep.scenarios_run, rep.runs_elected, rep.monte_carlo_misses,
              rep.determinism_checked, rep.adversarial_runs,
              rep.time_budget_hit ? " (time budget hit)" : "");

  if (stats) {
    std::size_t measured = 0;
    for (const EnvelopeStat& s : rep.envelope_stats) measured += s.runs;
    if (measured == 0) {
      std::printf("\nenvelope headroom: no fault-free draw ran; headroom is "
                  "measured on fault-free runs only\n");
    } else {
      std::printf("\nenvelope headroom (max observed / registered bound):\n");
      std::printf("  %-20s %6s %14s %14s\n", "protocol", "runs", "rounds",
                  "messages");
      for (const EnvelopeStat& s : rep.envelope_stats) {
        if (s.runs == 0) continue;
        std::printf("  %-20s %6zu %13.1f%% %13.1f%%\n", s.protocol.c_str(),
                    s.runs, 100.0 * s.max_round_ratio,
                    100.0 * s.max_message_ratio);
      }
    }
  }

  if (rep.scenarios_run == 0) {
    // Conformance of nothing is no result: `--count 0` checked no draw.
    std::fprintf(stderr, "no scenario ran, so nothing was checked\n");
    return 2;
  }
  if (rep.ok()) {
    std::printf("\nall scenarios conform\n");
    return 0;
  }
  std::printf("\n%zu FAILURES — minimal replay strings:\n",
              rep.failures.size());
  for (const FuzzFailure& f : rep.failures) {
    std::printf("  %s\n", f.minimal.encode().c_str());
    for (const std::string& v : f.minimal_violations)
      std::printf("    %s\n", v.c_str());
    // Re-run the minimal scenario with telemetry on and attach its snapshot:
    // the counters (adversary faults, ARQ retransmits/parks, dead links) are
    // usually the fastest route from a replay token to a root cause.
    try {
      ScenarioRunConfig mcfg;
      mcfg.check_determinism = false;
      mcfg.metrics.enabled = true;
      const ScenarioOutcome mo = run_scenario(protos, fams, f.minimal, mcfg);
      if (mo.report.run.metrics)
        std::fputs(metrics_json(*mo.report.run.metrics).c_str(), stdout);
    } catch (const std::invalid_argument&) {
      // A minimal token that no longer parses/configures is itself the bug
      // report; skip the snapshot rather than dying mid-listing.
    }
  }
  std::printf("reproduce with `fuzz_scenarios --replay <token>`; "
              "token grammar: docs/REPLAY.md\n");
  return 1;
}
