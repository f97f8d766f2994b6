// Engine hot-path baseline: end-to-end wall-clock throughput of the
// SyncEngine on three topology regimes (ring / clique / dumbbell), plus a
// quiescent-heavy scheduler stressor.
//
// Writes BENCH_engine.json: one row per (workload, n) with wall_ms and
// derived rounds/sec, messages/sec and node-steps/sec ("ops").  Each row is
// run 3 times (once with --quick): wall_ms is the median, wall_min_ms and
// wall_max_ms the spread, and a counter that differs between repeats fails
// the bench like a thread-ladder divergence does.  Every future
// engine-perf PR reruns this bench and must not regress the trajectory
// (the bench-baseline convention; see ROADMAP.md).  Row schema:
//
//   { "bench": "engine_hotpath",
//     "rows": [ { "workload": ring_dfs | clique_sublinear | dumbbell_least_el
//                            | clique_flood_max | adversary_off_overhead
//                            | churn_off_overhead | metrics_off_overhead
//                            | ring_quiescent | ring_quiescent_perround,
//                 "family": ring | clique | dumbbell, "n": ..., "m": ...,
//                 "seed": ..., "threads": ..., "wall_ms": ...,
//                 "wall_min_ms": ..., "wall_max_ms": ...,
//                 "logical_rounds": ..., "executed_rounds": ...,
//                 "node_steps": ..., "messages": ..., "bits": ...,
//                 "completed": ..., "elected": ..., "unique_leader": ...,
//                 "rounds_per_sec": ..., "messages_per_sec": ...,
//                 "ops_per_sec": ..., "minor_faults": ...,
//                 "per_round_ns": ... (perround rows only) } ] }
//
// Counters (executed_rounds, messages, bits) are deterministic per seed and
// per thread count and double as a regression check; wall times are
// machine-specific.  minor_faults is the process's getrusage minor-fault
// delta over all of a row's runs (worker threads included): ungated, it
// shows how much fresh memory the engine faults in per row.
//
//   $ ./bench_engine_hotpath                 # full sweep, ring up to 10^6
//   $ ./bench_engine_hotpath --quick         # CI smoke (tiny n, <1s)
//   $ ./bench_engine_hotpath --max-n 100000  # cap every sweep
//   $ ./bench_engine_hotpath --threads 4     # worker pool for all workloads
//   $ ./bench_engine_hotpath --out FILE      # default BENCH_engine.json
//   $ ./bench_engine_hotpath --metrics-out FILE
//                                            # also write one engine_metrics
//                                            # snapshot (net/metrics.hpp) from
//                                            # an adversarial reliable
//                                            # flood-max run — the nightly
//                                            # telemetry trajectory source
//
// Workloads:
//   ring_dfs         Theorem 4.1's DFS-agent election on a cycle.  Almost
//                    every round has exactly one runnable node, so it
//                    measures scheduler overhead per executed round.
//   clique_sublinear The [14]-style sublinear election on K_n: few rounds,
//                    dense delivery — measures the message path.
//   dumbbell_least_el Least-element-list election on Dumbbell(n/2, n):
//                    wave floods over a high-diameter graph.
//   clique_flood_max Flood-max on K_n: every round steps ~n nodes, each
//                    scanning ~n envelopes — the dense-round regime the
//                    parallel pipeline targets.  Swept at threads ∈
//                    {1, 2, 4, hw} (deduped); counters must be identical
//                    across the sweep (checked, not just reported).
//   *_off_overhead   One table-driven harness, one row per layer:
//                    flood-max on K_n plain vs with the layer armed in a
//                    shape that must change nothing — adversary_off_overhead
//                    (inert config: seed set, every knob zero),
//                    churn_off_overhead (only empty recover == crash
//                    intervals) and metrics_off_overhead (telemetry on; the
//                    snapshot must be present).  Every RunResult counter
//                    must match and the election must succeed (hard
//                    failure); the wall ratio is recorded, not gated.
//   ring_quiescent   One spinning node on an otherwise unwoken ring, 1000
//                    rounds, zero messages: pure per-round scheduler cost.
//                    Wall time must be independent of n (the seed engine's
//                    O(n)-scan scheduler fails this by orders of magnitude).

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "election/dfs_election.hpp"
#include "net/metrics.hpp"
#include "election/flood_max.hpp"
#include "json/bench_doc.hpp"
#include "election/least_el.hpp"
#include "election/sublinear_complete.hpp"
#include "graphgen/dumbbell.hpp"
#include "graphgen/generators.hpp"
#include "net/engine.hpp"
#include "net/reliable.hpp"
#include "net/wakeup.hpp"
#include "cli_args.hpp"

namespace ule {
namespace {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Stays runnable every round (without sending) until `limit`, then halts.
class SpinProcess final : public Process {
 public:
  explicit SpinProcess(Round limit) : limit_(limit) {}
  void on_wake(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() + 1 >= limit_) ctx.halt();
  }
  void on_round(Context& ctx, std::span<const Envelope>) override {
    if (ctx.round() + 1 >= limit_) ctx.halt();
  }

 private:
  Round limit_;
};

struct Measured {
  double wall_ms = 0;  ///< the median over the repeats
  double wall_min_ms = 0;
  double wall_max_ms = 0;
  RunResult run;
  std::size_t m = 0;
  bool unique_leader = false;
  std::uint64_t minor_faults = 0;  ///< over every repeat of the row
};

/// Minor page faults of the whole process so far.
std::uint64_t minor_faults_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

void report_row(json::JsonReport& report, const char* workload,
                const char* family, std::size_t n, std::uint64_t seed,
                const Measured& mr, unsigned threads) {
  const double secs = mr.wall_ms / 1000.0;
  auto rate = [&](std::uint64_t v) {
    return secs > 0 ? static_cast<double>(v) / secs : 0.0;
  };
  report.add_row()
      .set("workload", workload)
      .set("family", family)
      .set("n", static_cast<std::uint64_t>(n))
      .set("m", static_cast<std::uint64_t>(mr.m))
      .set("seed", seed)
      .set("threads", static_cast<std::uint64_t>(threads))
      .set("wall_ms", mr.wall_ms)
      .set("wall_min_ms", mr.wall_min_ms)
      .set("wall_max_ms", mr.wall_max_ms)
      .set("logical_rounds", static_cast<std::uint64_t>(mr.run.rounds))
      .set("executed_rounds",
           static_cast<std::uint64_t>(mr.run.executed_rounds))
      .set("node_steps", mr.run.node_steps)
      .set("messages", mr.run.messages)
      .set("bits", mr.run.bits)
      .set("completed", mr.run.completed)
      .set("elected", static_cast<std::uint64_t>(mr.run.elected))
      .set("unique_leader", mr.unique_leader)
      .set("rounds_per_sec", rate(mr.run.executed_rounds))
      .set("messages_per_sec", rate(mr.run.messages))
      .set("ops_per_sec", rate(mr.run.node_steps))
      .set("minor_faults", mr.minor_faults);
  std::printf("%-18s %-9s n=%-8zu t=%-2u %10.2f ms  %9llu exec rounds"
              "  %10llu msgs  %12.0f ops/s\n",
              workload, family, n, threads, mr.wall_ms,
              static_cast<unsigned long long>(mr.run.executed_rounds),
              static_cast<unsigned long long>(mr.run.messages),
              rate(mr.run.node_steps));
}

/// Empty when `got` has every RunResult counter of `base` (the
/// for_each_counter table) and elected a unique leader; otherwise the names
/// of what diverged, each preceded by a space.
std::string divergence(const Measured& base, const Measured& got) {
  std::string out;
  for (const CounterDiff& d : diff_counters(base.run, got.run))
    out += std::string(" ") + d.name;
  if (!got.unique_leader) out += " unique_leader";
  return out;
}

Measured run_election_timed(const Graph& g, const ProcessFactory& factory,
                            const RunOptions& opt) {
  WallTimer timer;
  const ElectionReport rep = run_election(g, factory, opt);
  Measured mr;
  mr.wall_ms = timer.elapsed_ms();
  mr.run = rep.run;
  mr.m = g.m();
  mr.unique_leader = rep.verdict.unique_leader;
  return mr;
}

/// Runs `once` `reps` times: the first run's counters with the median wall
/// time and the min/max spread, or nullopt (after naming the diverging
/// counters on stderr) when a repeat disagrees with the first run.
template <class Once>
std::optional<Measured> repeated(int reps, const char* workload, std::size_t n,
                                 Once&& once) {
  const std::uint64_t faults_before = minor_faults_now();
  Measured first = once();
  std::vector<double> walls = {first.wall_ms};
  for (int r = 1; r < reps; ++r) {
    const Measured again = once();
    std::string bad;
    for (const CounterDiff& d : diff_counters(first.run, again.run))
      bad += std::string(" ") + d.name;
    if (again.unique_leader != first.unique_leader) bad += " unique_leader";
    if (!bad.empty()) {
      std::fprintf(stderr,
                   "REPEAT BREAK: %s n=%zu repeat %d diverges from the "
                   "first run:%s\n",
                   workload, n, r + 1, bad.c_str());
      return std::nullopt;
    }
    walls.push_back(again.wall_ms);
  }
  std::sort(walls.begin(), walls.end());
  first.wall_ms = walls[walls.size() / 2];
  first.wall_min_ms = walls.front();
  first.wall_max_ms = walls.back();
  first.minor_faults = minor_faults_now() - faults_before;
  return first;
}

Measured run_quiescent(std::size_t n, Round rounds, unsigned threads,
                       std::size_t parallel_cutoff) {
  const Graph g = make_cycle(n);
  EngineConfig cfg;
  cfg.congest = CongestMode::Off;
  cfg.threads = threads;  // must not matter: counters are thread-invariant
  cfg.parallel_cutoff = parallel_cutoff;
  SyncEngine eng(g, cfg);
  // Only node 0 ever wakes; everyone else stays unwoken forever, so the
  // whole run is scheduler bookkeeping, no delivery, no messages.
  eng.set_wakeup(single_wakeup(n, 0));
  eng.init_processes(
      [rounds](NodeId) { return std::make_unique<SpinProcess>(rounds); });
  WallTimer timer;
  const RunResult run = eng.run();
  Measured mr;
  mr.wall_ms = timer.elapsed_ms();
  mr.run = run;
  mr.m = g.m();
  mr.unique_leader = false;
  return mr;
}

}  // namespace
}  // namespace ule

int main(int argc, char** argv) {
  using namespace ule;

  bool quick = false;
  std::size_t max_n = 1'000'000;
  unsigned threads = 1;
  std::size_t parallel_cutoff = EngineConfig{}.parallel_cutoff;
  std::string out = "BENCH_engine.json";
  std::string metrics_out;
  std::string only;
  const auto usage = [&argv] {
    std::fprintf(stderr,
                 "usage: %s [--quick] [--max-n N] [--threads T (1..1024)] "
                 "[--parallel-cutoff K] [--only WORKLOAD] [--out FILE] "
                 "[--metrics-out FILE]\n",
                 argv[0]);
    return 2;
  };
  cli::ArgReader args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--max-n") {
      max_n = args.number<std::size_t>();
    } else if (arg == "--threads") {
      threads = args.number<unsigned>();
      if (threads < 1 || threads > 1024) return usage();
    } else if (arg == "--parallel-cutoff") {
      parallel_cutoff = args.number<std::size_t>();
      if (parallel_cutoff < 1) return usage();
    } else if (arg == "--out") {
      out = args.value();
    } else if (arg == "--metrics-out") {
      metrics_out = args.value();
    } else if (arg == "--only") {
      only = args.value();
    } else {
      return usage();
    }
  }
  bool matched = false;  // some workload passed the --only filter
  const auto enabled = [&only, &matched](const char* workload) {
    const bool on =
        only.empty() || std::string(workload).find(only) != std::string::npos;
    matched = matched || on;
    return on;
  };

  std::printf("\n=== Engine hot path: wall-clock throughput ===\n"
              "paper claim: per-round cost O(runnable + delivered), not O(n)\n");
  json::JsonReport report("engine_hotpath");
  const std::uint64_t seed = 1;
  const int reps = quick ? 1 : 3;
  // One row's measurement: `reps` runs of `election` on g, checked equal.
  const auto measure = [reps](const char* workload, const Graph& g,
                              const ProcessFactory& election,
                              const RunOptions& opt) {
    return repeated(reps, workload, g.n(),
                    [&] { return run_election_timed(g, election, opt); });
  };

  auto capped = [&](std::initializer_list<std::size_t> sizes) {
    std::vector<std::size_t> out_sizes;
    for (std::size_t s : sizes)
      if (s <= max_n) out_sizes.push_back(s);
    return out_sizes;
  };

  // --- ring_dfs ---
  if (enabled("ring_dfs"))
    for (std::size_t n :
       capped(quick ? std::initializer_list<std::size_t>{64, 256}
                    : std::initializer_list<std::size_t>{1'000, 10'000,
                                                         100'000, 1'000'000})) {
    const Graph g = make_cycle(n);
    RunOptions opt;
    opt.seed = seed;
    opt.ids = IdScheme::RandomPermutation;
    opt.max_rounds = Round{1} << 62;
    opt.congest = CongestMode::Off;
    opt.threads = threads;
    opt.parallel_cutoff = parallel_cutoff;
    const auto mr = measure("ring_dfs", g, make_dfs_election(), opt);
    if (!mr) return 1;
    report_row(report, "ring_dfs", "ring", n, seed, *mr, threads);
  }

  // --- clique_sublinear ---
  if (enabled("clique_sublinear"))
    for (std::size_t n :
       capped(quick ? std::initializer_list<std::size_t>{32, 64}
                    : std::initializer_list<std::size_t>{512, 1'024, 2'048,
                                                         4'096})) {
    const Graph g = make_complete(n);
    RunOptions opt;
    opt.seed = seed;
    opt.knowledge = Knowledge::of_n(n);
    opt.congest = CongestMode::Off;
    opt.threads = threads;
    opt.parallel_cutoff = parallel_cutoff;
    const auto mr =
        measure("clique_sublinear", g, make_sublinear_complete(), opt);
    if (!mr) return 1;
    report_row(report, "clique_sublinear", "clique", n, seed, *mr, threads);
  }

  // --- dumbbell_least_el ---
  if (enabled("dumbbell_least_el"))
    for (std::size_t n :
       capped(quick ? std::initializer_list<std::size_t>{64, 128}
                    : std::initializer_list<std::size_t>{1'000, 10'000,
                                                         100'000})) {
    const Dumbbell db = make_dumbbell(n / 2, n, 0, 1);
    RunOptions opt;
    opt.seed = seed;
    opt.knowledge = Knowledge::of_n(db.graph.n());
    opt.congest = CongestMode::Off;
    opt.threads = threads;
    opt.parallel_cutoff = parallel_cutoff;
    const auto mr =
        measure("dumbbell_least_el", db.graph,
                make_least_el(LeastElConfig::variant_A(db.graph.n())), opt);
    if (!mr) return 1;
    report_row(report, "dumbbell_least_el", "dumbbell", db.graph.n(), seed,
               *mr, threads);
  }

  // --- clique_flood_max: dense rounds swept across the thread ladder ---
  if (enabled("clique_flood_max")) {
    std::vector<unsigned> ladder = {1, 2, 4};
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    ladder.push_back(hw);
    std::sort(ladder.begin(), ladder.end());
    ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());
    for (std::size_t n :
         capped(quick ? std::initializer_list<std::size_t>{48}
                      : std::initializer_list<std::size_t>{512, 1'024})) {
      const Graph g = make_complete(n);
      Measured base;
      for (const unsigned t : ladder) {
        RunOptions opt;
        opt.seed = seed;
        opt.congest = CongestMode::Off;
        opt.threads = t;
        opt.parallel_cutoff = parallel_cutoff;
        const auto runs = measure("clique_flood_max", g, make_flood_max(), opt);
        if (!runs) return 1;
        const Measured& mr = *runs;
        if (t == ladder.front()) {
          base = mr;
        }
        // Every RunResult counter must be identical across the ladder (and
        // the election must actually succeed) — a scheduling bug that
        // preserves message totals must still fail the sweep.
        if (const std::string bad = divergence(base, mr); !bad.empty()) {
          std::fprintf(stderr,
                       "DETERMINISM BREAK: clique_flood_max n=%zu threads=%u "
                       "diverges from threads=%u:%s\n",
                       n, t, ladder.front(), bad.c_str());
          return 1;
        }
        report_row(report, "clique_flood_max", "clique", n, seed, mr, t);
      }
    }
  }

  // --- *_off_overhead: an off or inert layer is a no-op, pinned ---
  // A layer that perturbs a run it should leave alone is a correctness bug,
  // so a divergence exits 1.  The wall ratio is not gated: CI wall noise
  // would make that flaky, and counter identity is the contract.
  struct OffPathRow {
    const char* workload;
    const char* layer;  ///< names the armed layer in the failure message
    void (*arm)(RunOptions&);
  };
  const OffPathRow off_path_rows[] = {
      // active() is false: the exact fault-free hot path.
      {"adversary_off_overhead", "inert adversary",
       [](RunOptions& o) { o.adversary.seed = 0xFEED; }},
      // Folded away at engine build: no churn scan, bitmap or factory.
      {"churn_off_overhead", "all-no-op churn schedule",
       [](RunOptions& o) { o.adversary.crashes = {{1, 3, 3}, {5, 7, 7}}; }},
      // Gauges sample at a sequential point; counters fold lane totals.
      {"metrics_off_overhead", "engine metrics",
       [](RunOptions& o) { o.metrics.enabled = true; }},
  };
  for (const OffPathRow& row : off_path_rows) {
    if (!enabled(row.workload)) continue;
    for (std::size_t n :
         capped(quick ? std::initializer_list<std::size_t>{48}
                      : std::initializer_list<std::size_t>{512})) {
      const Graph g = make_complete(n);
      RunOptions opt;
      opt.seed = seed;
      opt.congest = CongestMode::Off;
      opt.threads = threads;
      opt.parallel_cutoff = parallel_cutoff;
      const auto plain_runs = measure(row.workload, g, make_flood_max(), opt);
      row.arm(opt);
      const auto armed_runs = measure(row.workload, g, make_flood_max(), opt);
      if (!plain_runs || !armed_runs) return 1;
      const Measured& plain = *plain_runs;
      const Measured& armed = *armed_runs;
      std::string bad = divergence(plain, armed);
      if (plain.run.metrics ||
          armed.run.metrics.has_value() != opt.metrics.enabled)
        bad += " metrics";
      if (!bad.empty()) {
        std::fprintf(stderr,
                     "ZERO-OVERHEAD BREAK: %s diverges from the plain run on "
                     "clique_flood_max n=%zu:%s\n",
                     row.layer, n, bad.c_str());
        return 1;
      }
      const double ratio =
          plain.wall_ms > 0 ? armed.wall_ms / plain.wall_ms : 1.0;
      report.add_row()
          .set("workload", row.workload)
          .set("family", "clique")
          .set("n", static_cast<std::uint64_t>(n))
          .set("seed", seed)
          .set("threads", static_cast<std::uint64_t>(threads))
          .set("wall_ms", armed.wall_ms)
          .set("wall_min_ms", armed.wall_min_ms)
          .set("wall_max_ms", armed.wall_max_ms)
          .set("plain_wall_ms", plain.wall_ms)
          .set("wall_ratio", ratio)
          .set("minor_faults", armed.minor_faults)
          .set("counters_identical", true);
      std::printf("%-18s %-9s n=%-8zu t=%-2u %10.2f ms  vs plain %.2f ms  "
                  "ratio %.3f (counters identical)\n",
                  row.workload, "clique", n, threads, armed.wall_ms,
                  plain.wall_ms, ratio);
    }
  }

  // --- ring_quiescent ---
  const Round spin = 1'000;
  if (enabled("ring_quiescent"))
    for (std::size_t n :
         capped(quick ? std::initializer_list<std::size_t>{1'000}
                      : std::initializer_list<std::size_t>{10'000, 100'000,
                                                           1'000'000})) {
      const auto runs = repeated(reps, "ring_quiescent", n, [&] {
        return run_quiescent(n, spin, threads, parallel_cutoff);
      });
      if (!runs) return 1;
      const Measured& mr = *runs;
      report_row(report, "ring_quiescent", "ring", n, seed, mr, threads);
      // Per-round scheduler cost, setup-free: a run's wall time includes
      // one-time O(n) work (wake-heap seeding, the final status tally), so
      // take the difference quotient of a long and a short spin — with a
      // window long enough to dominate setup noise, best of three.  This is
      // the number that must be independent of n.
      const Round window = 1'000'000;
      double best_short = mr.wall_min_ms, best_long = 1e300;
      for (int rep = 0; rep < 3; ++rep) {
        best_short =
            std::min(best_short, run_quiescent(n, spin, threads, parallel_cutoff).wall_ms);
        best_long = std::min(best_long,
                             run_quiescent(n, spin + window, threads, parallel_cutoff).wall_ms);
      }
      const double per_round_ns =
          (best_long - best_short) * 1e6 / static_cast<double>(window);
      report.add_row()
          .set("workload", "ring_quiescent_perround")
          .set("family", "ring")
          .set("n", static_cast<std::uint64_t>(n))
          .set("seed", seed)
          .set("threads", static_cast<std::uint64_t>(threads))
          .set("per_round_ns", per_round_ns);
      std::printf("%-18s %-9s n=%-8zu %10.1f ns/round\n",
                  "quiescent_perround", "ring", n, per_round_ns);
    }

  // Every workload has asked enabled() by now.  A filter that named none
  // measured nothing, and an empty document must not pass.
  if (!matched) {
    std::fprintf(stderr, "--only %s matches no workload\n", only.c_str());
    return 2;
  }

  // --- --metrics-out: one standalone engine_metrics snapshot ---
  // A fixed adversarial reliable flood-max run exercising every counter
  // family (engine.*, adversary.*, arq.*).  The snapshot is a pure function
  // of the seed, so nightly CI can append it to the committed telemetry
  // trajectory and any drift is a real behavior change.
  if (!metrics_out.empty()) {
    const std::size_t n = quick ? 24 : 96;
    const Graph g = make_complete(n);
    RunOptions opt;
    opt.seed = seed;
    opt.congest = CongestMode::Off;
    opt.threads = threads;
    opt.parallel_cutoff = parallel_cutoff;
    opt.metrics.enabled = true;
    opt.adversary.seed = 0xBEEF;
    opt.adversary.drop = 0.10;
    opt.adversary.duplicate = 0.05;
    ReliableConfig rcfg;
    const Measured mr =
        run_election_timed(g, make_reliable(make_flood_max(), rcfg), opt);
    if (!mr.run.metrics || !mr.unique_leader) {
      std::fprintf(stderr, "metrics snapshot run failed (n=%zu)\n", n);
      return 1;
    }
    const std::string doc = metrics_json(*mr.run.metrics);
    std::string err;
    if (!validate_metrics_json(doc, &err)) {
      std::fprintf(stderr, "metrics snapshot fails its own schema: %s\n",
                   err.c_str());
      return 1;
    }
    try {
      json::write_text_file(metrics_out, doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s (engine_metrics snapshot, n=%zu)\n",
                metrics_out.c_str(), n);
  }

  try {
    report.write(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::printf("\nwrote %s\n", out.c_str());
  return 0;
}
