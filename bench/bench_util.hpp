// Shared helpers for the experiment harnesses in bench/.
//
// Every bench binary regenerates one row-group of the paper's Table 1 (or
// one lower-bound construction) as a *measured* table: a sweep over graph
// sizes, the measured time/messages, and the ratio against the paper's
// claimed bound.  Ratios that stay flat across the sweep confirm the shape
// of the claim; the absolute constant is implementation-specific and
// reported as-is.

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/graph.hpp"

namespace ule::bench {

// ---------------------------------------------------------------------------
// Wall-clock timing.  Machine-readable output (the BENCH_*.json baselines)
// goes through json::JsonReport (src/json/bench_doc.hpp).
// ---------------------------------------------------------------------------

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double elapsed_ms() const {
    const auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void header(const std::string& title, const std::string& claim) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
}

inline void row_divider(int width = 100) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

struct Stats {
  double mean_messages = 0;
  double mean_rounds = 0;
  double success_rate = 0;
  std::size_t trials = 0;
};

/// Average an election over `trials` seeds.
inline Stats measure(const Graph& g, const ProcessFactory& factory,
                     RunOptions base, std::size_t trials) {
  Stats st;
  st.trials = trials;
  double msgs = 0, rounds = 0, ok = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    RunOptions opt = base;
    opt.seed = base.seed + 7919 * t + 13;
    const ElectionReport rep = run_election(g, factory, opt);
    msgs += static_cast<double>(rep.run.messages);
    rounds += static_cast<double>(rep.run.rounds);
    ok += rep.verdict.unique_leader ? 1.0 : 0.0;
  }
  st.mean_messages = msgs / static_cast<double>(trials);
  st.mean_rounds = rounds / static_cast<double>(trials);
  st.success_rate = ok / static_cast<double>(trials);
  return st;
}

}  // namespace ule::bench
