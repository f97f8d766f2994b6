// The deterministic conformance fuzzer: draw thousands of Scenarios from one
// master seed, run each through the invariant checker, and shrink any
// failure to a minimal replayable token.
//
// Everything is a pure function of (registries, FuzzConfig): the draw
// sequence, every scenario's run, and the shrinking walk.  A failure report
// therefore always ends in a replay string that reproduces the bug with
// `fuzz_scenarios --replay <token>` (or Scenario::parse + run_scenario).
//
// Shrinking is greedy: from a failing scenario, candidate simplifications
// are tried in a fixed order — family parameter shrinks (halve / decrement,
// from the family registry), substituting the structurally simplest families
// (path, ring) at a small size, dropping or weakening the delivery/fault
// adversary (whole thing first, then one knob at a time, then halving the
// survivors), dropping the adversarial wakeup schedule, dropping the thread
// count, and reducing the knowledge grant to the protocol's minimum.  The
// first candidate that still fails is adopted and the walk restarts; the
// result is a local minimum — every further single-step simplification
// passes.  A failure that NEEDS the adversary therefore keeps its `a=` /
// `f=` token segments, pared down to the knobs that actually bite.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"

namespace ule {

struct FuzzConfig {
  std::uint64_t master_seed = 0xF00D5EEDULL;
  std::size_t count = 1000;
  /// Cap on a drawn instance's size parameter (families keep their total
  /// node count around this; dumbbell sides are halved, cliquecycle may
  /// round up to gamma * D').
  std::size_t max_n = 64;
  /// Fraction of scenarios drawn with threads > 1 (the determinism axis
  /// costs a second run).  In [0, 1].
  double threads_fraction = 0.25;
  /// Fraction of scenarios drawn with a delivery/fault adversary.  Drawn
  /// adversaries exercise only classes inside the protocol's safe_under
  /// mask, so every draw is a valid scenario (never a config error).
  double adversary_fraction = 0.25;
  /// Of the scenarios whose adversary draws a crash, the fraction whose
  /// schedule is upgraded to a bounded CHURN interval (crash before the
  /// node ever acked, rebirth within a bounded window).  Only protocols
  /// behind the reliable transport are upgraded — there the runner enforces
  /// termination through the rebirth; for everything else the draw stays
  /// crash-stop (late recovery can legitimately break a plain protocol's
  /// safety, which would be a false conformance finding).  In [0, 1].
  double churn_fraction = 0.25;
  /// Stop drawing after this many seconds (0 = no budget).  Checked between
  /// draws, so the first draw always runs.  Used by the nightly time-boxed
  /// job; the count still caps the total.
  double time_budget_sec = 0;
  /// Only draw protocols whose name contains this substring ("" = all).
  /// Lets CI aim a dedicated slice at e.g. the `*_reliable` fleet.
  std::string protocol_filter;
  bool shrink = true;
};

struct FuzzFailure {
  Scenario original;
  std::vector<std::string> original_violations;
  Scenario minimal;                        ///< == original when !cfg.shrink
  std::vector<std::string> minimal_violations;
  std::size_t shrink_steps = 0;
};

/// Per-protocol envelope headroom, for calibrating the registered bounds.
struct EnvelopeStat {
  std::string protocol;
  std::size_t runs = 0;
  double max_round_ratio = 0;    ///< max over runs of rounds / round_envelope
  double max_message_ratio = 0;  ///< max over runs of messages / msg_envelope
};

struct FuzzReport {
  std::size_t scenarios_run = 0;
  std::size_t runs_elected = 0;        ///< scenarios ending with a unique leader
  std::size_t monte_carlo_misses = 0;  ///< MC scenarios that elected nobody
  std::size_t determinism_checked = 0; ///< scenarios rerun at threads > 1
  std::size_t adversarial_runs = 0;    ///< scenarios drawn with an adversary
  bool time_budget_hit = false;
  std::vector<FuzzFailure> failures;
  std::vector<EnvelopeStat> envelope_stats;

  bool ok() const { return failures.empty(); }
};

/// Draw one valid scenario (protocol, compatible family, params, knowledge
/// >= the protocol's minimum, wakeup it tolerates, seed, threads, and — with
/// probability adversary_fraction — an adversary over a non-empty subset of
/// the protocol's declared-safe fault classes).
Scenario draw_scenario(Rng& rng, const ProtocolRegistry& protocols,
                       const FamilyRegistry& families, std::size_t max_n,
                       double threads_fraction, double adversary_fraction = 0,
                       const std::string& protocol_filter = "",
                       double churn_fraction = 0);

/// Greedily shrink a failing scenario (see file comment).  Returns the
/// minimal still-failing scenario; `steps`, when non-null, receives the
/// number of adopted simplifications.
Scenario shrink_scenario(const ProtocolRegistry& protocols,
                         const FamilyRegistry& families,
                         const Scenario& failing,
                         std::size_t* steps = nullptr);

/// Run the full fuzz loop.  `log`, when non-null, receives progress lines
/// and failure reports (with replay strings) as they happen.
FuzzReport run_fuzz(const ProtocolRegistry& protocols,
                    const FamilyRegistry& families, const FuzzConfig& cfg,
                    std::ostream* log = nullptr);

}  // namespace ule
