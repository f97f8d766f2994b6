// Sweep campaigns: the Complexity Lab's unit of work.
//
// A campaign runs every declared growth curve — a (protocol, family, axis)
// triple from the scenario registries whose ProtocolInfo carries
// GrowthExpectations — over an ascending ladder with several seed replicates
// per rung, then fits the log-log slope of each declared cost metric against
// the declared axis (lab/fit.hpp) and checks it against the
// registry-declared exponent band.  It is the quantitative counterpart of
// the conformance fuzzer: the fuzzer asks "does every run obey its
// envelope?", the lab asks "does cost *grow* at the rate the paper claims?".
//
// Three ladder axes, because the repo's fitted claims live on three axes:
//
//   axis "n"         the family's shape is fixed and the node count grows
//                    (ladder_params); fits run against the ACTUAL instance
//                    size.  This is where the message bounds (Θ(m),
//                    O(m log n), the KPPRT sublinear clique bound) live.
//   axis "diameter"  the total size stays ~nominal_n and the diameter grows
//                    (FamilyInfo::diameter_ladder, e.g. cliquepath /
//                    barbell / cliquecycle); fits run against the exact
//                    BFS-measured diameter.  This is where the O(D)-time
//                    claims live — an n-ladder alone conflates the two axes,
//                    since D usually grows with n.
//   axis "loss"      the instance is FIXED (~loss_n nodes) and the seeded
//                    adversary's drop probability grows along a permille
//                    ladder; fits run against x = 1000/(1000 - drop_pm) =
//                    1/(1 - p), the expected transmissions per delivered
//                    frame.  This is where the reliable-transport layer's
//                    retransmit overhead claims (cost ≈ base · O(1/(1-p)))
//                    live — only `*_reliable` protocols declare it.
//
// Execution is replicate-parallel on the PR-2 WorkerPool: every replicate is
// one independent engine run (engine threads = 1), workers claim runs off a
// shared counter, and results land in slots preassigned by run index — so
// aggregation order, and with it every counter-derived statistic and fitted
// exponent, is a pure function of (registries, CampaignConfig.master_seed).
// Only wall-clock statistics are machine-dependent; serializing with
// include_wall = false (lab/report.hpp) yields byte-identical rows across
// reruns and worker counts, which tests/lab/campaign_test.cpp pins.
//
// Replicate seeds are domain-separated from the master seed by (protocol,
// family, axis, rung, replicate) via splitmix64, the same discipline the
// scenario runner uses to split graph/wakeup/run streams.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "lab/fit.hpp"
#include "net/metrics.hpp"
#include "scenario/registry.hpp"

namespace ule::lab {

struct CampaignConfig {
  std::uint64_t master_seed = 0x1AB5EEDULL;
  /// Seed replicates per (protocol, family, n) cell.
  std::size_t replicates = 5;
  /// WorkerPool size for replicate-level parallelism (0 = hardware
  /// concurrency).  Never affects any counter statistic or fit.
  unsigned threads = 0;
  /// Small ladders for the CI smoke (seconds instead of minutes).
  bool quick = false;
  /// Restrict to these protocol / family registry keys (empty = no filter).
  std::vector<std::string> protocols;
  std::vector<std::string> families;
  /// Override the n-ladder for every n-axis curve (empty = per-family
  /// default).  Values outside a family's declared size range are dropped
  /// per curve.
  std::vector<std::uint64_t> ladder;
  /// Override the D-ladder for every diameter-axis curve (empty = default).
  /// Rungs outside a family convention's [min_d, max_d] are dropped.
  std::vector<std::uint64_t> d_ladder;
  /// Override the drop_pm ladder for every loss-axis curve (empty =
  /// default).  Values must stay below 700: beyond that the give-up bound
  /// (ReliableConfig::max_retries) stops being astronomically safe.
  std::vector<std::uint64_t> loss_ladder;
  /// Fixed nominal instance size for diameter-axis curves (0 = default:
  /// 96 quick / 256 full).
  std::uint64_t nominal_n = 0;
  /// Fixed instance size for loss-axis curves (0 = default: 48 quick /
  /// 96 full — smaller than nominal_n, since per-run rounds stretch by the
  /// ARQ latency at the ladder's top rung).
  std::uint64_t loss_n = 0;
  /// Collect an engine metrics snapshot (net/metrics.hpp) from replicate 0
  /// of every cell and carry it on CellResult — the per-cell telemetry the
  /// JSON report flattens into its rows.  Off by default: the committed
  /// quick-campaign baselines are metrics-free, and the trend gate compares
  /// only fields present in both documents.
  bool metrics = false;
};

/// Order statistics over one cell's replicate counters.  Median is the lower
/// median, p95 the ceil(0.95·k)-th order statistic — both exact integers, so
/// rows serialize identically on every machine.
struct MetricStats {
  std::uint64_t median = 0;
  std::uint64_t p95 = 0;
  std::uint64_t max = 0;
};

struct WallStats {
  double median_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
};

/// One (protocol, family, n) cell: `replicates` independent runs.
struct CellResult {
  /// ACTUAL instance node count (ladder_params may round the nominal rung:
  /// grid squares, regular parity, hypercube powers of two); fits use this.
  std::uint64_t n = 0;
  std::uint64_t m = 0;         ///< edges of the replicate-0 instance
  std::uint32_t diameter = 0;  ///< exact diameter of the replicate-0 instance
  /// Loss axis only: the rung's drop probability in permille (0 elsewhere,
  /// and for the loss ladder's own fault-free baseline rung).
  std::uint64_t drop_pm = 0;
  std::size_t replicates = 0;
  MetricStats rounds, messages, bits;
  /// Wall clock of the full scenario run (graph build + exact diameter +
  /// engine); machine-specific, excluded from determinism comparisons.
  WallStats wall;
  /// Conformance violations across replicates, prefixed with the seed.
  std::vector<std::string> violations;
  /// Replicate-0 engine telemetry (CampaignConfig::metrics only).  A pure
  /// function of the replicate seed, like every other counter here.
  bool has_metrics = false;
  MetricsSnapshot metrics;
};

struct FitOutcome {
  GrowthExpectation expect;
  PowerFit fit;
  bool pass = false;
  /// A fit that could not run because the ladder collapsed to a single
  /// distinct x value (e.g. grid rounding folding adjacent quick rungs onto
  /// the same square).  Skipped fits are reported with `reason` instead of
  /// an exponent and never count as failures — a degenerate ladder is a
  /// configuration note, not evidence about growth.
  bool skipped = false;
  std::string reason;
};

/// One declared curve: a (protocol, family, axis) ladder plus its fitted
/// exponents.  The same (protocol, family) pair may appear once per axis —
/// the ladders sweep different instances.
struct CurveResult {
  std::string protocol;
  std::string family;
  std::string axis;               ///< "n" | "diameter" | "loss"
  std::vector<CellResult> cells;  ///< ascending along the axis
  std::vector<FitOutcome> fits;   ///< one per declared GrowthExpectation
};

struct CampaignResult {
  std::uint64_t master_seed = 0;
  std::size_t replicates = 0;
  std::size_t total_runs = 0;
  std::vector<CurveResult> curves;

  std::size_t failed_fits() const;
  std::size_t violation_count() const;
  bool ok() const { return failed_fits() == 0 && violation_count() == 0; }
};

/// Family parameters targeting ~n total nodes (single-`n` families directly;
/// gnm m = min(3n, full), tree arity 2, regular d = 4, grid/torus ~square,
/// bipartite balanced, hypercube dim = round(log2 n)).  Throws
/// std::invalid_argument for families with no n-ladder convention
/// (dumbbell, cliquecycle, lollipop, barbell).
ScenarioParams ladder_params(const FamilyInfo& fam, std::uint64_t n);

/// Default n-ladder for a family, clamped to its declared size range.
/// Complete families get a shorter, denser ladder (instances are Θ(n²)).
std::vector<std::uint64_t> default_ladder(const FamilyInfo& fam, bool quick);

/// Default fixed nominal size for diameter-axis curves (96 quick, 256 full).
std::uint64_t default_nominal_n(bool quick);

/// Default fixed instance size for loss-axis curves (48 quick, 96 full).
std::uint64_t default_loss_n(bool quick);

/// Default drop_pm ladder for loss-axis curves.  Starts at 0 (the fault-free
/// baseline anchors the fit's intercept) and tops out at 600‰, where a
/// retransmit burst gives up with probability (1-(1-0.6)²)^(max_retries+1)
/// ≈ 7e-10 — the ladder measures retransmit cost, never link death.
std::vector<std::uint64_t> default_loss_ladder(bool quick);

/// Default D-ladder for a family with a diameter-ladder convention, clamped
/// to the convention's [min_d, max_d] and to nominal_n / 2 (so the per-rung
/// clique blobs never degenerate).  Throws std::invalid_argument when the
/// family declares no convention.
std::vector<std::uint64_t> default_diameter_ladder(const FamilyInfo& fam,
                                                   bool quick,
                                                   std::uint64_t nominal_n);

/// The replicate seed for (master, protocol, family, axis, rung, replicate).
/// The axis participates in the domain separation so an n-axis and a
/// diameter-axis curve of the same pair never share coins.
std::uint64_t replicate_seed(std::uint64_t master, const std::string& protocol,
                             const std::string& family,
                             const std::string& axis, std::uint64_t rung,
                             std::size_t replicate);

/// Run the campaign.  `log`, when non-null, receives one line per finished
/// curve (fitted exponents and pass/fail verdicts).
CampaignResult run_campaign(const ProtocolRegistry& protocols,
                            const FamilyRegistry& families,
                            const CampaignConfig& cfg,
                            std::ostream* log = nullptr);

}  // namespace ule::lab
