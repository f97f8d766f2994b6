// Common harness-facing API for leader election runs.
//
// The library never hides the engine — these helpers just bundle the
// boilerplate every experiment repeats: assign IDs, grant knowledge, run,
// and judge the outcome against the paper's success criterion ("exactly one
// node has status elected while all other nodes are in state non-elected",
// Section 2).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "net/ids.hpp"
#include "net/knowledge.hpp"
#include "net/process.hpp"
#include "net/reliable.hpp"

namespace ule {

struct ElectionVerdict {
  bool unique_leader = false;   ///< exactly 1 elected, rest non-elected
  std::size_t elected = 0;
  std::size_t non_elected = 0;
  std::size_t undecided = 0;
  NodeId leader_slot = kNoNode; ///< set iff unique_leader
};

/// Judge a finished engine run.
ElectionVerdict judge_election(const SyncEngine& eng);

using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;

struct RunOptions {
  std::uint64_t seed = 1;
  IdScheme ids = IdScheme::RandomFromZ;
  bool anonymous = false;
  Knowledge knowledge;  ///< what every node is told (n / m / D)
  std::optional<std::vector<Round>> wakeup;  ///< default: simultaneous
  Round max_rounds = 50'000'000;
  CongestMode congest = CongestMode::Count;
  std::vector<EdgeId> watch_edges;
  /// Worker threads for round execution (EngineConfig::threads): 1 =
  /// sequential, 0 = hardware concurrency.  Outcomes are identical at every
  /// setting; only wall-clock changes.
  unsigned threads = 1;
  /// Override the engine's sequential-fallback cutoff (0 = engine default).
  /// Mainly for tests that force tiny rounds onto the parallel path.
  std::size_t parallel_cutoff = 0;
  /// Seeded delivery/fault adversary (net/adversary.hpp).  Default = off.
  AdversaryConfig adversary;
  /// Override the engine's CONGEST bit budget (0 = engine default).  The
  /// reliable registry variants raise it by kReliableHeaderBits — the ARQ
  /// header is link-layer cost, not algorithm payload.
  std::uint32_t congest_bits = 0;
  /// Reliable-transport knobs consumed by the `*_reliable` registry
  /// variants' prepare() (ignored by plain protocols).  rto == 0 = auto.
  ReliableConfig reliable;
  /// Engine telemetry (net/metrics.hpp).  Default = off; when on,
  /// ElectionReport::run.metrics carries the deterministic snapshot.
  MetricsConfig metrics;
};

struct ElectionReport {
  RunResult run;
  ElectionVerdict verdict;
  std::vector<WatchReport> watches;
  std::vector<Uid> uids;  ///< the assignment used (empty when anonymous)
  std::vector<Status> statuses;            ///< per-node final status
  std::vector<std::uint64_t> sent_by_node; ///< per-node send counts
};

/// Build an engine for `g`, populate processes from `factory`, run to
/// quiescence, and judge.  `inspect`, when set, is called on the finished
/// engine before it is torn down — the hook for checks that need process
/// state (e.g. the scenario runner reading ExplicitProcess::known_leader()).
ElectionReport run_election(
    const Graph& g, const ProcessFactory& factory, const RunOptions& opt,
    const std::function<void(const SyncEngine&)>& inspect = {});

}  // namespace ule
