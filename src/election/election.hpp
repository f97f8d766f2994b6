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

/// One election run's configuration: the engine's own (seed, max_rounds,
/// congest, threads, adversary, metrics, ...) plus what the engine does not
/// own.  Unlike a bare EngineConfig, CONGEST defaults to Count.
struct RunOptions : EngineConfig {
  RunOptions() { congest = CongestMode::Count; }

  IdScheme ids = IdScheme::RandomFromZ;
  bool anonymous = false;
  Knowledge knowledge;  ///< what every node is told (n / m / D)
  std::optional<std::vector<Round>> wakeup;  ///< default: simultaneous
  /// Reliable-transport knobs consumed by the `*_reliable` registry
  /// variants' prepare() (ignored by plain protocols).  rto == 0 = auto.
  ReliableConfig reliable;
};

struct ElectionReport {
  RunResult run;
  ElectionVerdict verdict;
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
