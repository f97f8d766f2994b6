// Run one Scenario through the SyncEngine and judge it against the generic
// conformance invariants:
//
//   safety       at most one node ends Elected; under a Deterministic or
//                Las Vegas contract exactly one, with everyone else
//                NonElected.  Explicit overlays must additionally leave
//                every node knowing the SAME leader identity (the winner's
//                uid, or its announcement token when anonymous).
//   liveness     the run quiesces (completed), within the protocol's
//                registered round envelope, and within its message budget.
//   congest      zero CONGEST violations (one O(log n)-bit message per edge
//                direction per round), counted by the engine.
//   determinism  when scenario.threads > 1, a rerun on that worker count
//                (with the sequential cutoff forced to 1, so every round
//                takes the sharded path) must match the threads=1 run on
//                every for_each_counter counter (net/engine.hpp), the
//                undecided and dead-link node samples, every node status,
//                every per-node send count and the metrics snapshot — the
//                engine's thread-count guarantee extended to the whole space.
//
// Under an adversarial scenario (token `a=` / `f=` segments) the judgment
// splits along the registry's declarations: safety (at most one leader,
// leader-id agreement) is enforced under EVERY adversary the protocol
// declares itself safe against, while liveness, budget, full-coverage and
// congest checks apply only when termination is actually promised — a
// loss- and forgery-free adversary (delay / reorder, or none at all) against
// any protocol, or loss up to 600‰ and bounded churn against a protocol
// behind the reliable transport (ProtocolInfo::reliable_transport).  Round
// and message envelopes stretch under the adversary (x(max_delay + 2) and
// x2).
//
// A scenario that names unknown registry entries or violates a protocol's
// prerequisites (knowledge grant too weak, adversarial wakeup on a
// wakeup-intolerant protocol, non-complete family for a complete-only
// protocol, params out of range, an adversary class outside the protocol's
// safe_under mask) throws std::invalid_argument: that is a configuration
// error, not a conformance violation.

#pragma once

#include <string>
#include <vector>

#include "net/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"

namespace ule {

struct ScenarioRunConfig {
  /// Rerun at scenario.threads (when > 1) and diff against the threads=1 run.
  bool check_determinism = true;
  /// Engine telemetry (net/metrics.hpp).  When enabled the reference run's
  /// report.run.metrics carries the snapshot, and the determinism cross-check
  /// additionally diffs the two runs' snapshots byte for byte.
  MetricsConfig metrics;
};

struct ScenarioOutcome {
  Scenario scenario;
  ScenarioShape shape;
  ElectionReport report;                ///< the threads=1 reference run
  std::vector<std::string> violations;  ///< empty = conformant

  bool ok() const { return violations.empty(); }
};

/// Build the scenario's graph (replayable: depends only on family params and
/// scenario.seed).  Throws std::invalid_argument on bad family / params.
Graph build_scenario_graph(const FamilyRegistry& families, const Scenario& s);

/// The wakeup schedule of `s` for an n-node graph (empty = simultaneous).
std::vector<Round> scenario_wakeup(const Scenario& s, std::size_t n);

ScenarioOutcome run_scenario(const ProtocolRegistry& protocols,
                             const FamilyRegistry& families, const Scenario& s,
                             const ScenarioRunConfig& cfg = {});

}  // namespace ule
