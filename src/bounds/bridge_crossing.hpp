// Bridge crossing (BC) — the intermediate problem of the Theorem 3.1 proof,
// made operational.
//
// An algorithm achieves BC on a dumbbell graph when a message crosses one of
// the two bridge edges.  Each run is recorded (net/recorder.hpp), and
// first_crossing reads the first crossing round and the number of messages
// sent strictly before it off the recorded execution order; averaging those
// counts over a class C(G', G'') — i.e. over choices of the opened clique
// edges e', e'' — is exactly the quantity Lemma 3.5 lower-bounds by Ω(m).
//
// Limitation: under the default simultaneous wakeup, a protocol that floods
// on waking crosses a bridge in round 0, and the count is then the first
// bridge sender's position in round 0's send order (ascending slot order),
// not a property of the protocol — least_el_all and kingdom measure the
// same on such classes.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "election/election.hpp"
#include "graphgen/dumbbell.hpp"

namespace ule {

struct BridgeCrossingRun {
  std::size_t open_left = 0;
  std::size_t open_right = 0;
  Round first_cross = kRoundForever;
  std::uint64_t messages_before_cross = 0;
  std::uint64_t messages_total = 0;
  Round rounds_total = 0;
  bool unique_leader = false;
};

struct BridgeCrossingSummary {
  std::vector<BridgeCrossingRun> runs;
  double mean_messages_before_cross = 0.0;
  double mean_messages_total = 0.0;
  double crossing_fraction = 0.0;  ///< fraction of runs where BC happened
  std::size_t side_m = 0;          ///< edges per dumbbell side (Θ(m))
  std::size_t kappa = 0;
};

/// The first traversal of any edge in `edges` in a recorded run.
struct FirstCrossing {
  Round round = kRoundForever;        ///< round of the first traversal
  std::uint64_t messages_before = 0;  ///< sends strictly before it
};

/// Visit `eng`'s events up to the first Send over one of `edges`.  The run's
/// processes must have been built with recording() (net/recorder.hpp).
FirstCrossing first_crossing(const SyncEngine& eng,
                             std::span<const EdgeId> edges);

/// Run `factory` on `samples` dumbbell graphs with per-side n nodes and
/// ~m edges, sampling (e', e'') uniformly, and aggregate BC statistics.
/// Knowledge of n', m', D is granted (the lower bound's hardest case).
BridgeCrossingSummary run_bridge_crossing(std::size_t n, std::size_t m,
                                          const ProcessFactory& factory,
                                          std::size_t samples,
                                          std::uint64_t seed);

}  // namespace ule
