// Broadcast (Section 3.2 / Corollary 3.12).
//
// A single source must convey a message to all nodes (broadcast) or to more
// than n/2 nodes (majority broadcast).  The lower-bound claim: any algorithm
// succeeding with probability >= 1-β (β <= 3/8) spends Ω(m) messages on some
// dumbbell graph — because broadcasting across the dumbbell requires bridge
// crossing, the same reduction as for leader election.
//
// The implementation is flooding-with-echo (a single PIF wave): each node
// forwards the payload once on every other port and echoes; the source
// detects completion.  The per-node informed round is exposed so the harness
// can measure "messages until a majority is informed" by counting the sends
// of earlier rounds in the recorded run (net/recorder.hpp).

#pragma once

#include "election/channels.hpp"
#include "election/election.hpp"
#include "election/pif.hpp"
#include "net/process.hpp"

namespace ule {

class FloodBroadcastProcess final : public Process {
 public:
  explicit FloodBroadcastProcess(bool is_source) : is_source_(is_source) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  bool informed() const { return informed_round_ != kRoundForever; }
  Round informed_round() const { return informed_round_; }
  /// Source only: the round its echo-completion arrived.
  Round complete_round() const { return complete_round_; }

 private:
  void finish(Context& ctx);

  bool is_source_;
  WavePool pool_{channel::kBroadcast, /*max_wins=*/true};
  Round informed_round_ = kRoundForever;
  Round complete_round_ = kRoundForever;
};

/// Factory: `source` is the slot that originates the broadcast.
ProcessFactory make_flood_broadcast(NodeId source);

/// Harness summary of one broadcast run.
struct BroadcastReport {
  std::uint64_t messages_total = 0;
  std::uint64_t messages_majority = 0;  ///< msgs until > n/2 nodes informed
  Round rounds_total = 0;
  Round round_majority = kRoundForever;
  bool all_informed = false;
};

/// The messages sent in rounds < r: the Send events with round < r of a run
/// whose processes were built with recording() (net/recorder.hpp).
std::uint64_t sends_before(const SyncEngine& eng, Round r);

/// Run a broadcast from `source` on g and measure total + majority costs.
BroadcastReport run_broadcast(const Graph& g, NodeId source,
                              std::uint64_t seed);

}  // namespace ule
