// Distributed Baswana–Sen (2k-1)-spanner construction [6] — the
// sparsification substrate behind Corollary 4.2.
//
// Unweighted version, k clustering levels.  Level 0: every node is a
// singleton cluster.  In phase i = 1..k-1 each surviving cluster is sampled
// with probability n^{-1/k}; the sampled-bit floods through the cluster
// (radius <= i-1), every clustered node announces (cluster, sampled-bit,
// depth) to its neighbours, and then each node of an unsampled cluster
// either joins an adjacent sampled cluster through one edge (added to the
// spanner) or, if none is adjacent, adds one edge per adjacent cluster and
// leaves the clustering.  The final phase adds one edge per adjacent cluster
// for every still-clustered node.
//
// Everything runs on a fixed round schedule computable from k alone, so all
// nodes finish at the same round (finish_round()) — which is what lets
// Corollary 4.2 start the election on the spanner synchronously.
//
// Expected spanner size O(k n^{1+1/k}) and stretch <= 2k-1; both are
// verified empirically by the test suite.  Runs in O(k^2) rounds with
// O(k m) messages, matching [6] as cited by the paper.
//
// Wire format: the state announcement bit-packs depth and phase into one
// FlatMsg payload word and carries the sampled bit in the flag byte.

#pragma once

#include <cstdint>
#include <vector>

#include "election/election.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"

namespace ule {

struct SpannerConfig {
  std::uint32_t k = 2;  ///< spanner parameter (stretch 2k-1)
};

/// The round by which every node knows its final spanner ports.
Round spanner_finish_round(std::uint32_t k);

class BaswanaSenProcess : public Process {
 public:
  explicit BaswanaSenProcess(SpannerConfig cfg) : cfg_(cfg) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  /// Ports whose edges belong to the spanner (final after finish_round()).
  const std::vector<PortId>& spanner_ports() const { return spanner_ports_; }
  bool spanner_done() const { return done_; }

 protected:
  /// Hook for subclasses (Corollary 4.2 starts the election here).  Called
  /// exactly once, in the finish round.  Send through outbox_; do NOT call
  /// scheduling verbs (idle/sleep/halt) — the base class arbitrates
  /// scheduling so queued messages are never stranded on a sleeping node.
  virtual void on_spanner_complete(Context& ctx) { (void)ctx; }

  /// Called every round after the spanner is complete; subclasses implement
  /// whatever runs on top of the spanner.  Same contract as
  /// on_spanner_complete: queue sends on outbox_, no scheduling verbs.
  virtual void app_round(Context& ctx, std::span<const Envelope> inbox) {
    (void)ctx;
    (void)inbox;
  }

  /// Shared CONGEST pacing queue: one message per port per round, flushed by
  /// the base class at the end of every round.
  PortOutbox outbox_;

 private:
  void spanner_round(Context& ctx, std::span<const Envelope> inbox);
  void begin_window(Context& ctx, std::uint32_t phase);
  void decide(Context& ctx, std::uint32_t phase);
  void add_spanner_port(Context& ctx, PortId p, bool notify);
  Round window_start(std::uint32_t phase) const;
  /// One arriving cluster-state announcement, either wire representation.
  void handle_state(Context& ctx, PortId port, std::uint64_t center,
                    bool sampled, std::uint32_t depth, std::uint32_t phase);
  /// Broadcast our (center, sampled, depth) for `phase` on the configured
  /// wire format, through the paced outbox.
  void queue_state_broadcast(Context& ctx, std::uint32_t phase);

  SpannerConfig cfg_;
  std::uint64_t token_ = 0;
  std::uint32_t phase_ = 1;

  // Clustering state.
  bool clustered_ = true;
  std::uint64_t center_ = 0;   ///< our cluster's center token
  std::uint32_t depth_ = 0;    ///< hop distance to the center
  PortId parent_ = kNoPort;

  // Per-phase scratch.
  bool have_bit_ = false;      ///< own cluster's sampled bit known
  bool sampled_ = false;
  struct NbrState {
    bool clustered = false;
    std::uint64_t center = 0;
    bool sampled = false;
    std::uint32_t depth = 0;
  };
  std::vector<NbrState> nbr_;
  std::vector<bool> in_spanner_;
  std::vector<PortId> spanner_ports_;
  bool done_ = false;
};

ProcessFactory make_baswana_sen(SpannerConfig cfg);

}  // namespace ule
