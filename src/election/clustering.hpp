// Algorithm 1 / Theorem 4.7: the randomized clustering algorithm.
// With high probability: O(D log n) rounds and O(m + n log n) messages.
//
// Phase 1 (cluster construction, O(m) messages): each node becomes a
// candidate with probability 8 ln(n)/n; candidates grow BFS trees ("join"
// floods); every node joins the first cluster to reach it.  Every directed
// edge carries exactly one message — a JOIN announcement or a CHILD_ACK —
// so each node learns the cluster of every neighbour.
//
// Phase 2 (inter-cluster sparsification, O(n log n) messages): each cluster
// convergecasts its inter-cluster edge list up its BFS tree, keeping only
// one representative edge per adjacent cluster at every merge (the
// lexicographically smallest edge name — a deterministic rule, so the two
// clusters adjacent to an edge independently select the SAME representative,
// making the sparsified overlay symmetric without extra coordination).  The
// root broadcasts the final O(log^2 n)-entry inter-cluster graph back down,
// one O(log n)-bit entry per message per edge per round (the paper's
// "this might take multiple rounds" — honest CONGEST fragmentation).
//
// Phase 3 (election, O(n log n) messages): the least-element-list election
// of Theorem 4.4 with f(n) = n runs on the overlay = BFS-tree edges plus
// selected inter-cluster edges.  Election messages arriving before a node
// finished Phase 2 are buffered, which preserves the PIF safety argument
// (a node echoes only after it has originated).
//
// Works in anonymous networks: cluster and node names are 64-bit private
// random tokens (unique IDs are used when available).

#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "election/channels.hpp"
#include "election/election.hpp"
#include "election/pif.hpp"
#include "net/process.hpp"

namespace ule {

struct ClusteringConfig {
  /// Candidate probability numerator: prob = candidate_factor * ln(n) / n.
  /// The paper uses 8; lowering it is the failure/cluster-count ablation.
  double candidate_factor = 8.0;
  /// Election rank domain (0 = auto n^4).
  std::uint64_t rank_space = 0;
};

class ClusteringProcess final : public Process {
 public:
  explicit ClusteringProcess(ClusteringConfig cfg) : cfg_(cfg) {
    elect_.pace_through(&outbox_);
  }

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  // Instrumentation.
  bool is_candidate() const { return candidate_; }
  std::uint64_t cluster() const { return cluster_; }
  std::size_t final_intergraph_size() const { return down_entries_.size(); }

 private:
  /// A surviving inter-cluster edge: its name and the foreign cluster.
  struct Entry {
    std::uint64_t edge_a = 0;  ///< min endpoint token
    std::uint64_t edge_b = 0;  ///< max endpoint token
    std::uint64_t foreign = 0; ///< the cluster on the other side
  };

  void join_cluster(Context& ctx, std::uint64_t cluster, PortId parent,
                    std::uint64_t parent_token);
  void note_neighbor(Context& ctx, PortId port, std::uint64_t node_token,
                     std::uint64_t cluster_token);
  void try_send_up(Context& ctx);
  void pump_uplink(Context& ctx);
  void pump_downlink(Context& ctx);
  void maybe_begin_phase3(Context& ctx);
  void run_election_round(Context& ctx, std::span<const Envelope> inbox);

  ClusteringConfig cfg_;

  /// All phases share one paced outbox (CONGEST: one message per port per
  /// round) — phase transitions overlap in a round (e.g. forwarding the
  /// final DOWN-DONE and originating the phase-3 flood), so pacing must see
  /// every send.
  PortOutbox outbox_;

  // Identity.
  std::uint64_t token_ = 0;     ///< node name (uid or random)
  bool candidate_ = false;
  std::uint64_t cluster_ = 0;   ///< 0 = not joined yet
  PortId parent_ = kNoPort;

  // Per-port neighbour info.
  std::vector<std::uint64_t> nbr_token_;
  std::vector<std::uint64_t> nbr_cluster_;
  std::vector<bool> port_heard_;
  std::size_t ports_heard_ = 0;
  std::vector<PortId> children_;
  std::size_t children_done_ = 0;

  // Phase 2 state.
  std::map<std::uint64_t, Entry> merged_;  ///< foreign cluster -> min edge
  bool up_started_ = false;
  bool up_done_sent_ = false;
  std::vector<Entry> up_queue_;
  std::size_t up_sent_ = 0;
  bool down_complete_ = false;
  std::vector<Entry> down_entries_;
  std::size_t down_forwarded_ = 0;
  bool down_done_forwarded_ = false;

  // Phase 3 state.
  bool phase3_ = false;
  WavePool elect_{channel::kLeastEl, /*max_wins=*/false};
  std::vector<Envelope> buffered_;
  bool decided_ = false;
};

ProcessFactory make_clustering(ClusteringConfig cfg = {});

}  // namespace ule
