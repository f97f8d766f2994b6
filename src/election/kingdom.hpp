// Algorithm 2 / Theorem 4.10: the deterministic "growing kingdoms"
// algorithm — O(D log n) time and O(m log n) messages, with NO knowledge of
// n, m or D (unique IDs required, which is necessary for deterministic LE).
//
// Every node starts as a candidate.  A candidate in phase p grows a BFS
// kingdom of radius 2^{p-1} through a 4-stage election:
//   Stage 1  ELECT   — BFS growth; nodes join the strongest *claim*
//                      (phase, id), lexicographically, phase first.
//   Stage 2  ACK     — convergecast: subtree aggregates report the strongest
//                      foreign claim met at the borders, whether any node in
//                      the kingdom is itself a still-live candidate, and
//                      whether the BFS frontier is open (graph continues).
//   Stage 3  CONFIRM — the candidate's neighbourhood winner is broadcast
//                      down the tree AND across border edges (this is the
//                      paper's "double win": defeated kingdoms relay who
//                      beat them to their own neighbours).
//   Stage 4  VICTOR  — convergecast of the strongest winner heard (including
//                      foreign CONFIRMs that crossed in).  The candidate
//                      survives iff the result is its own claim.
//
// The paper's overrun/LATE-flag mechanics are realized with two rules:
//   * higher claims overrun: a node always joins a strictly stronger claim.
//     If it had not yet answered its old parent it sends a *defect* answer
//     (the paper's LATE flag), and from then on serves the old expedition as
//     a *zombie*: it still relays the CONFIRM wave to its subtree and still
//     fulfils any VICTOR it owes, so every pending convergecast terminates
//     (no election stage can deadlock — in particular a node overrun in the
//     window between its stage-2 ack and the CONFIRM keeps its obligations);
//   * a candidate declares leader only when its kingdom's aggregation came
//     back with (a) a closed frontier (the tree spans the graph: every edge
//     out of the tree leads back into it), (b) no foreign claim, and (c) no
//     node reporting itself a live candidate.  Two candidates can never both
//     satisfy this — each spanning tree contains the other candidate, which
//     would have reported itself live — so at most one leader is ever
//     declared, regardless of timing.
//
// Liveness: claims are totally ordered and only ever strengthen; the
// candidate holding the eventually-maximal claim never meets a stronger one,
// survives every phase, doubles its radius past D, and declares.
//
// Knowledge of D (paper, "Knowledge of D" paragraph): radius D from the
// start instead of doubling — same bounds, simpler schedule.  Configure with
// KingdomConfig::known_diameter.

#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "election/election.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"

namespace ule {

struct KingdomConfig {
  /// 0 = paper's doubling schedule (radius 2^{p-1} in phase p);
  /// otherwise every phase uses this fixed radius (the known-D variant).
  std::uint64_t known_diameter = 0;
  /// Upper bound on per-message delivery delay (the adversary's max_delay).
  /// The known-D radius becomes known_diameter * (1 + delay_bound) + 1:
  /// under delays the first-arrival BFS tree is no longer a shortest-path
  /// tree — a claim that detoured through slow edges can reach a node at
  /// tree depth up to D * (1 + delay_bound), and a fixed radius below that
  /// leaves the node budget-less with unexplored ports, reporting an open
  /// frontier forever (the PR-6 livelock).  Fault-free (delay_bound = 0)
  /// this is exactly the old D + 1, so clean runs are bit-for-bit unchanged.
  std::uint64_t delay_bound = 0;
};

/// (phase, id), ordered phase-first: higher phases overrun lower ones, ties
/// go to the larger ID — the paper's collision rule.
struct Claim {
  std::uint32_t phase = 0;
  Uid id = 0;
  auto operator<=>(const Claim&) const = default;
  bool none() const { return phase == 0; }
};

class KingdomProcess final : public Process {
 public:
  explicit KingdomProcess(KingdomConfig cfg) : cfg_(cfg) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  // Instrumentation.
  std::uint32_t phases_played() const { return my_phase_; }

 private:
  enum class Answer : std::uint8_t { Joined, Same, Refused, Defected };
  enum class Stage : std::uint8_t { Growing, Confirmed };

  /// Aggregate carried by stage-2 ACKs.
  struct Agg {
    Claim foreign;            ///< strongest foreign claim met
    bool frontier_open = false;
    bool live_seen = false;   ///< some kingdom node is a live candidate
    void merge(const Agg& o) {
      foreign = std::max(foreign, o.foreign);
      frontier_open = frontier_open || o.frontier_open;
      live_seen = live_seen || o.live_seen;
    }
  };

  /// Bookkeeping for one expedition (one candidate's phase-p BFS) at this
  /// node.  A node holds at most two: its own (as root) + the strongest
  /// foreign one that claimed it.
  struct Exped {
    Claim claim;
    PortId parent = kNoPort;  ///< kNoPort at the candidate itself
    Stage stage = Stage::Growing;
    std::uint32_t pending = 0;  ///< outstanding stage-2 answers
    bool acked_up = false;
    /// This node was overrun by a stronger claim while serving the
    /// expedition.  A zombie no longer aggregates, but it still relays the
    /// CONFIRM wave to its recorded children and still sends the VICTOR it
    /// owes (iff victor_expected) — otherwise the parent's convergecast
    /// would wait forever on a count that can no longer drain.
    bool zombie = false;
    /// The parent received our Joined ack, so it counts us among the
    /// children it awaits a VICTOR from.  False for roots and for nodes
    /// whose stage-2 answer was Defected (the parent lists those as
    /// borders, which get the CONFIRM but owe nothing back).
    bool victor_expected = false;
    std::vector<PortId> children;
    std::vector<PortId> borders;  ///< ports that answered Refused/Defected
    Agg agg;
    Claim confirm_winner;
    std::uint32_t victor_pending = 0;
    bool victor_sent = false;
    Claim victor_agg;
  };

  Claim my_claim() const { return Claim{my_phase_, my_id_}; }
  std::uint64_t radius(std::uint32_t phase) const;
  void launch_phase(Context& ctx);
  void handle_elect(Context& ctx, PortId port, Claim claim,
                    std::uint64_t depth);
  void handle_answer(Context& ctx, PortId port, Claim exped, Answer answer,
                     const Agg& agg);
  void handle_confirm(Context& ctx, PortId port, Claim exped, Claim winner);
  void handle_victor(Context& ctx, PortId port, Claim exped, Claim winner);
  void defect_from(Context& ctx, Exped& e, Claim overrunner);
  void finish_stage2(Context& ctx, Exped& e);
  void send_victor_up(Context& ctx, Exped& e);
  void decide_phase(Context& ctx, const Exped& e);
  Exped* find(Claim c);

  KingdomConfig cfg_;
  /// CONGEST pacing: answers to one claim and forwards of another can land
  /// on the same port in the same round; the queue serializes them.
  PortOutbox outbox_;
  Uid my_id_ = 0;
  std::uint32_t my_phase_ = 0;
  bool live_ = true;
  bool decided_ = false;
  Claim current_claim_;          ///< strongest claim holding this territory
  Claim heard_winner_;           ///< strongest CONFIRMed winner seen
  std::map<Claim, Exped> expeds_;
};

ProcessFactory make_kingdom(KingdomConfig cfg = {});

}  // namespace ule
