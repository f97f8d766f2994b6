// Theorem 4.1: a deterministic universal leader election algorithm with O(m)
// messages and arbitrary (finite, ID-dependent) time — the generalization of
// Frederickson–Lynch's ring algorithm to arbitrary graphs.
//
// Every node launches an *annexing agent* carrying its ID that walks the
// graph in DFS order (implemented, as the paper notes, by messages: the agent
// "moving" over an edge is one message; DFS markings live at the nodes).
// Rate limiting does the message bookkeeping: an agent with ID i takes one
// DFS step every 2^i rounds, so the agent with the k-th smallest ID performs
// at most 4m / 2^{k-1} steps before the smallest agent's full 4m-step DFS
// destroys it — a geometric series summing to O(m).
//
// Destruction rules (the paper's): an agent arriving at a node previously
// visited by a smaller-ID agent dies; an agent waiting at a node dies when a
// smaller-ID agent arrives; edge contention resolves in favour of the
// smaller ID.  The smallest-ID agent completes its DFS, returns home, and
// its origin elects itself.  Every other node is visited by the winning
// agent, so every loser observes a smaller ID locally and decides
// non-elected — making the election implicit-complete.
//
// Time is Θ(m · 2^{i_min}) rounds where i_min is the smallest ID: faithful
// to the paper ("depends exponentially on the size of the smallest ID") and
// simulable thanks to engine fast-forwarding.  Step delays cap at 2^62; a
// capped agent is effectively frozen, which only matters for assignments
// whose smallest ID exceeds 62 — those runs are as infeasible for us as for
// a real network.
//
// Adversarial wakeup (paper Section 4.1): with wake_broadcast enabled, each
// spontaneously woken node first floods a wakeup wave (2m messages, <= D
// rounds) so all nodes participate; total stays O(m).

#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "election/election.hpp"
#include "net/message.hpp"
#include "net/process.hpp"

namespace ule {

struct DfsConfig {
  /// Flood a wakeup wave before launching agents (needed under adversarial
  /// wakeup; pure overhead under simultaneous wakeup).
  bool wake_broadcast = false;
  /// Step delay exponent cap (delay = 2^min(ID, cap) rounds).
  std::uint32_t delay_cap = 62;
};

class DfsElectionProcess final : public Process {
 public:
  explicit DfsElectionProcess(DfsConfig cfg) : cfg_(cfg) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

 private:
  enum class StepMode : std::uint8_t { Explore, BounceBack };

  struct AgentRec {
    bool visited = false;
    PortId parent = kNoPort;  ///< kNoPort at the agent's origin
    PortId cursor = 0;        ///< next port to try
  };

  struct Waiting {
    Uid id = 0;
    Round fire = 0;
    StepMode mode = StepMode::Explore;
    PortId bounce_port = kNoPort;
  };

  Round next_fire(Round now, Uid id) const;
  void launch_own_agent(Context& ctx);
  void handle_arrival(Context& ctx, const Envelope& env);
  void take_step(Context& ctx);
  void reschedule(Context& ctx);

  DfsConfig cfg_;
  std::map<Uid, AgentRec> agents_;
  Uid min_seen_ = ~Uid{0};
  std::optional<Waiting> waiting_;
  bool started_ = false;
  bool wake_sent_ = false;
  bool decided_ = false;
};

ProcessFactory make_dfs_election(DfsConfig cfg = {});

}  // namespace ule
