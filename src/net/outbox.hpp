// Outbound message buffering: the engine's per-worker send lanes and the
// per-process CONGEST pacing queue.
//
// --- SendLane -------------------------------------------------------------
//
// A SendLane is one worker's private send storage plus its counter block.
// Sends are kept as a SendBatch: two parallel arrays, the destination slot
// of each send and the Envelope its receiver will read.  During a parallel
// round every worker appends the sends of its shard of nodes to its own lane
// (no shared append, no locks) and accumulates message/bit/violation counts
// locally; after the round barrier the engine merges lanes IN SLOT ORDER —
// shard w covers a contiguous ascending range of the sorted runnable set, so
// concatenating lane 0, lane 1, ... w reproduces the exact send sequence a
// sequential execution would have produced, and summing the counter blocks
// reproduces the exact RunResult counters.  The sequential path is the
// one-lane special case.
//
// Lanes are double-buffered: `out` collects this round's sends while `held`
// keeps last round's, which the delivery buffer points into for as long as
// this round's receivers step.  A stepping node's inbox is copied from those
// pointers into its worker's `inbox` buffer, so a process reads one
// contiguous span.
//
// --- PortOutbox -----------------------------------------------------------
//
// CONGEST pacing: a per-port send queue draining one message per port per
// round.  Storage is ONE arena per outbox (a pooled vector with per-port
// intrusive FIFO lists), not a container per port: a deque-per-port design
// eagerly allocates a ~512-byte chunk for every port ever touched, which on
// a K_n broadcast protocol means Θ(n²) allocator traffic per run — measured
// as multi-second kernel time (page-fault churn) on flood_max at n = 1024.
// The arena allocates O(log backlog) times total and frees nothing until
// the process dies.
//
// The model allows at most one message per edge-direction per round.  An
// algorithm frequently *generates* more than that in a single round — e.g.
// the wave pools answer a non-adopted forward with an echo while also
// re-flooding a freshly adopted wave over the same port, and Algorithm 1
// starts its election flood in the round it forwards the final DOWN-DONE of
// phase 2.  Real CONGEST executions serialize such sends over consecutive
// rounds; PortOutbox does exactly that.  Message counts are unchanged (every
// queued message is eventually sent and billed); only timing is affected,
// and only by the queue length, which for our algorithms is bounded by the
// number of concurrently outstanding protocol items per edge (a constant or
// O(log n)).
//
// A queued message is stored by value; it is sent with a zero link header
// (net/message.hpp), as every protocol that paces its sends uses none.
//
// Usage pattern inside a Process:
//
//   outbox_.queue(port, msg);           // instead of ctx.send(port, msg)
//   ...
//   if (outbox_.flush(ctx)) return;     // backlog: stay runnable this round
//   ctx.idle();                         // or the process's usual sleep rule
//
// flush() must be called exactly once per round (last), and the process must
// remain runnable while the outbox is non-empty — otherwise queued messages
// would sit until the next inbound message wakes the node.

#pragma once

#include <cstddef>
#include <cstdint>
#include <exception>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"
#include "net/process.hpp"

namespace ule {

/// Envelopes in send order, as two parallel arrays: the destination slot of
/// each, and the Envelope (arrival port, message, link header) its receiver
/// reads.  The delivery pass counts over `to` alone and points into `env`.
struct SendBatch {
  std::vector<NodeId> to;
  std::vector<Envelope> env;

  std::size_t size() const { return to.size(); }
  bool empty() const { return to.empty(); }
  void push(NodeId dest, const Envelope& e) {
    to.push_back(dest);
    env.push_back(e);
  }
  void clear() {
    to.clear();
    env.clear();
  }
};

/// An envelope the adversary held back: it arrives at `to` in round
/// `arrive`, later than the round after its send.
struct ParkedEnvelope {
  Round arrive = 0;
  NodeId to = kNoNode;
  Envelope env;
};

/// One worker's private send storage and counter block (see file comment).
/// Cache-line aligned so two workers' counter increments never share a line.
struct alignas(64) SendLane {
  SendBatch out;   ///< this round's sends, due next round
  SendBatch held;  ///< last round's sends, read by this round's receivers
  /// Adversarial delays only (net/adversary.hpp, max_delay > 0): this shard's
  /// sends drawn a positive delay, in send order.  The engine moves them into
  /// its delay ring at the next delivery.  Stays empty on every other run.
  std::vector<ParkedEnvelope> parked;
  /// The inbox of the node this worker is stepping, copied out of the
  /// delivery buffer's pointers (grow-only; only a prefix is live).
  std::vector<Envelope> inbox;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t congest_violations = 0;
  /// Adversary fault events in this shard (billed-then-eaten drops,
  /// delivered duplicate copies, envelopes assigned a positive delay).  Any
  /// such event implies a billed send, so the fold's messages/status guard
  /// covers these too.
  std::uint64_t adv_drops = 0;
  std::uint64_t adv_dups = 0;
  std::uint64_t adv_delays = 0;
  bool status_changed = false;  ///< some node's status changed this round
  std::exception_ptr error;     ///< first exception thrown in this shard

  /// Empty every buffer, keeping its capacity, and reset the counter block:
  /// the lane is then as good as a fresh one for the next run.
  void recycle() {
    out.clear();
    held.clear();
    parked.clear();
    inbox.clear();
    messages = bits = congest_violations = 0;
    adv_drops = adv_dups = adv_delays = 0;
    status_changed = false;
    error = nullptr;
  }
};

class PortOutbox {
 public:
  /// Queue `msg` for port `port`; it is sent by the first flush() that finds
  /// no earlier message queued ahead of it on the same port.
  void queue(PortId port, const FlatMsg& msg) {
    if (msg.type == 0)  // fail here, not at a far-away flush()
      throw std::invalid_argument("flat message without a type tag");
    push(port, Queued{msg, kNil});
  }

  /// Queue the same payload on every port of `ctx` (paced broadcast).
  void queue_broadcast(const Context& ctx, const FlatMsg& msg) {
    for (PortId p = 0; p < ctx.degree(); ++p) queue(p, msg);
  }

  /// Send the head of every non-empty port queue (at most one message per
  /// port, the CONGEST allowance).  Returns true iff messages remain queued,
  /// in which case the caller must stay runnable for the next round.
  bool flush(Context& ctx) {
    for (PortId p = 0; p < heads_.size(); ++p) {
      const std::uint32_t slot = heads_[p].head;
      if (slot == kNil) continue;
      Queued& head = pool_[slot];
      ctx.send(p, head.flat);
      heads_[p].head = head.next;
      if (head.next == kNil) heads_[p].tail = kNil;
      head.next = free_;
      free_ = slot;
      --queued_;
    }
    return queued_ > 0;
  }

  bool empty() const { return queued_ == 0; }
  std::size_t backlog() const { return queued_; }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Queued {
    FlatMsg flat;
    std::uint32_t next;  ///< next arena slot on the same port (or free list)
  };

  struct PortList {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
  };

  void push(PortId port, const Queued& q) {
    if (heads_.size() <= port) heads_.resize(std::size_t{port} + 1);
    std::uint32_t slot;
    if (free_ != kNil) {
      slot = free_;
      free_ = pool_[slot].next;
      pool_[slot] = q;
    } else {
      slot = static_cast<std::uint32_t>(pool_.size());
      pool_.push_back(q);
    }
    PortList& pl = heads_[port];
    if (pl.tail == kNil) {
      pl.head = slot;
    } else {
      pool_[pl.tail].next = slot;
    }
    pl.tail = slot;
    ++queued_;
  }

  std::vector<Queued> pool_;      ///< arena: grows to the peak backlog, only
  std::vector<PortList> heads_;   ///< per-port FIFO into the arena
  std::uint32_t free_ = kNil;     ///< recycled arena slots
  std::size_t queued_ = 0;
};

}  // namespace ule
