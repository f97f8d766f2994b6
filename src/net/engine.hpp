// The synchronous message-passing engine.
//
// Realizes the paper's model (Section 2): computation advances in synchronous
// rounds; in every round nodes receive the messages their neighbours sent in
// the previous round, compute locally, and send at most one message per edge
// (CONGEST, optionally enforced).  The engine is deterministic: a run is a
// pure function of (graph, processes, config.seed).
//
// Scheduling is EVENT-DRIVEN: a round costs O(runnable + delivered), not
// O(n).  The runnable set of a round is the union of
//   - nodes that stayed Running after their last step,
//   - nodes receiving a message this round (the delivery dirty list), and
//   - nodes whose sleep_until / scheduled-wakeup deadline fires, popped from
//     a min-heap of wake deadlines (stale entries are skipped lazily).
// The union is sorted, so execution order (ascending slot) and therefore
// every counter and election outcome is bit-for-bit identical to the
// original full-scan scheduler — enforced by the engine-equivalence
// regression test.  Fast-forward reads the next deadline off the heap top in
// O(log n) instead of an O(n) sweep; rounds where nothing is runnable and no
// message is in flight are skipped wholesale, so Theorem 4.1's agents
// stepping every 2^ID rounds stay cheap even at n = 10^6.
//
// Delivery moves pointers, not envelopes.  A round's sends stay where their
// senders wrote them — in the send lanes (net/outbox.hpp), which hold them
// through the next round — and a flat CSR-style buffer of `const Envelope*`
// buckets them by destination (stable, preserving send order), with per-node
// offsets.  When a node steps, its worker copies the node's inbox from those
// pointers into the lane's inbox buffer and hands the process that span.
// Messages are inline FlatMsg values (net/message.hpp) with an opaque link
// header, so delivery moves zero heap blocks per round.
//
// ROUND STORAGE OUTLIVES THE ENGINE: the send lanes — their batches and
// inbox buffers — and the pointer buffer are taken from a per-thread cache
// when an engine is built and handed back, emptied with capacity kept, when
// it is destroyed (exception path included).  A thread's next run reuses
// those pages instead of faulting in fresh ones, and each thread keeps its
// largest run's round storage until it exits.  The storage only grows; it is
// never pre-sized or trimmed, and no run depends on what it held before.
//
// PARALLEL ROUND PIPELINE (EngineConfig::threads > 1): within a round the
// synchronous model has no intra-node dependencies — every node reads last
// round's inbox and writes this round's outbox — so dense rounds execute on
// a fixed worker pool in three phases:
//   shard     the sorted runnable set is split into `threads` contiguous
//             ascending-slot ranges (shard w = slots [w*k/T, (w+1)*k/T));
//   execute   each worker steps its shard in slot order, appending sends to
//             a private SendLane (outbox arena + counter block, net/
//             outbox.hpp) — no shared mutable state is touched: node state,
//             RNG stream, per-node send counts and per-directed-port CONGEST
//             stamps are all owned by the stepping node's worker;
//   merge     after the barrier, lanes are drained in shard order.  Because
//             shards are contiguous ranges of the slot-sorted runnable set,
//             the lane-order concatenation of envelopes IS the sequential
//             send order, and summing the counter blocks in lane order
//             reproduces every RunResult counter exactly.  Hence runs are
//             bit-for-bit identical at every thread count (pinned by the
//             parallel-determinism matrix test).
// The CSR bucket pass is parallelized the same way, as a stable counting
// sort over contiguous chunks of the round's envelope sequence:
//   count     each worker counts its chunk's destinations into a private
//             histogram and lists each destination the first time it sees it;
//   lay out   one thread walks those short lists in worker order, which
//             yields the first-delivery order, every inbox offset and each
//             worker's first write slot per destination — O(threads x
//             distinct receivers), never a pass over the envelopes;
//   scatter   each worker writes its chunk's envelope pointers into its own
//             slots.
// The count reads only the destination array of each batch.  Chunk w
// precedes chunk w+1 in send order, so every inbox comes out in send order
// at any thread count.  Rounds below EngineConfig::parallel_cutoff
// runnable nodes stay on the sequential fast path (pool dispatch costs a few
// microseconds; a quiescent ring round costs ~16 ns).
//
// ADVERSARY (EngineConfig::adversary, net/adversary.hpp): a seeded oblivious
// adversary can delay (bounded), drop, duplicate and reorder messages and
// crash nodes — forever (crash-stop) or for a bounded churn interval, after
// which the node is reborn from its initial state (fresh process, same ID,
// inbox purged, wake-heap re-entry).  A copy drawn a positive delay parks in
// its sender's lane, moves into a small ring of future-arrival buckets at the
// next delivery, and in its arrival round the due ring slot drains ahead of
// the lanes through the same CSR bucket pass (parallel scatter included); the
// drained slot is held, like the lanes, until the next delivery.  Reordering
// shuffles each inbox's pointers.
// Every adverse coin is a pure function of (adversary seed, sender, edge,
// send index), so adversarial runs are bit-for-bit identical at every thread
// count.  With the adversary off (the default) the engine runs the exact
// fault-free hot path — no adversary state is allocated or touched.
//
// Instrumentation: total messages and bits and per-node send counts.  The
// engine only runs rounds; narrating a run (wakes, sends with their
// payloads, status changes) is a process wrapper, net/recorder.hpp.

#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <queue>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "net/adversary.hpp"
#include "net/graph.hpp"
#include "net/knowledge.hpp"
#include "net/message.hpp"
#include "net/metrics.hpp"
#include "net/outbox.hpp"
#include "net/process.hpp"
#include "net/rng.hpp"
#include "net/types.hpp"
#include "net/worker_pool.hpp"

namespace ule {

enum class CongestMode : std::uint8_t {
  Off,      ///< no checking (LOCAL model)
  Count,    ///< record violations, do not fail
  Enforce,  ///< throw on violation
};

struct EngineConfig {
  std::uint64_t seed = 1;
  Round max_rounds = 50'000'000;
  CongestMode congest = CongestMode::Off;
  /// Per-message bit budget for CONGEST checks.  0 = auto: room for a small
  /// constant number of id-sized fields (ids live in [1, n^4], i.e. Θ(log n)
  /// bits; our wire format sizes them at 64 bits uniformly).
  std::uint32_t congest_bits = 0;
  bool fast_forward = true;
  /// Worker threads for round execution and CSR bucketing.  1 = fully
  /// sequential (the exact legacy code path); 0 = hardware concurrency.
  /// Completed runs are bit-for-bit identical at every thread count.  On
  /// the exception path (a step or CONGEST-Enforce throw), every shard
  /// first finishes its own range (stopping at its own first error) before
  /// the first error in slot order is rethrown — so post-throw engine state
  /// is deterministic for a fixed thread count but, unlike a completed run,
  /// may differ between thread counts (a sequential run stops at the first
  /// error; aborting peer shards mid-flight would instead make the state
  /// timing-dependent).
  unsigned threads = 1;
  /// Minimum sorted-runnable size before a round is dispatched to the worker
  /// pool (pool dispatch costs microseconds; tiny rounds — e.g. ring DFS at
  /// ~1.6 runnable nodes/round — must stay on the ~16 ns sequential path).
  /// The CSR bucket pass (count, lay out, scatter) runs on the pool at 16x
  /// this many delivered envelopes.
  std::size_t parallel_cutoff = 192;
  /// Seeded delivery/fault adversary (net/adversary.hpp).  Default = off: the
  /// engine takes the exact fault-free hot path.  Adversarial rounds step and
  /// scatter on the worker pool like clean ones, and stay bit-for-bit
  /// identical at every thread count because every adverse coin is keyed by
  /// (adversary.seed, sender, edge, send index), never by execution order.
  AdversaryConfig adversary;
  /// Engine telemetry (net/metrics.hpp).  Default = off, with the same
  /// pinned zero-overhead contract as the inert adversary and the empty
  /// churn schedule: a disabled-metrics run reproduces every RunResult
  /// counter of a metrics-free build (metrics_off_overhead bench row).
  /// When on, RunResult::metrics carries a snapshot that is bit-for-bit
  /// identical at every thread count.
  MetricsConfig metrics;
};

struct RunResult {
  Round rounds = 0;          ///< logical rounds until global quiescence
  Round executed_rounds = 0; ///< rounds actually simulated (not fast-forwarded)
  std::uint64_t node_steps = 0;  ///< process invocations (on_wake + on_round)
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  bool completed = false;    ///< quiesced before max_rounds
  std::uint64_t congest_violations = 0;
  std::size_t elected = 0;
  std::size_t non_elected = 0;
  std::size_t undecided = 0;
  Round last_status_change = 0;  ///< the paper's "from round T on" T
  /// Last executed round that made observable progress (sent a message or
  /// changed a status).  Under adversarial drops/crashes a run can livelock —
  /// spin to max_rounds without progressing — and `rounds - last_progress`
  /// is then the length of the silent tail.
  Round last_progress = 0;
  /// Crash events applied by the adversary's churn schedule (a node that
  /// crashes, recovers and crashes again counts twice).
  std::size_t crashed = 0;
  /// Recovery events applied: bounded churn intervals whose node was reborn
  /// from its initial state (fresh process, same ID, inbox purged).
  std::size_t recoveries = 0;
  /// Messages purged from a node's inbox because they were delivered inside
  /// its crashed window.  Billed here — the single crash-drop counter — and
  /// never to adv_drops (the in-transit coin) or left uncounted (the
  /// voluntary-halt delivery path).
  std::uint64_t adv_crash_drops = 0;
  /// Adversary fault events, always on (folded from the send lanes): sends
  /// billed then eaten, duplicate copies delivered, envelopes held back by a
  /// positive drawn delay.  All zero when the adversary is off or inert.
  std::uint64_t adv_drops = 0;
  std::uint64_t adv_dups = 0;
  std::uint64_t adv_delays = 0;
  /// ARQ links declared dead and the fresh sends they swallowed afterwards,
  /// summed over all nodes (net/reliable.hpp).  Filled on the same failure
  /// path as undecided_nodes — a quiesced-undecided run names its dead
  /// edges — so a fully decided run leaves them zero.
  std::uint64_t dead_links = 0;
  std::uint64_t dead_link_drops = 0;
  /// Dead ARQ ports later re-armed from a fresh epoch by a fresh send
  /// (arq.healed_links), swept on the same failure path.
  std::uint64_t healed_links = 0;
  std::vector<NodeId> dead_link_nodes;  ///< up to 32 owners of dead ports
  /// Non-termination sample, filled when the run failed to fully decide: up
  /// to 32 slots still Undecided either when max_rounds cut the run off
  /// (livelock) or when it quiesced with them stuck (deadlock/starvation —
  /// a drop=1.0 partition or a crashed relay).  Crashed nodes are excluded —
  /// they can never decide.  Makes adversary-induced failures debuggable
  /// from the result alone; see describe_nontermination().
  std::vector<NodeId> undecided_nodes;
  /// Telemetry snapshot, engaged only when EngineConfig::metrics.enabled.
  std::optional<MetricsSnapshot> metrics;
};

/// The run-counter table: calls f("name", field) for every scalar RunResult
/// counter, in struct order.  `field` is a reference into `r` (const when R
/// is); `completed` is a bool and reads as 0/1 once widened.  The JobResult
/// wire grammar (serve::result_counters), the threads>1 determinism
/// cross-check and every "same counters" check read this one list.
template <class R, class F>
  requires std::same_as<std::remove_const_t<R>, RunResult>
void for_each_counter(R& r, F&& f) {
  f("rounds", r.rounds);
  f("executed_rounds", r.executed_rounds);
  f("node_steps", r.node_steps);
  f("messages", r.messages);
  f("bits", r.bits);
  f("completed", r.completed);
  f("congest_violations", r.congest_violations);
  f("elected", r.elected);
  f("non_elected", r.non_elected);
  f("undecided", r.undecided);
  f("last_status_change", r.last_status_change);
  f("last_progress", r.last_progress);
  f("crashed", r.crashed);
  f("recoveries", r.recoveries);
  f("adv_crash_drops", r.adv_crash_drops);
  f("adv_drops", r.adv_drops);
  f("adv_dups", r.adv_dups);
  f("adv_delays", r.adv_delays);
  f("dead_links", r.dead_links);
  f("dead_link_drops", r.dead_link_drops);
  f("healed_links", r.healed_links);
}

namespace detail {
/// Converts to any member type: brace-initializing T from N of these
/// compiles iff T has at least N aggregate members.
struct AnyMember {
  template <class T>
  operator T() const;
};
template <class T, class... A>
consteval std::size_t aggregate_members() {
  if constexpr (requires { T{A{}..., AnyMember{}}; })
    return aggregate_members<T, A..., AnyMember>();
  else
    return sizeof...(A);
}
}  // namespace detail

// 21 counters in the table, plus dead_link_nodes, undecided_nodes, metrics.
static_assert(detail::aggregate_members<RunResult>() == 21 + 3,
              "RunResult changed shape: add the new field to for_each_counter "
              "(or, if it is not a scalar counter, to this count)");

/// One counter on which two runs disagree.
struct CounterDiff {
  const char* name;
  std::uint64_t base;
  std::uint64_t got;
};

/// The for_each_counter counters on which `got` differs from `base`, in
/// table order; empty when the two runs have the same counters.
std::vector<CounterDiff> diff_counters(const RunResult& base,
                                       const RunResult& got);

/// One-line diagnostic for a run that hit max_rounds OR quiesced with
/// undecided nodes (empty if it completed fully decided).
std::string describe_nontermination(const RunResult& r);

// --- the parallel-merge seam (free functions so the fold order, counter
// summation and exception selection are unit-testable with hand-crafted
// lanes; the engine calls them on both the sequential one-lane path and
// after the worker barrier) -------------------------------------------------

/// Fold one lane's counter block into `result` — stamping
/// `result.last_status_change = round` when the lane saw a status change —
/// and zero the block.  Returns the lane's captured error, if any, for the
/// caller to rethrow (the error is cleared from the lane).  Forced inline:
/// this is the body of the sequential per-round fold, and letting it fall
/// out of line costs ~5 ns/round on the quiescent scheduler path.
[[gnu::always_inline]] inline std::exception_ptr fold_lane_counters(
    SendLane& lane, RunResult& result, Round round) {
  // Guarded: on a quiescent round every counter is zero and the fold is a
  // single predictable branch.  Violations, bits and adversary fault events
  // all imply messages != 0 (a dropped send is billed before it is eaten),
  // so the guard never skips a non-zero block.
  if (lane.messages != 0 || lane.status_changed) {
    result.messages += lane.messages;
    result.bits += lane.bits;
    result.congest_violations += lane.congest_violations;
    result.adv_drops += lane.adv_drops;
    result.adv_dups += lane.adv_dups;
    result.adv_delays += lane.adv_delays;
    if (lane.status_changed) result.last_status_change = round;
    lane.messages = 0;
    lane.bits = 0;
    lane.congest_violations = 0;
    lane.adv_drops = 0;
    lane.adv_dups = 0;
    lane.adv_delays = 0;
    lane.status_changed = false;
  }
  if (lane.error) [[unlikely]] {
    const std::exception_ptr e = lane.error;
    lane.error = nullptr;
    return e;
  }
  return nullptr;
}

/// Fold every lane in lane order and return the FIRST captured error in
/// lane order.  Lane order is slot order — shards are contiguous ascending
/// ranges of the sorted runnable set and each worker stops at its own first
/// throw — so the error returned is the one a sequential execution would
/// have hit first.  Every lane is folded even when an earlier one errored:
/// counters must reflect every send that happened before the rethrow.
inline std::exception_ptr merge_lane_counters(std::span<SendLane> lanes,
                                              RunResult& result, Round round) {
  std::exception_ptr first_error;
  for (SendLane& lane : lanes) {
    const std::exception_ptr err = fold_lane_counters(lane, result, round);
    if (err && !first_error) first_error = err;
  }
  return first_error;
}

class SyncEngine {
 public:
  SyncEngine(const Graph& g, EngineConfig cfg = {});

  // --- run setup (call before run()) ---
  /// Assign application-level unique IDs; empty vector = anonymous network.
  void set_uids(std::vector<Uid> uids);
  /// Wakeup schedule: absolute wake round per node (default: all zero, the
  /// simultaneous-wakeup model the lower bounds assume).  Nodes also wake on
  /// message arrival.  At least one entry must be 0 in adversarial schedules.
  void set_wakeup(std::vector<Round> wake_rounds);
  void set_knowledge(Knowledge k) { knowledge_ = k; }
  void set_process(NodeId slot, std::unique_ptr<Process> p);

  template <typename Factory>
  void init_processes(Factory&& make) {
    for (NodeId s = 0; s < graph_.n(); ++s) set_process(s, make(s));
    // Retained only when the churn schedule can rebirth a node: recovery
    // reinstalls a fresh process from the same factory (same slot, same ID).
    if (has_recoveries_) factory_ = std::forward<Factory>(make);
  }

  RunResult run();

  // --- post-run inspection ---
  const Graph& graph() const { return graph_; }
  Status status(NodeId slot) const { return nodes_[slot].status; }
  Process* process(NodeId slot) { return procs_[slot].get(); }
  const Process* process(NodeId slot) const { return procs_[slot].get(); }
  Uid uid_of(NodeId slot) const { return uids_.empty() ? 0 : uids_[slot]; }
  bool anonymous() const { return uids_.empty(); }
  const RunResult& result() const { return result_; }
  const std::vector<std::uint64_t>& sent_by_node() const { return sent_by_node_; }

 private:
  enum class RunState : std::uint8_t { Unwoken, Running, Sleeping, Halted };

  struct NodeState {
    RunState state = RunState::Unwoken;
    Round wake_at = 0;  ///< Unwoken: scheduled wakeup; Sleeping: deadline.
    Status status = Status::Undecided;
    /// True while the adversary holds this node crashed (distinguishes an
    /// adversary kill from a voluntary halt(); cleared on recovery).
    bool crashed = false;
    Rng rng;
  };

  /// Min-heap entry: (deadline, node).  Entries are never removed on state
  /// change; a popped entry is acted on only if the node is still waiting
  /// for exactly this deadline (lazy deletion).
  using WakeEntry = std::pair<Round, NodeId>;
  using WakeHeap = std::priority_queue<WakeEntry, std::vector<WakeEntry>,
                                       std::greater<WakeEntry>>;

  class Ctx;  // Context implementation, defined in engine.cpp

  void do_send(SendLane& lane, NodeId from, PortId port, const FlatMsg& msg,
               const LinkHeader& link);
  /// Send bookkeeping (congest, counters); returns the traversed half-edge.
  const Graph::HalfEdge& account_send(SendLane& lane, NodeId from, PortId port,
                                      const FlatMsg& msg);
  std::uint32_t congest_budget() const;

  /// Execute one node's step (wake or round) through `ctx`.  Forced inline:
  /// it is the body of both execution loops, and letting it fall out of
  /// line costs ~5 ns/round on the quiescent scheduler path.
  [[gnu::always_inline]] inline void step_node(Ctx& ctx, NodeId s);
  /// Worker w's contiguous chunk [lo, hi) of `total` work items.  This
  /// formula IS the determinism argument: chunks are contiguous ascending
  /// ranges, so lane order = send order — both the execute and the scatter
  /// phase must shard through it.
  std::pair<std::size_t, std::size_t> shard_range(unsigned w,
                                                  std::size_t total) const {
    return {total * w / threads_, total * (w + 1) / threads_};
  }
  /// The worker pool, spawned on first use (threads_ > 1 only).
  WorkerPool& ensure_pool() {
    if (!pool_) pool_ = std::make_unique<WorkerPool>(threads_);
    return *pool_;
  }
  /// Execute the sorted runnable set on the worker pool in contiguous
  /// shards (one lane per worker), then fold every lane's counter block
  /// into result_ in lane order (= slot order) and rethrow the first
  /// captured worker exception, if any.  The sequential fast path is
  /// inlined in run().
  void execute_round_parallel(const std::vector<NodeId>& runnable);
  /// Pointers to the envelopes delivered to node `s` this round, in inbox
  /// order (empty span if none).  They point into the held lane batches and
  /// the held delay-ring slot.
  std::span<const Envelope* const> inbox_of(NodeId s) const {
    return inbox_len_[s] > 0
               ? std::span<const Envelope* const>{
                     store_.delivery.data() + inbox_off_[s], inbox_len_[s]}
               : std::span<const Envelope* const>{};
  }

  /// Move every lane's sends from `out` to `held` and bucket this round's
  /// sources — the due delay-ring slot, then the held lane batches in lane
  /// order (= send order) — by destination into the CSR pointer buffer; fills
  /// dirty_ (receivers this round, in first-delivery order).  Clears the
  /// previous round's buckets and releases its held ring slot first.  At
  /// 16 x parallel_cutoff envelopes the count and the scatter run on the
  /// worker pool and only the per-worker destination lists are walked on one
  /// thread (file comment).  Afterwards the lanes' parked envelopes move into
  /// their ring slots.
  void deliver_round();
  /// Adversary hook inside do_send (send_faults_on_ only): roll drop /
  /// duplicate / delay coins and append each surviving copy to the lane's
  /// `out`, or to its `parked` list when drawn a positive delay.
  void adv_enqueue(SendLane& lane, NodeId from, const Graph::HalfEdge& he,
                   const FlatMsg& msg, const LinkHeader& link);
  /// Seeded per-receiver inbox shuffles (reorder_on_ only), applied after
  /// delivery, before any node steps.
  void apply_reorder();
  /// Apply every churn event whose round has come (crashes_on_): kill crash
  /// victims; rebirth recovering nodes from their initial state (fresh
  /// process via the retained factory, fresh RNG stream salted by the
  /// recovery round, wake-heap re-entry at the current round).
  void apply_churn();
  /// Earliest recovery round still pending in the churn schedule
  /// (kRoundForever if none): joins the fast-forward floor and blocks
  /// quiescent completion while a rebirth is still due.
  Round next_recovery_round() const;
  /// Earliest arrival round of any in-flight delayed envelope (requires
  /// pending_count_ > 0): the fast-forward floor while the wake heap is
  /// empty or later.
  Round earliest_pending_arrival() const;
  /// Pop every wake-heap entry due at `round_` into the runnable buffer.
  void pop_due_wakes(std::vector<NodeId>& runnable);
  /// True while `s` is waiting (Unwoken/Sleeping) on deadline `r`.
  bool wake_entry_live(Round r, NodeId s) const {
    const NodeState& n = nodes_[s];
    return (n.state == RunState::Unwoken || n.state == RunState::Sleeping) &&
           n.wake_at == r;
  }

  const Graph& graph_;
  EngineConfig cfg_;
  Knowledge knowledge_;
  std::vector<Uid> uids_;
  std::vector<NodeState> nodes_;
  std::vector<std::unique_ptr<Process>> procs_;

  Round round_ = 0;

  /// The round storage that outlives the engine (file comment): one send
  /// lane per worker — lanes[0] doubles as the sequential lane; a round's
  /// sends stay in the lanes through the next round, while their receivers
  /// step (lane order = shard order = send order) — and the CSR pointer
  /// buffer.  Node s's inbox is
  /// *delivery[inbox_off_[s] .. inbox_off_[s] + inbox_len_[s]) — valid only
  /// for s in dirty_; the buffer grows only, and the scatter writes every
  /// slot below a round's total before a step reads it.
  struct RoundBuffers {
    std::vector<SendLane> lanes;
    std::vector<const Envelope*> delivery;
  };
  /// Takes the constructing thread's cached RoundBuffers, keeping any lanes
  /// beyond this engine's worker count aside, and hands everything back
  /// recycled on destruction — on the exception path too.  A member rather
  /// than ~SyncEngine, so the engine keeps its implicit move; a moved-from
  /// instance holds nothing and hands back nothing.
  struct RecycledBuffers : RoundBuffers {
    explicit RecycledBuffers(std::size_t lanes);
    RecycledBuffers(RecycledBuffers&&) = default;
    ~RecycledBuffers();
    std::vector<SendLane> spare;  ///< cached lanes this engine does not use
    static RoundBuffers& thread_cache();
  };
  unsigned threads_ = 1;        // resolved worker count (cfg.threads, 0=hw)
  RecycledBuffers store_;       // threads_ lanes
  std::unique_ptr<WorkerPool> pool_;            // spawned on first dense round
  // deliver_round's bucket sources, in inbox order (due ring slot, lanes).
  std::vector<const SendBatch*> sources_;
  // Parallel bucket pass buffers, allocated on its first use.  Worker w owns
  // row w (bucket_stride_ entries) of each: a destination histogram — counts
  // after the count step, write cursors during the scatter, all zero between
  // rounds — and the destinations its chunk touched, in first-seen order
  // (bucket_touched_len_[w] of them).
  std::vector<std::uint32_t> bucket_hist_;
  std::vector<NodeId> bucket_touched_;
  std::vector<std::uint32_t> bucket_touched_len_;
  std::size_t bucket_stride_ = 0;

  // CSR offsets into store_.delivery, per node.
  std::vector<std::uint32_t> inbox_off_;
  std::vector<std::uint32_t> inbox_len_;
  std::vector<NodeId> dirty_;        // nodes with a non-empty inbox this round

  // Active-set scheduling state.
  std::vector<NodeId> running_;      // nodes in RunState::Running
  WakeHeap wake_heap_;               // pending sleep/wakeup deadlines
  // 64-bit: the epoch increments once per scheduler iteration and must
  // never wrap into old marks (max_rounds is settable beyond 2^32).
  std::vector<std::uint64_t> runnable_mark_;  // epoch stamps (dedup)
  std::uint64_t runnable_epoch_ = 0;

  // Hot-path branch hints, precomputed once (satellite: keep do_send lean).
  bool congest_on_ = false;

  // Adversary state (net/adversary.hpp).  Every flag below is false — and
  // every container empty — when cfg.adversary is inactive, so the fault-free
  // run never touches any of it beyond one predicted-not-taken branch.
  bool send_faults_on_ = false;  // drop / duplicate / delay hook in do_send
  bool delays_on_ = false;       // max_delay > 0: delivery takes the ring path
  bool reorder_on_ = false;      // seeded inbox shuffles after delivery
  bool crashes_on_ = false;      // crash-stop schedule is non-empty
  /// Delay ring: slot r % (max_delay + 1) holds the envelopes arriving in
  /// round r.  Live arrivals always span < max_delay + 1 distinct rounds, so
  /// slots never mix arrival rounds; each slot's contents are appended in
  /// global send order, which makes delayed delivery deterministic.  The slot
  /// drained by a delivery is held (its receivers point into it) and emptied
  /// at the next delivery; no arrival maps to it in between.
  std::vector<SendBatch> delay_ring_;
  std::size_t held_ring_slot_ = 0;     // slot drained by the last delivery
  std::size_t pending_count_ = 0;      // envelopes waiting in the ring
  /// One churn schedule entry: a crash or a rebirth of `node` at the start
  /// of round `at`.  The merged schedule is sorted by (at, rebirth-first) —
  /// at equal rounds recovery applies before crash, so chained intervals
  /// [a,r] + [r,b] behave as one dead window [a,b).
  struct ChurnEvent {
    Round at = 0;
    NodeId node = kNoNode;
    bool rebirth = false;
  };
  std::vector<ChurnEvent> churn_schedule_;  // sorted by (at, rebirth-first)
  std::size_t churn_idx_ = 0;          // next unapplied schedule entry
  bool has_recoveries_ = false;        // any rebirth event in the schedule
  /// Rebirth factory, retained by init_processes iff has_recoveries_.
  std::function<std::unique_ptr<Process>(NodeId)> factory_;

  /// Telemetry (net/metrics.hpp).  metrics_on_ mirrors cfg.metrics.enabled;
  /// off (the default) skips every sampling branch, so the registry stays
  /// untouched on the hot path.
  bool metrics_on_ = false;
  MetricsRegistry metrics_;

  RunResult result_;
  std::vector<std::uint64_t> sent_by_node_;
  std::vector<Round> last_send_round_;         // per directed port
  std::vector<std::size_t> dir_port_offset_;   // node -> base directed index
  bool ran_ = false;
};

}  // namespace ule
