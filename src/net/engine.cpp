#include "net/engine.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace ule {

// ---------------------------------------------------------------------------
// Context implementation
// ---------------------------------------------------------------------------

// One Ctx per executing worker: sends and status-change flags go to the
// worker's private SendLane; everything else a step touches (node state, RNG
// stream, per-node send counts, CONGEST port stamps) is owned by the node
// being stepped, which belongs to exactly one shard.
class SyncEngine::Ctx final : public Context {
 public:
  Ctx(SyncEngine& eng, SendLane* lane) : eng_(eng), lane_(lane) {}

  void bind(NodeId slot) { slot_ = slot; }
  SendLane& lane() const { return *lane_; }

  NodeId slot() const override { return slot_; }
  std::size_t degree() const override { return eng_.graph_.degree(slot_); }
  bool anonymous() const override { return eng_.uids_.empty(); }
  Uid uid() const override {
    if (eng_.uids_.empty())
      throw std::logic_error("uid() requested in an anonymous network");
    return eng_.uids_[slot_];
  }
  Round round() const override { return eng_.round_; }
  Rng& rng() override { return eng_.nodes_[slot_].rng; }
  const Knowledge& knowledge() const override { return eng_.knowledge_; }

  void send(PortId port, const FlatMsg& msg, const LinkHeader& link) override {
    eng_.do_send(*lane_, slot_, port, msg, link);
  }

  void set_status(Status s) override {
    auto& st = eng_.nodes_[slot_].status;
    if (st != s) {
      st = s;
      lane_->status_changed = true;
    }
  }
  Status status() const override { return eng_.nodes_[slot_].status; }

  void idle() override {
    auto& n = eng_.nodes_[slot_];
    n.state = RunState::Sleeping;
    n.wake_at = kRoundForever;
  }
  void sleep_until(Round r) override {
    auto& n = eng_.nodes_[slot_];
    n.state = RunState::Sleeping;
    n.wake_at = r;
  }
  void halt() override { eng_.nodes_[slot_].state = RunState::Halted; }

 private:
  SyncEngine& eng_;
  SendLane* lane_;
  NodeId slot_ = kNoNode;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

SyncEngine::SyncEngine(const Graph& g, EngineConfig cfg)
    : graph_(g),
      cfg_(std::move(cfg)),
      threads_(cfg_.threads != 0
                   ? cfg_.threads
                   : std::max(1u, std::thread::hardware_concurrency())),
      store_(threads_) {
  const std::size_t n = graph_.n();
  nodes_.resize(n);
  procs_.resize(n);
  inbox_off_.assign(n, 0);
  inbox_len_.assign(n, 0);
  runnable_mark_.assign(n, 0);
  sent_by_node_.assign(n, 0);
  for (NodeId s = 0; s < n; ++s) nodes_[s].rng = node_rng(cfg_.seed, s);

  if (cfg_.congest != CongestMode::Off) {
    dir_port_offset_.resize(n + 1, 0);
    for (NodeId s = 0; s < n; ++s)
      dir_port_offset_[s + 1] = dir_port_offset_[s] + graph_.degree(s);
    last_send_round_.assign(dir_port_offset_[n], kRoundForever);
  }

  congest_on_ = cfg_.congest != CongestMode::Off;
  metrics_on_ = cfg_.metrics.enabled;

  const AdversaryConfig& adv = cfg_.adversary;
  if (adv.drop < 0.0 || adv.drop > 1.0 || adv.duplicate < 0.0 ||
      adv.duplicate > 1.0 || adv.reorder < 0.0 || adv.reorder > 1.0)
    throw std::invalid_argument("adversary probabilities must be in [0, 1]");
  send_faults_on_ = adv.send_faults();
  delays_on_ = adv.max_delay > 0;
  reorder_on_ = adv.reorder > 0.0;
  crashes_on_ = !adv.crashes.empty();
  if (delays_on_) delay_ring_.resize(adv.max_delay + 1);
  if (crashes_on_) {
    for (const CrashEvent& c : adv.crashes) {
      if (c.node >= n)
        throw std::invalid_argument("crash schedule names node " +
                                    std::to_string(c.node) + " in an " +
                                    std::to_string(n) + "-node graph");
      if (c.recover < c.at)
        throw std::invalid_argument(
            "crash schedule for node " + std::to_string(c.node) +
            " recovers at round " + std::to_string(c.recover) +
            " before its crash at round " + std::to_string(c.at));
    }
    // Merge the intervals into one event stream.  An empty interval
    // (recover == at) is a no-op and is dropped here — below, recovery
    // applies BEFORE crash at equal rounds (so chained intervals [a,r] +
    // [r,b] form one dead window), which would otherwise turn an empty
    // interval into a permanent crash.
    for (const CrashEvent& c : adv.crashes) {
      if (c.recover == c.at) continue;
      churn_schedule_.push_back(ChurnEvent{c.at, c.node, false});
      if (c.recover != kRoundForever) {
        churn_schedule_.push_back(ChurnEvent{c.recover, c.node, true});
        has_recoveries_ = true;
      }
    }
    std::stable_sort(churn_schedule_.begin(), churn_schedule_.end(),
                     [](const ChurnEvent& a, const ChurnEvent& b) {
                       if (a.at != b.at) return a.at < b.at;
                       return a.rebirth && !b.rebirth;
                     });
    // All intervals may have been empty no-ops: then the schedule is inert
    // and the run must take the exact fault-free hot path.
    crashes_on_ = !churn_schedule_.empty();
  }
}

SyncEngine::RoundBuffers& SyncEngine::RecycledBuffers::thread_cache() {
  thread_local RoundBuffers cache;
  return cache;
}

SyncEngine::RecycledBuffers::RecycledBuffers(std::size_t lane_count) {
  RoundBuffers& cache = thread_cache();
  lanes = std::exchange(cache.lanes, {});
  delivery = std::exchange(cache.delivery, {});
  if (lanes.size() > lane_count) {
    spare.assign(std::make_move_iterator(lanes.begin() + lane_count),
                 std::make_move_iterator(lanes.end()));
    lanes.erase(lanes.begin() + lane_count, lanes.end());
  } else {
    lanes.resize(lane_count);
  }
}

SyncEngine::RecycledBuffers::~RecycledBuffers() {
  RoundBuffers& cache = thread_cache();
  // Nothing to hand back (moved from), or another engine on this thread has
  // refilled the cache first: then this storage is simply freed.
  if (lanes.empty() || !cache.lanes.empty()) return;
  try {
    lanes.reserve(lanes.size() + spare.size());
  } catch (const std::bad_alloc&) {
    return;
  }
  for (SendLane& lane : spare) lanes.push_back(std::move(lane));
  for (SendLane& lane : lanes) lane.recycle();
  cache.lanes = std::move(lanes);
  cache.delivery = std::move(delivery);
}

void SyncEngine::set_uids(std::vector<Uid> uids) {
  if (!uids.empty() && uids.size() != graph_.n())
    throw std::invalid_argument("uid vector size mismatch");
  uids_ = std::move(uids);
}

void SyncEngine::set_wakeup(std::vector<Round> wake_rounds) {
  if (wake_rounds.size() != graph_.n())
    throw std::invalid_argument("wakeup vector size mismatch");
  for (NodeId s = 0; s < graph_.n(); ++s) nodes_[s].wake_at = wake_rounds[s];
}

void SyncEngine::set_process(NodeId slot, std::unique_ptr<Process> p) {
  procs_[slot] = std::move(p);
}

std::uint32_t SyncEngine::congest_budget() const {
  if (cfg_.congest_bits != 0) return cfg_.congest_bits;
  // Room for a tag plus a handful of id-sized fields.  Ids are Θ(log n)
  // conceptually; the wire format sizes them at 64 bits, so a constant
  // number of fields stays O(log n) for every n we can simulate.
  return wire::kTypeTag + 8 * wire::kIdField;
}

const Graph::HalfEdge& SyncEngine::account_send(SendLane& lane, NodeId from,
                                                PortId port,
                                                const FlatMsg& msg) {
  if (port >= graph_.degree(from))
    throw std::out_of_range("send on invalid port " + std::to_string(port) +
                            " at node " + std::to_string(from));

  if (congest_on_) {
    const std::size_t dp = dir_port_offset_[from] + port;
    const bool dup = last_send_round_[dp] == round_;
    const bool too_big = msg.bits > congest_budget();
    if (dup || too_big) [[unlikely]] {
      if (cfg_.congest == CongestMode::Enforce) {
        throw std::runtime_error(
            std::string("CONGEST violation at node ") + std::to_string(from) +
            (dup ? " (two messages on one port in a round)"
                 : " (message of " + std::to_string(msg.bits) +
                       " bits exceeds budget " +
                       std::to_string(congest_budget()) + ")"));
      }
      ++lane.congest_violations;
    }
    last_send_round_[dp] = round_;
  }

  const Graph::HalfEdge& he = graph_.half_edge(from, port);

  ++lane.messages;
  lane.bits += msg.bits;
  ++sent_by_node_[from];
  return he;
}

void SyncEngine::do_send(SendLane& lane, NodeId from, PortId port,
                         const FlatMsg& msg, const LinkHeader& link) {
  if (msg.type == 0)
    throw std::invalid_argument("flat message without a type tag");
  const Graph::HalfEdge& he = account_send(lane, from, port, msg);
  if (send_faults_on_) [[unlikely]] {
    adv_enqueue(lane, from, he, msg, link);
    return;
  }
  lane.out.push(he.to, Envelope{he.rev, msg, link});
}

void SyncEngine::adv_enqueue(SendLane& lane, NodeId from,
                             const Graph::HalfEdge& he, const FlatMsg& msg,
                             const LinkHeader& link) {
  const AdversaryConfig& adv = cfg_.adversary;
  // account_send already billed this send and bumped sent_by_node_[from]; the
  // post-increment value is the sender's send index — a pure function of the
  // sender's own history, identical at every thread count (each node's sends
  // are sequential within its own step, and sent_by_node_[from] is only ever
  // touched by the worker stepping `from`).
  Rng coin(adversary_coin(adv.seed, from, he.edge, sent_by_node_[from]));
  if (adv.drop > 0.0 && coin.bernoulli(adv.drop)) {
    ++lane.adv_drops;  // billed, eaten
    return;
  }
  const int copies =
      (adv.duplicate > 0.0 && coin.bernoulli(adv.duplicate)) ? 2 : 1;
  if (copies == 2) ++lane.adv_dups;
  for (int c = 0; c < copies; ++c) {
    const Envelope env{he.rev, msg, link};
    const Round extra = delays_on_ ? coin.below(adv.max_delay + 1) : 0;
    if (extra > 0) {
      ++lane.adv_delays;
      lane.parked.push_back(ParkedEnvelope{round_ + 1 + extra, he.to, env});
    } else {
      lane.out.push(he.to, env);
    }
  }
}

namespace {

/// Calls f(batch, i) for positions [lo, hi) of the concatenation of
/// `sources` — one worker's chunk of the round's envelope sequence.
template <class F>
void for_each_in_range(const std::vector<const SendBatch*>& sources,
                       std::size_t lo, std::size_t hi, F&& f) {
  std::size_t base = 0;
  for (const SendBatch* src : sources) {
    if (lo >= hi) return;
    const std::size_t end = base + src->size();
    for (; lo < hi && lo < end; ++lo) f(*src, lo - base);
    base = end;
  }
}

}  // namespace

void SyncEngine::deliver_round() {
  // Reset the previous round's buckets (only the nodes that had one).
  for (const NodeId s : dirty_) inbox_len_[s] = 0;
  dirty_.clear();
  std::vector<SendLane>& lanes = store_.lanes;
  // Quiescent fast path: without delays every in-flight envelope sits in a
  // lane, and a sequential run has only lane 0.
  if (!delays_on_ && lanes.size() == 1 && lanes[0].out.empty()) return;
  // Last round's sends become the batches this round's receivers point
  // into; the batches they replace were last read in the previous round.
  for (SendLane& lane : lanes) {
    std::swap(lane.out, lane.held);
    lane.out.clear();
  }
  // The sources, in inbox order: the delay-ring slot due this round (delay
  // runs only — older sends first, in park order), then every lane's on-time
  // sends in lane order, which is the send order (shards are contiguous slot
  // ranges executed in ascending lane order).
  sources_.clear();
  if (delays_on_) [[unlikely]] {
    delay_ring_[held_ring_slot_].clear();
    held_ring_slot_ = round_ % delay_ring_.size();
    const SendBatch& due = delay_ring_[held_ring_slot_];
    pending_count_ -= due.size();
    sources_.push_back(&due);
  }
  for (const SendLane& lane : lanes) sources_.push_back(&lane.held);
  std::size_t total = 0;
  for (const SendBatch* src : sources_) total += src->size();
  if (store_.delivery.size() < total) store_.delivery.resize(total);
  const Envelope** const delivery = store_.delivery.data();

  // Stable counting-bucket by destination: count, prefix, scatter.  Taking
  // the envelopes in source order makes each node's inbox order identical to
  // a sequential execution.
  const bool parallel = threads_ > 1 && total >= 16 * cfg_.parallel_cutoff;
  if (parallel) {
    if (bucket_hist_.empty()) {
      bucket_stride_ = (graph_.n() + 15) / 16 * 16;  // rows start on a line
      bucket_hist_.assign(threads_ * bucket_stride_, 0);
      bucket_touched_.resize(threads_ * bucket_stride_);
      bucket_touched_len_.assign(threads_, 0);
    }
    // Count: worker w histograms its chunk and lists each new destination.
    ensure_pool().run([this, total](unsigned w) {
      std::uint32_t* const hist = bucket_hist_.data() + w * bucket_stride_;
      NodeId* const touched = bucket_touched_.data() + w * bucket_stride_;
      std::uint32_t k = 0;
      const auto [lo, hi] = shard_range(w, total);
      for_each_in_range(sources_, lo, hi,
                        [&](const SendBatch& b, std::size_t i) {
                          const NodeId to = b.to[i];
                          if (hist[to]++ == 0) touched[k++] = to;
                        });
      bucket_touched_len_[w] = k;
    });
    // Totals, and dirty_ in first-delivery order: chunk w precedes chunk w+1
    // in the envelope sequence, so a destination's first delivery lies in
    // the lowest chunk that touched it.
    for (unsigned w = 0; w < threads_; ++w) {
      const std::uint32_t* const hist =
          bucket_hist_.data() + w * bucket_stride_;
      const NodeId* const touched = bucket_touched_.data() + w * bucket_stride_;
      for (std::uint32_t k = 0; k < bucket_touched_len_[w]; ++k) {
        const NodeId s = touched[k];
        if (inbox_len_[s] == 0) dirty_.push_back(s);
        inbox_len_[s] += hist[s];
      }
    }
  } else {
    for (const SendBatch* src : sources_) {
      for (const NodeId to : src->to) {
        if (inbox_len_[to]++ == 0) dirty_.push_back(to);
      }
    }
  }
  std::uint32_t cursor = 0;
  for (const NodeId s : dirty_) {
    inbox_off_[s] = cursor;
    cursor += inbox_len_[s];
    inbox_len_[s] = 0;  // reused as the fill cursor below
  }

  if (parallel) {
    // Lay out: each worker's first write slot per destination follows the
    // slots of every lower chunk's envelopes for it.
    for (unsigned w = 0; w < threads_; ++w) {
      std::uint32_t* const hist = bucket_hist_.data() + w * bucket_stride_;
      const NodeId* const touched = bucket_touched_.data() + w * bucket_stride_;
      for (std::uint32_t k = 0; k < bucket_touched_len_[w]; ++k) {
        const NodeId s = touched[k];
        const std::uint32_t count = hist[s];
        hist[s] = inbox_off_[s] + inbox_len_[s];
        inbox_len_[s] += count;
      }
    }
    // Scatter: every worker fills its own slots, then zeroes its row.
    ensure_pool().run([this, total, delivery](unsigned w) {
      std::uint32_t* const hist = bucket_hist_.data() + w * bucket_stride_;
      const NodeId* const touched = bucket_touched_.data() + w * bucket_stride_;
      const auto [lo, hi] = shard_range(w, total);
      for_each_in_range(sources_, lo, hi,
                        [&](const SendBatch& b, std::size_t i) {
                          delivery[hist[b.to[i]]++] = &b.env[i];
                        });
      for (std::uint32_t k = 0; k < bucket_touched_len_[w]; ++k)
        hist[touched[k]] = 0;
    });
  } else {
    for (const SendBatch* src : sources_) {
      const std::size_t count = src->size();
      for (std::size_t i = 0; i < count; ++i) {
        const NodeId to = src->to[i];
        delivery[inbox_off_[to] + inbox_len_[to]++] = &src->env[i];
      }
    }
  }

  if (delays_on_) [[unlikely]] {
    // Last round's held-back sends join their ring slots.  Their arrivals
    // lie in (round_, round_ + max_delay], so none lands in the slot just
    // drained, and appending in lane order keeps every slot in global send
    // order.
    const std::size_t W = delay_ring_.size();
    for (SendLane& lane : lanes) {
      for (const ParkedEnvelope& p : lane.parked)
        delay_ring_[p.arrive % W].push(p.to, p.env);
      pending_count_ += lane.parked.size();
      lane.parked.clear();
    }
  }
}

void SyncEngine::apply_reorder() {
  const AdversaryConfig& adv = cfg_.adversary;
  for (const NodeId s : dirty_) {
    const std::uint32_t len = inbox_len_[s];
    if (len < 2) continue;  // nothing to permute
    // Keyed by (receiver, round, inbox size) under the reorder domain: pure
    // function of what was delivered, never of how lanes were interleaved.
    Rng coin(adversary_coin(adv.seed ^ kAdversaryReorderDomain, s, round_, len));
    if (!coin.bernoulli(adv.reorder)) continue;
    const Envelope** const inbox = store_.delivery.data() + inbox_off_[s];
    for (std::uint32_t i = len - 1; i > 0; --i)
      std::swap(inbox[i], inbox[coin.below(i + 1)]);
  }
}

void SyncEngine::apply_churn() {
  // `<= round_`, not `==`: fast-forward may jump the round counter past a
  // scheduled event; the schedule is sorted by round (rebirth before crash
  // at equal rounds), so replaying the backlog in order lands every node in
  // the same state as stepping round by round would have.
  while (churn_idx_ < churn_schedule_.size() &&
         churn_schedule_[churn_idx_].at <= round_) {
    const ChurnEvent ev = churn_schedule_[churn_idx_];
    ++churn_idx_;
    NodeState& n = nodes_[ev.node];
    if (ev.rebirth) {
      // Only an adversary-crashed node is reborn: if the crash half of the
      // interval was skipped (the node had already halted voluntarily), the
      // recovery half is a no-op too.
      if (!n.crashed) continue;
      n.crashed = false;
      n.state = RunState::Unwoken;
      n.wake_at = round_;
      n.status = Status::Undecided;
      // Fresh RNG stream, distinct from the node's previous life and from
      // every other node's: the run seed salted by the recovery round under
      // its own domain, then split per slot like the initial streams.
      std::uint64_t salt =
          cfg_.seed ^ (kAdversaryRecoveryDomain *
                       (static_cast<std::uint64_t>(round_) + 1));
      n.rng = node_rng(splitmix64(salt), ev.node);
      procs_[ev.node] = factory_(ev.node);
      wake_heap_.emplace(round_, ev.node);
      ++result_.recoveries;
    } else {
      if (n.state == RunState::Halted) continue;  // already dead (or done)
      n.state = RunState::Halted;
      n.crashed = true;
      ++result_.crashed;
    }
  }
}

Round SyncEngine::next_recovery_round() const {
  for (std::size_t i = churn_idx_; i < churn_schedule_.size(); ++i) {
    if (churn_schedule_[i].rebirth) return churn_schedule_[i].at;
  }
  return kRoundForever;
}

Round SyncEngine::earliest_pending_arrival() const {
  const std::size_t W = delay_ring_.size();
  Round best = kRoundForever;
  for (std::size_t s = 0; s < W; ++s) {
    // The slot drained this round still backs its receivers' inboxes; no
    // pending arrival maps to it (deliver_round).
    if (s == held_ring_slot_ || delay_ring_[s].empty()) continue;
    // A non-empty slot holds exactly one arrival round: the unique value in
    // (round_, round_ + W] congruent to s mod W.
    const Round r = round_ + 1 + (s + W - ((round_ + 1) % W)) % W;
    best = std::min(best, r);
  }
  return best;
}

void SyncEngine::pop_due_wakes(std::vector<NodeId>& runnable) {
  while (!wake_heap_.empty() && wake_heap_.top().first <= round_) {
    const auto [r, s] = wake_heap_.top();
    wake_heap_.pop();
    if (!wake_entry_live(r, s)) continue;  // stale (node ran or re-slept)
    if (runnable_mark_[s] != runnable_epoch_) {
      runnable_mark_[s] = runnable_epoch_;
      runnable.push_back(s);
    }
  }
}

inline void SyncEngine::step_node(Ctx& ctx, NodeId s) {
  NodeState& n = nodes_[s];
  ctx.bind(s);
  // The process reads one contiguous span: copy the node's envelopes out of
  // the held batches into its worker's inbox buffer.
  std::span<const Envelope> in;
  if (const std::span<const Envelope* const> from = inbox_of(s);
      !from.empty()) {
    std::vector<Envelope>& buf = ctx.lane().inbox;
    if (buf.size() < from.size()) buf.resize(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) buf[i] = *from[i];
    in = {buf.data(), from.size()};
  }
  if (n.state == RunState::Unwoken) {
    n.state = RunState::Running;
    procs_[s]->on_wake(ctx, in);
  } else {
    n.state = RunState::Running;  // woken sleepers resume running
    procs_[s]->on_round(ctx, in);
  }
}

void SyncEngine::execute_round_parallel(const std::vector<NodeId>& runnable) {
  const std::size_t total = runnable.size();
  ensure_pool().run([this, &runnable, total](unsigned w) {
    SendLane& lane = store_.lanes[w];
    Ctx ctx(*this, &lane);
    const auto [lo, hi] = shard_range(w, total);
    try {
      for (std::size_t i = lo; i < hi; ++i) step_node(ctx, runnable[i]);
    } catch (...) {
      lane.error = std::current_exception();
    }
  });

  const std::exception_ptr first_error =
      merge_lane_counters(store_.lanes, result_, round_);
  if (first_error) std::rethrow_exception(first_error);
}

namespace {

/// Picks the ARQ dead-link counters out of a process's exported metrics for
/// the failure-path sweep (the engine cannot name ReliableProcess — net/
/// layering — but any process reporting these counters is a link owner).
class DeadLinkProbe final : public MetricsSink {
 public:
  std::uint64_t dead = 0;
  std::uint64_t drops = 0;
  std::uint64_t healed = 0;
  void counter(std::string_view name, std::uint64_t value) override {
    if (name == "arq.dead_links") {
      dead += value;
    } else if (name == "arq.dead_link_drops") {
      drops += value;
    } else if (name == "arq.healed_links") {
      healed += value;
    }
  }
};

}  // namespace

RunResult SyncEngine::run() {
  if (ran_) throw std::logic_error("SyncEngine::run() called twice");
  ran_ = true;
  for (NodeId s = 0; s < graph_.n(); ++s) {
    if (!procs_[s]) throw std::logic_error("node without a process");
  }
  if (has_recoveries_ && !factory_)
    throw std::logic_error(
        "churn schedule includes recoveries but processes were installed "
        "without init_processes (no factory to rebirth a node from)");

  Ctx ctx(*this, &store_.lanes[0]);
  std::vector<NodeId> runnable;
  runnable.reserve(64);
  running_.reserve(64);

  // Seed the wake heap with every scheduled wakeup.  Nodes scheduled "never"
  // (kRoundForever) are reachable only through message arrival.
  for (NodeId s = 0; s < graph_.n(); ++s) {
    if (nodes_[s].wake_at != kRoundForever)
      wake_heap_.emplace(nodes_[s].wake_at, s);
  }

  while (true) {
    if (round_ >= cfg_.max_rounds) {
      result_.completed = false;
      break;
    }

    // Churn events apply at the start of their round, before delivery and
    // stepping: a crash victim's sends of earlier rounds stand and from here
    // on it neither steps nor sends; a recovering node is live again for
    // this round's deliveries and steps (its dead window is [at, recover)).
    if (crashes_on_) [[unlikely]] apply_churn();

    // Deliver messages sent last round (fills dirty_ and the CSR buckets).
    deliver_round();
    if (reorder_on_) [[unlikely]] apply_reorder();

    // Who runs this round?  Union of running nodes, message receivers, and
    // due wake deadlines — then sorted, so execution order is ascending slot
    // exactly like the original full scan.
    runnable.clear();
    ++runnable_epoch_;
    for (const NodeId s : running_) {
      if (crashes_on_ && nodes_[s].state != RunState::Running)
        continue;  // killed since it was queued
      runnable_mark_[s] = runnable_epoch_;
      runnable.push_back(s);
    }
    for (const NodeId s : dirty_) {
      const RunState st = nodes_[s].state;
      if (st == RunState::Halted) {
        // Delivered, counted, dropped.  An adversary-crashed receiver's
        // purged inbox is billed to the one crash-drop counter; a voluntary
        // halt()'s deliveries stay uncounted, exactly as before churn.
        if (crashes_on_ && nodes_[s].crashed) [[unlikely]]
          result_.adv_crash_drops += inbox_len_[s];
        continue;
      }
      if (runnable_mark_[s] != runnable_epoch_) {
        runnable_mark_[s] = runnable_epoch_;
        runnable.push_back(s);
      }
    }
    pop_due_wakes(runnable);

    if (runnable.empty()) {
      // Nothing to do this round.  The next event is the first live wake
      // deadline (drop stale heap entries on the way — lazy deletion) or,
      // under adversarial delays, the earliest in-flight arrival.
      while (!wake_heap_.empty() &&
             !wake_entry_live(wake_heap_.top().first, wake_heap_.top().second))
        wake_heap_.pop();
      Round next = wake_heap_.empty() ? kRoundForever : wake_heap_.top().first;
      if (delays_on_ && pending_count_ > 0) [[unlikely]]
        next = std::min(next, earliest_pending_arrival());
      // A pending rebirth is an event too: a quiesced network must not
      // complete while the churn schedule still owes a node its recovery.
      // (Pending crash-only events stay skippable — crashing a quiescent
      // node changes nothing observable.)
      if (has_recoveries_) [[unlikely]]
        next = std::min(next, next_recovery_round());
      if (next == kRoundForever) {
        result_.completed = true;  // global quiescence
        break;
      }
      round_ = cfg_.fast_forward ? next : round_ + 1;
      continue;
    }

    std::sort(runnable.begin(), runnable.end());

    ++result_.executed_rounds;
    result_.node_steps += runnable.size();
    const std::uint64_t messages_before_round = result_.messages;
    if (threads_ == 1 || runnable.size() < cfg_.parallel_cutoff) [[likely]] {
      // Sequential fast path: execute in slot order into lane 0 and fold its
      // counter block inline (the quiescent per-round cost lives here).
      SendLane& lane = store_.lanes[0];
      try {
        for (const NodeId s : runnable) step_node(ctx, s);
      } catch (...) {
        // Fold first so counters reflect every send before the throw (seed
        // semantics), then propagate.
        lane.error = std::current_exception();
      }
      const std::exception_ptr err = fold_lane_counters(lane, result_, round_);
      if (err) [[unlikely]] std::rethrow_exception(err);
    } else {
      // Dense round: shard onto the worker pool, then merge the lanes in
      // slot order (rethrows the first worker error).
      execute_round_parallel(runnable);
    }

    if (result_.messages != messages_before_round ||
        result_.last_status_change == round_)
      result_.last_progress = round_;

    // Post-round transitions: rebuild the running set; every node that went
    // to sleep with a finite deadline gets a heap entry (duplicates are
    // deduped by the epoch mark, stale ones die in wake_entry_live).
    running_.clear();
    for (const NodeId s : runnable) {
      const NodeState& n = nodes_[s];
      if (n.state == RunState::Running) {
        running_.push_back(s);
      } else if (n.state == RunState::Sleeping && n.wake_at != kRoundForever) {
        wake_heap_.emplace(n.wake_at, s);
      }
    }

    // Telemetry gauges, one sample per executed round, taken at a sequential
    // point after the lane merge: the runnable set, the wake heap (incl.
    // lazily deleted entries — heap content is identical at every thread
    // count), this round's CSR inbox occupancy (dirty_ still indexes this
    // round's deliveries; deliver_round resets it next round), and the lane
    // outboxes holding this round's post-adversary sends, on time or parked.
    if (metrics_on_) [[unlikely]] {
      std::uint64_t inbox = 0;
      for (const NodeId s : dirty_) inbox += inbox_len_[s];
      std::uint64_t outbox = 0;
      for (const SendLane& lane : store_.lanes)
        outbox += lane.out.size() + lane.parked.size();
      metrics_.sample_round(runnable.size(), wake_heap_.size(), inbox, outbox);
    }

    ++round_;
  }

  result_.rounds = round_;
  for (const NodeState& n : nodes_) {
    switch (n.status) {
      case Status::Elected: ++result_.elected; break;
      case Status::NonElected: ++result_.non_elected; break;
      case Status::Undecided: ++result_.undecided; break;
    }
  }
  if (!result_.completed || result_.undecided != 0) {
    // Non-termination sample: the first 32 live undecided slots — also
    // collected when the run QUIESCED undecided (a partitioned or starved
    // run completes with nothing left in flight), so a failed-election
    // diagnosis can name the stuck nodes either way.  Crash victims are
    // excluded — they can never decide, so listing them would bury the
    // nodes whose indecision is the actual diagnosis.
    for (NodeId s = 0; s < graph_.n(); ++s) {
      if (result_.undecided_nodes.size() >= 32) break;
      if (nodes_[s].status != Status::Undecided) continue;
      if (nodes_[s].crashed) continue;
      result_.undecided_nodes.push_back(s);
    }
    // Name the dead edges too: any process owning link state (the ARQ
    // wrapper) reports arq.dead_links / arq.dead_link_drops through the same
    // export_metrics hook the metrics sweep uses, so a quiesced-undecided
    // run can say which nodes gave up on which volume of traffic.
    DeadLinkProbe probe;
    for (NodeId s = 0; s < graph_.n(); ++s) {
      const std::uint64_t dead_before = probe.dead;
      procs_[s]->export_metrics(probe);
      if (probe.dead > dead_before && result_.dead_link_nodes.size() < 32)
        result_.dead_link_nodes.push_back(s);
    }
    result_.dead_links = probe.dead;
    result_.dead_link_drops = probe.drops;
    result_.healed_links = probe.healed;
  }
  if (metrics_on_) [[unlikely]] {
    // The counter half of the snapshot: the engine's own totals, the
    // adversary's fault events, then every process's subsystem counters
    // swept in slot order.  All pure functions of the run — the snapshot is
    // bit-for-bit identical at every thread count.
    metrics_.counter("engine.rounds", result_.rounds);
    metrics_.counter("engine.executed_rounds", result_.executed_rounds);
    metrics_.counter("engine.node_steps", result_.node_steps);
    metrics_.counter("engine.messages", result_.messages);
    metrics_.counter("engine.bits", result_.bits);
    metrics_.counter("engine.congest_violations", result_.congest_violations);
    metrics_.counter("engine.crashed", result_.crashed);
    metrics_.counter("adversary.drops", result_.adv_drops);
    metrics_.counter("adversary.duplicates", result_.adv_dups);
    metrics_.counter("adversary.delays", result_.adv_delays);
    metrics_.counter("adversary.recoveries", result_.recoveries);
    metrics_.counter("adversary.crash_drops", result_.adv_crash_drops);
    for (NodeId s = 0; s < graph_.n(); ++s)
      procs_[s]->export_metrics(metrics_);
    result_.metrics = metrics_.snapshot();
  }
  return result_;
}

std::vector<CounterDiff> diff_counters(const RunResult& base,
                                       const RunResult& got) {
  std::vector<std::uint64_t> values;
  for_each_counter(base, [&](const char*, std::uint64_t v) {
    values.push_back(v);
  });
  std::vector<CounterDiff> out;
  std::size_t i = 0;
  for_each_counter(got, [&](const char* name, std::uint64_t v) {
    if (v != values[i]) out.push_back({name, values[i], v});
    ++i;
  });
  return out;
}

std::string describe_nontermination(const RunResult& r) {
  if (r.completed && r.undecided == 0) return "";
  // Two distinct failure shapes: a run that never quiesced (livelock — hit
  // the round cap with work still pending) and a run that quiesced with
  // undecided nodes (deadlock/starvation — a partition, a crash, or dropped
  // traffic left nodes waiting on messages that can no longer arrive).
  std::string out =
      r.completed
          ? "quiesced undecided at round " + std::to_string(r.rounds) +
                "; last progress (send or status change) at round " +
                std::to_string(r.last_progress)
          : "hit max_rounds at round " + std::to_string(r.rounds) +
                "; last progress (send or status change) at round " +
                std::to_string(r.last_progress);
  if (r.crashed > 0) {
    out += "; " + std::to_string(r.crashed) + " crash(es)";
    if (r.recoveries > 0)
      out += " (" + std::to_string(r.recoveries) + " recovered)";
    if (r.adv_crash_drops > 0)
      out += ", " + std::to_string(r.adv_crash_drops) +
             " message(s) purged in crashed windows";
  }
  out += "; " + std::to_string(r.undecided) + " undecided";
  if (!r.undecided_nodes.empty()) {
    out += " (nodes";
    for (const NodeId s : r.undecided_nodes) out += " " + std::to_string(s);
    if (r.undecided_nodes.size() >= 32) out += " ...";
    out += ")";
  }
  if (r.dead_links > 0) {
    out += "; " + std::to_string(r.dead_links) +
           " dead ARQ link(s) swallowed " + std::to_string(r.dead_link_drops) +
           " post-death send(s)";
    if (r.healed_links > 0)
      out += ", " + std::to_string(r.healed_links) + " later healed";
    if (!r.dead_link_nodes.empty()) {
      out += " (at nodes";
      for (const NodeId s : r.dead_link_nodes) out += " " + std::to_string(s);
      if (r.dead_link_nodes.size() >= 32) out += " ...";
      out += ")";
    }
  }
  return out;
}

}  // namespace ule
