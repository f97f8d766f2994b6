#include "net/reliable.hpp"

#include <algorithm>
#include <utility>

#include "net/metrics.hpp"

namespace ule {

namespace {
/// A pure ack's payload; send_frame adds the header bits.
constexpr FlatMsg kPureAck{kReliableAckType, kReliableAckChannel};
}  // namespace

// The inner protocol's sends feed the per-port ARQ queues; everything else
// is the shared pass-through.  The inner protocol's link header stays zero;
// the wrapper writes its own.
class ReliableProcess::LinkCtx final : public InnerCtx {
 public:
  LinkCtx(Context& real, ReliableProcess& owner)
      : InnerCtx(real, owner), owner_(owner) {}

  void send(PortId port, const FlatMsg& msg, const LinkHeader&) override {
    owner_.enqueue_data(port, msg, real_.round());
  }

 private:
  ReliableProcess& owner_;
};

ReliableProcess::ReliableProcess(std::unique_ptr<Process> inner,
                                 ReliableConfig cfg)
    : WrappedProcess(std::move(inner)), cfg_(cfg) {
  if (cfg_.rto == 0) cfg_.rto = kReliableDefaultRto;
  if (cfg_.backoff_cap == 0) cfg_.backoff_cap = 8 * cfg_.rto;
  if (cfg_.backoff_cap < cfg_.rto) cfg_.backoff_cap = cfg_.rto;
}

Round ReliableProcess::interval(std::uint32_t attempts) const {
  // min(rto << attempts, cap) without overflowing the shift.
  const std::uint32_t shift = std::min<std::uint32_t>(attempts, 24);
  const std::uint64_t raw = std::uint64_t{cfg_.rto} << shift;
  return std::min<std::uint64_t>(raw, cfg_.backoff_cap);
}

void ReliableProcess::arm_deadline(PortState& ps, Round now) const {
  ps.rto_deadline =
      ps.unacked.empty() ? kRoundForever : now + interval(ps.attempts);
}

void ReliableProcess::ingest(Context& ctx, std::span<const Envelope> inbox) {
  const Round now = ctx.round();
  // Every peer runs the same wrapped factory, so every arrival is a frame:
  // a pure ack when its seq is 0, a data frame otherwise.
  for (const Envelope& env : inbox) {
    const LinkHeader& hdr = env.link;
    PortState& ps = ports_[env.port];

    // Cumulative ack: pop everything the peer has now delivered.  Progress
    // resets the backoff ladder and re-arms the timer from this round.
    // Epoch-qualified: an ack for a dead life of our stream (the peer acking
    // frames from before a heal) must never pop the successor stream's
    // frames, so only an ack naming our current epoch counts.
    if (hdr.ack_epoch == ps.epoch && hdr.ack > ps.acked) {
      ps.acked = hdr.ack;
      ps.unacked.erase(
          ps.unacked.begin(),
          std::find_if(ps.unacked.begin(), ps.unacked.end(),
                       [&](const Unacked& u) { return u.seq > hdr.ack; }));
      ps.attempts = 0;
      arm_deadline(ps, now);
    }

    if (hdr.seq == 0) continue;  // pure ack: no data side

    // Epoch gate before any resequencing.  Older epoch = a stale retransmit
    // from a dead life of the peer's stream: discard and count — parking it
    // would let a dead life's seqs corrupt the successor stream's cursor.
    // Newer epoch = the peer healed (or is a reborn node's fresh wrapper):
    // adopt it by resetting the delivery cursor and the parked buffer.
    if (hdr.epoch < ps.rx_epoch) {
      ++stale_epoch_drops_;
      continue;
    }
    if (hdr.epoch > ps.rx_epoch) {
      ps.rx_epoch = hdr.epoch;
      ps.expected = 1;
      ps.parked.clear();
    }

    // The inner protocol sees its message exactly as it was sent.
    FlatMsg inner = env.flat;
    inner.bits -= kReliableHeaderBits;
    if (hdr.seq < ps.expected) {
      // Duplicate of a delivered frame — the peer is retransmitting, so our
      // ack was lost: re-ack (standalone if no data rides this round).
      ++duplicate_drops_;
      ps.ack_due = true;
    } else if (hdr.seq == ps.expected) {
      // In order: deliver, then drain every parked successor.
      inner_inbox_.push_back(Envelope{env.port, inner, {}});
      ++ps.expected;
      for (auto it = ps.parked.find(ps.expected); it != ps.parked.end();
           it = ps.parked.find(ps.expected)) {
        inner_inbox_.push_back(Envelope{env.port, it->second, {}});
        ps.parked.erase(it);
        ++ps.expected;
      }
      ps.ack_due = true;
    } else {
      // Out of order: park until the gap fills (dedup via try_emplace), and
      // re-ack so the sender learns the gap persists.  A re-park of an
      // already-parked seq is a duplicate, not new reordering pressure.
      if (ps.parked.try_emplace(hdr.seq, inner).second)
        ++parked_frames_;
      else
        ++duplicate_drops_;
      ps.ack_due = true;
    }
  }
}

void ReliableProcess::enqueue_data(PortId port, const FlatMsg& msg,
                                   Round now) {
  PortState& ps = ports_[port];
  if (ps.dead) {
    // Heal: the first fresh send after a give-up re-arms the port as a new
    // stream.  The dead life's seqs and acks are fenced off by the fresh
    // epoch stamped below (next_seq was reset to 1 here).
    ps.dead = false;
    ps.next_seq = 1;
    ps.acked = 0;
    ps.attempts = 0;
    ++healed_links_;
  }
  // A stream's epoch is the round of its first fresh send, plus one so a
  // live stream is never epoch 0.  Monotone across the port's lives: a heal
  // (and a reborn node's fresh wrapper) always opens at a strictly later
  // round than the previous life's first send.
  if (ps.next_seq == 1)
    ps.epoch = static_cast<std::uint32_t>(now) + 1;
  const std::uint32_t seq = ps.next_seq++;
  ps.unacked.push_back(Unacked{seq, msg});
  ++ps.fresh;
}

void ReliableProcess::send_frame(Context& ctx, PortId port, std::uint32_t seq,
                                 const FlatMsg& msg) {
  const PortState& ps = ports_[port];
  FlatMsg frame = msg;
  frame.bits += kReliableHeaderBits;
  // Cumulative ack: every seq below `expected` has been delivered.
  ctx.send(port, frame,
           LinkHeader{seq, ps.epoch, ps.expected - 1, ps.rx_epoch});
}

void ReliableProcess::flush(Context& ctx) {
  const Round now = ctx.round();
  const std::size_t deg = ports_.size();
  for (PortId p = 0; p < deg; ++p) {
    PortState& ps = ports_[p];
    bool sent_data = false;

    if (!ps.unacked.empty() && now >= ps.rto_deadline) {
      // Timeout: no ack progress for a full backed-off interval.
      ++ps.attempts;
      if (ps.attempts > cfg_.max_retries) {
        // Link dead (crashed peer or a total partition): drop the queue so
        // the run can quiesce instead of retransmitting forever.  Not dead
        // forever — the next fresh inner send heals the port from a fresh
        // epoch (enqueue_data).
        ps.dead = true;
        ++dead_links_;
        ps.unacked.clear();
        ps.fresh = 0;
        ps.rto_deadline = kRoundForever;
      } else {
        // Go-back-all: retransmit every unacked frame (the receiver dedups
        // and re-acks, so over-sending costs messages, never correctness).
        for (const Unacked& u : ps.unacked) send_frame(ctx, p, u.seq, u.msg);
        retransmissions_ += ps.unacked.size();
        ps.fresh = 0;  // fresh frames went out with the batch
        sent_data = true;
        arm_deadline(ps, now);
      }
    }

    if (ps.fresh > 0) {
      // First transmission of the frames the inner enqueued this step.
      const std::size_t start = ps.unacked.size() - ps.fresh;
      for (std::size_t i = start; i < ps.unacked.size(); ++i)
        send_frame(ctx, p, ps.unacked[i].seq, ps.unacked[i].msg);
      ps.fresh = 0;
      sent_data = true;
      arm_deadline(ps, now);
    }

    if (sent_data) {
      ps.ack_due = false;  // the cumulative ack rode on the data frames
    } else if (ps.ack_due) {
      // Ack news but no traffic to piggyback on: one standalone ack frame.
      send_frame(ctx, p, 0, kPureAck);
      ps.ack_due = false;
    }
  }
}

void ReliableProcess::run_step(Context& ctx, std::span<const Envelope> inbox,
                               bool wake) {
  if (ports_.empty() && ctx.degree() > 0) ports_.resize(ctx.degree());

  inner_inbox_.clear();
  ingest(ctx, inbox);

  // The inner sees the reassembled messages; a pure retransmit or ack wake
  // does not step it.
  LinkCtx lc(ctx, *this);
  step_inner(lc, inner_inbox_, wake);

  flush(ctx);

  // Arbitrate scheduling.  The wrapper never halts: even after the inner
  // algorithm is done, peers may retransmit at us and the re-acks that stop
  // them only flow while we can still be woken by an arrival.  Idle costs
  // nothing (no heap entry), so quiescence is reached exactly when every
  // queue has drained or died.
  Round my_wake = kRoundForever;
  for (const PortState& ps : ports_)
    my_wake = std::min(my_wake, ps.rto_deadline);

  Round inner_wake = kRoundForever;
  switch (inner_wish()) {
    case Wish::Running:
      return;  // inner stays runnable; deadlines are checked every round
    case Wish::Sleep:
      inner_wake = inner_deadline();
      break;
    case Wish::Idle:
    case Wish::Halt:
      break;  // forever
  }
  const Round wake_at = std::min(inner_wake, my_wake);
  if (wake_at == kRoundForever) {
    ctx.idle();
  } else {
    ctx.sleep_until(wake_at);
  }
}

void ReliableProcess::export_metrics(MetricsSink& sink) const {
  sink.counter("arq.retransmissions", retransmissions_);
  sink.counter("arq.duplicate_drops", duplicate_drops_);
  sink.counter("arq.parked_frames", parked_frames_);
  sink.counter("arq.dead_links", dead_links_);
  sink.counter("arq.dead_link_drops", dead_link_drops_);
  sink.counter("arq.healed_links", healed_links_);
  sink.counter("arq.stale_epoch_drops", stale_epoch_drops_);
  WrappedProcess::export_metrics(sink);
}

ProcessFactory make_reliable(ProcessFactory inner, ReliableConfig cfg) {
  return [inner = std::move(inner),
          cfg](NodeId slot) -> std::unique_ptr<Process> {
    return std::make_unique<ReliableProcess>(inner(slot), cfg);
  };
}

}  // namespace ule
