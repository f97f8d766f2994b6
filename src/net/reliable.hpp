// Reliable per-edge transport: the ack/retransmit/dedup wrapper that upgrades
// fault-fragile protocols to survive the full delivery adversary.
//
// PR 6's fuzz calibration showed most protocols lean on the paper's lockstep
// model: wave pools need exactly-once FIFO delivery, kingdom dies to
// duplication, and delays break any per-edge ordering assumption
// (docs/ADVERSARY.md).  ReliableProcess buys those guarantees back the way a
// real network stack does — as a link layer with a measurable message cost:
//
//   * per-(edge, direction) sequence numbers on every data frame;
//   * receiver-side dedup (a seq below the delivery cursor is re-acked and
//     dropped) and a FIFO resequencing buffer (out-of-order seqs park until
//     the gap fills), so the inner protocol sees exactly-once, per-port FIFO
//     delivery no matter what the adversary did in flight;
//   * cumulative acks piggybacked on every outgoing data frame, with a
//     standalone ack frame only when an edge has ack news but no traffic —
//     an idle edge costs exactly zero messages;
//   * round-based retransmit timeouts with bounded exponential backoff.  The
//     deadlines ride the engine's existing wake min-heap (Context::
//     sleep_until), so a node with no unacked frames schedules nothing and
//     the quiescent-round cost is untouched.  After `max_retries`
//     retransmissions without ack progress the link is declared dead and its
//     queue dropped — this is what lets runs with crashed peers (or
//     drop = 1.0 partitions) reach quiescence instead of retransmitting
//     forever;
//   * link healing: a dead port is not dead forever.  The next fresh inner
//     send re-arms it from a fresh EPOCH — every seq stream is tagged with
//     the epoch it belongs to (derived from the round of the stream's first
//     fresh send, so epochs are strictly monotone across a port's lives and
//     across node rebirths).  The receiver adopts a newer epoch by resetting
//     its delivery cursor and resequencing buffer; a frame from an older
//     epoch is a stale retransmit from a dead life and is discarded and
//     counted (arq.stale_epoch_drops), never resequenced.  Acks are
//     epoch-qualified the same way (ack_epoch names the stream the
//     cumulative ack refers to), so a stale ack can never pop frames of a
//     successor stream.  Healing is what lets a run survive churn: a node
//     reborn by the adversary's recovery schedule starts a fresh wrapper
//     whose streams open new epochs, and its peers' go-back-all queues
//     replay their history to the new incarnation from seq 1.
//
// Every decision is a pure function of (round, seq, config): the wrapper
// draws no randomness and reads no thread-dependent state, so wrapped runs
// stay bit-for-bit deterministic at every thread count, exactly like the
// adversary itself.
//
// Wire format: a frame is one FlatMsg plus the envelope's LinkHeader
// (net/message.hpp), which the engine carries inline and never reads.
//
//   data frame  the inner FlatMsg as sent, with bits = inner.bits + 72
//   pure ack    FlatMsg{type kReliableAckType, channel kReliableAckChannel,
//               bits = 72}; the channel is reserved in election/channels.hpp
//   LinkHeader  seq        per-(edge, direction) sequence number; 0 = pure ack
//               epoch      epoch of the seq stream
//               ack        cumulative ack: every seq <= ack has been delivered
//               ack_epoch  epoch of the peer's stream the ack refers to
//
// The 72 header bits are kReliableHeaderBits = kTypeTag + 2*kCounter (tag,
// seq, ack); the epoch tags ride in that budget, so link healing added no
// bits.  The engine bills `bits` as
// usual and knows nothing about ARQ; the receiving wrapper subtracts the
// header again, so the inner protocol sees its own `bits` value.  Reliable
// registry variants raise their CONGEST budget by kReliableHeaderBits (a
// link-layer header keeps O(log n) messages O(log n)).
//
// A caller that wants no ARQ does not wrap.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/message.hpp"
#include "net/wrapped_process.hpp"

namespace ule {

/// ARQ header cost on top of the inner payload: type tag + seq + ack.
inline constexpr std::uint32_t kReliableHeaderBits =
    wire::kTypeTag + 2 * wire::kCounter;

/// The pure ack's payload tag.  The channel is the link layer's own and is
/// reserved in election/channels.hpp, so no protocol message collides.
inline constexpr std::uint8_t kReliableAckChannel = 255;
inline constexpr std::uint16_t kReliableAckType = 1;

struct ReliableConfig {
  /// Rounds without ack progress before the first retransmission.  0 = auto
  /// (kReliableDefaultRto).  Callers that know the adversary's max_delay
  /// should set 4 + 2*max_delay: the fault-free ack round trip is 2 rounds,
  /// and each leg stretches by up to max_delay.
  std::uint32_t rto = 0;
  /// Upper bound on the backed-off retransmit interval.  0 = auto (8 * rto).
  std::uint32_t backoff_cap = 0;
  /// Retransmissions without ack progress before the link is declared dead
  /// and its queue dropped (bounds the message cost of unreachable peers).
  /// Each attempt fails with probability 1 - (1-p)^2 (data leg AND some ack
  /// leg must survive), so the default must survive the lab's loss ladder
  /// top rung: at p = 0.6 an attempt fails w.p. 0.84, and 0.84^121 ≈ 7e-10
  /// makes spurious link death astronomically unlikely across a whole
  /// campaign — while a true partition still quiesces after
  /// ~cap·max_retries rounds.  (30 retries looked safe but gave 0.84^31 ≈
  /// 0.5% death per burst at p = 0.6 — observed as a quiesced-undecided
  /// kingdom_reliable run in the first loss campaign.)
  std::uint32_t max_retries = 120;
};

inline constexpr std::uint32_t kReliableDefaultRto = 4;

/// Wraps any Process with the reliable link layer.  One instance per node;
/// per-port sender/receiver state is sized lazily from the node's degree.
class ReliableProcess final : public WrappedProcess {
 public:
  ReliableProcess(std::unique_ptr<Process> inner, ReliableConfig cfg);

  /// Reports the arq.* counters below and forwards to the inner process.
  void export_metrics(MetricsSink& sink) const override;

  const ReliableConfig& config() const { return cfg_; }

  /// Retransmissions performed so far (diagnostics/tests).
  std::uint64_t retransmissions() const { return retransmissions_; }
  /// Data frames discarded because their seq was already delivered (true
  /// duplicates: adversary copies and go-back-all resends of acked frames).
  std::uint64_t duplicate_drops() const { return duplicate_drops_; }
  /// Data frames buffered out of order for later in-order delivery.  NOT a
  /// drop — every parked frame is eventually delivered — but counted
  /// separately so reordering pressure is observable.
  std::uint64_t parked_frames() const { return parked_frames_; }
  /// Ports this sender declared dead after exhausting max_retries.
  std::uint64_t dead_links() const { return dead_links_; }
  /// Fresh inner sends swallowed because their port was already dead.
  /// Always zero since link healing: the first fresh send to a dead port
  /// re-arms it instead of being swallowed.  Kept (counter, metrics name and
  /// RunResult plumbing) so the failure-path diagnostics stay stable.
  std::uint64_t dead_link_drops() const { return dead_link_drops_; }
  /// Dead ports re-armed from a fresh epoch by a later fresh inner send.
  std::uint64_t healed_links() const { return healed_links_; }
  /// Data frames discarded because they belonged to a dead epoch of their
  /// stream (stale retransmits from before a heal) — dropped and counted,
  /// never resequenced.
  std::uint64_t stale_epoch_drops() const { return stale_epoch_drops_; }

 private:
  class LinkCtx;

  struct Unacked {
    std::uint32_t seq = 0;
    FlatMsg msg;  ///< the inner message as sent
  };
  struct PortState {
    // --- sender side -----------------------------------------------------
    std::uint32_t next_seq = 1;  ///< seq assigned to the next fresh frame
    std::uint32_t acked = 0;     ///< highest cumulative ack received
    /// Epoch of the outgoing stream: stamped from the round of the stream's
    /// first fresh send (round + 1, so a live stream's epoch is never 0),
    /// re-stamped on heal.  Strictly monotone across the port's lives.
    std::uint32_t epoch = 0;
    /// In seq order; front is the oldest.  A vector, not a deque: an empty
    /// std::deque allocates, and most ports of most runs never send.
    std::vector<Unacked> unacked;
    std::uint32_t attempts = 0;  ///< retransmissions since last ack progress
    Round rto_deadline = kRoundForever;
    bool dead = false;           ///< gave up; healed by the next fresh send
    std::uint32_t fresh = 0;     ///< frames enqueued by the inner this step
    // --- receiver side ---------------------------------------------------
    std::uint32_t expected = 1;  ///< next in-order seq to deliver
    /// Epoch of the incoming stream the cursor tracks.  A data frame with a
    /// newer epoch resets the cursor and the parked buffer; an older one is
    /// a stale retransmit, dropped and counted.
    std::uint32_t rx_epoch = 0;
    std::map<std::uint32_t, FlatMsg> parked;  ///< out-of-order buffer
    bool ack_due = false;        ///< ack news with no data to ride on yet
  };

  void run_step(Context& ctx, std::span<const Envelope> inbox,
                bool wake) override;
  /// Reads the frames in `inbox` and appends the inner messages they
  /// complete, in delivery order, to inner_inbox_.
  void ingest(Context& ctx, std::span<const Envelope> inbox);
  void enqueue_data(PortId port, const FlatMsg& msg, Round now);
  void flush(Context& ctx);
  /// Put one frame on the wire: `msg` billed with the header, which carries
  /// `seq` (0 = pure ack) and the port's current epochs and cumulative ack.
  void send_frame(Context& ctx, PortId port, std::uint32_t seq,
                  const FlatMsg& msg);
  /// Backed-off retransmit interval after `attempts` fruitless rounds:
  /// min(rto << attempts, backoff_cap) — a pure function of (attempts, cfg).
  Round interval(std::uint32_t attempts) const;
  void arm_deadline(PortState& ps, Round now) const;

  ReliableConfig cfg_;
  std::vector<PortState> ports_;
  /// The inner's inbox for the current step; cleared at the top of each
  /// step, its capacity kept across steps.
  std::vector<Envelope> inner_inbox_;
  std::uint64_t retransmissions_ = 0;
  std::uint64_t duplicate_drops_ = 0;
  std::uint64_t parked_frames_ = 0;
  std::uint64_t dead_links_ = 0;
  std::uint64_t dead_link_drops_ = 0;
  std::uint64_t healed_links_ = 0;
  std::uint64_t stale_epoch_drops_ = 0;
};

/// Wrap a process factory with the reliable link layer.  `cfg.rto == 0`
/// resolves to kReliableDefaultRto; pass an explicit value (e.g.
/// 4 + 2*max_delay) when the adversary's delay bound is known.
ProcessFactory make_reliable(ProcessFactory inner, ReliableConfig cfg = {});

}  // namespace ule
