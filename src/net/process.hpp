// The distributed algorithm interface.
//
// A Process is the code running at one node.  It sees only: its degree, its
// assigned unique ID (unless the network is anonymous), whatever global
// parameters the Knowledge grants, its private coins, and the messages
// arriving on its ports.  All interaction goes through the Context the engine
// passes into the callbacks.
//
// Lifecycle: the engine calls on_wake() once (at the node's scheduled wakeup
// round, or earlier if a message arrives first — the classical wake-on-message
// rule), then on_round() every round while the process is RUNNING, plus at
// any round where a message arrives or a sleep deadline fires.  A process may
// idle() (wake only on message), sleep_until(r) (wake at r or on message), or
// halt() (terminal).  Rounds with no runnable process and no in-flight
// messages are skipped wholesale by the engine, which is what makes the 2^ID
// step delays of Theorem 4.1 simulable.
//
// THREAD-SAFETY CONTRACT (parallel rounds, EngineConfig::threads > 1): the
// engine may step different nodes of one round on different worker threads.
// A step may freely touch anything owned by its own node — the Process
// object itself, ctx.rng() (a per-node stream keyed by (seed, slot), see
// net/rng.hpp), status, scheduling verbs, and sends (routed to a per-worker
// outbox lane) — but must NOT read or write state shared with other
// Processes.  Everything reachable through Context besides those is
// read-only shared data (graph topology, uids, Knowledge).  Messages are
// plain values (net/message.hpp), so a received envelope may be copied and
// kept freely.  Every Process in this library is self-contained per node;
// factories must not hand out objects with shared mutable state if runs may
// use threads > 1.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "net/knowledge.hpp"
#include "net/message.hpp"
#include "net/rng.hpp"
#include "net/types.hpp"

namespace ule {

/// Leader-election status; the paper's {⊥, elected, non-elected}.
enum class Status : std::uint8_t { Undecided, Elected, NonElected };

class Context {
 public:
  virtual ~Context() = default;

  // --- local, always-legal information ---
  virtual NodeId slot() const = 0;        ///< dense engine index (not an ID!)
  virtual std::size_t degree() const = 0;
  virtual bool anonymous() const = 0;
  virtual Uid uid() const = 0;            ///< throws if anonymous
  virtual Round round() const = 0;
  virtual Rng& rng() = 0;
  virtual const Knowledge& knowledge() const = 0;

  // --- actions ---
  /// Send `msg` on `port`; it arrives next round (net/message.hpp).  The
  /// message is copied inline into the engine's delivery buffers.  `link` is
  /// the link-layer header, delivered beside the message and never read by
  /// the engine; protocols leave it zeroed.
  virtual void send(PortId port, const FlatMsg& msg,
                    const LinkHeader& link = {}) = 0;
  virtual void set_status(Status s) = 0;
  virtual Status status() const = 0;

  /// Stop being scheduled every round; wake on message arrival only.
  virtual void idle() = 0;
  /// Wake at the given absolute round (or earlier on message arrival).
  virtual void sleep_until(Round r) = 0;
  /// Terminal: never scheduled again; pending messages to this node are
  /// still delivered (and counted) but dropped.
  virtual void halt() = 0;

  /// Convenience: send the same payload on every port.
  void broadcast(const FlatMsg& msg) {
    for (PortId p = 0; p < degree(); ++p) send(p, msg);
  }
};

class MetricsSink;  // net/metrics.hpp

class Process {
 public:
  virtual ~Process() = default;

  /// Called exactly once, at the node's wakeup.  `inbox` holds any messages
  /// that arrived in the wakeup round (non-empty when woken by a message).
  virtual void on_wake(Context& ctx, std::span<const Envelope> inbox) = 0;

  /// Called on every subsequent round the node is runnable.
  virtual void on_round(Context& ctx, std::span<const Envelope> inbox) = 0;

  /// Contribute named counters to an end-of-run metrics sweep (see
  /// net/metrics.hpp).  The engine calls this sequentially in slot order —
  /// after the round loop, never concurrently with it — so implementations
  /// just report their own state.  Wrappers must forward to their inner
  /// process so nested subsystems stay observable.  Default: no counters.
  virtual void export_metrics(MetricsSink& sink) const { (void)sink; }
};

/// Builds the process for a slot; wrappers take one and return another.
using ProcessFactory = std::function<std::unique_ptr<Process>(NodeId)>;

}  // namespace ule
