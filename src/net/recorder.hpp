// Run narration, recorded on the process side: recording() puts each process
// behind a wrapper (net/wrapped_process.hpp) that logs its node's events, so
// a recorded run takes the engine's usual paths, parallel rounds included, to
// the same counters.  Events are visited in (round, slot, each node's order),
// which is the engine's execution order at every thread count: the order in
// which the bridge-crossing and majority-broadcast measures count sends.  A
// node reborn by the churn adversary starts an empty log; no caller narrates
// a churn run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "net/process.hpp"

namespace ule {

class SyncEngine;

/// One event of a recorded run.
struct TraceEvent {
  enum class Kind : std::uint8_t { Wake, Send, StatusChange };
  Kind kind = Kind::Send;
  Status status = Status::Undecided;  ///< StatusChange only
  PortId port = kNoPort;   ///< Send only: the sending port
  Round round = 0;
  NodeId node = kNoNode;
  NodeId peer = kNoNode;   ///< Send only: the receiving node
  FlatMsg msg;             ///< Send only: the payload
};

/// `make`, with each process behind a wrapper that logs its wake, each send
/// the engine accepted (a send that throws logs nothing) and each status
/// change.
ProcessFactory recording(ProcessFactory make);

/// Call f on each event of a run built with recording(), in execution order,
/// until f returns false.  Throws std::logic_error on an unrecorded slot.
void for_each_event(const SyncEngine& eng,
                    const std::function<bool(const TraceEvent&)>& f);

/// Render a recorded run round by round (up to max_lines event lines).
std::string format_trace(const SyncEngine& eng, std::size_t max_lines = 200);

}  // namespace ule
