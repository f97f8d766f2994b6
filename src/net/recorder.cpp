#include "net/recorder.hpp"

#include <queue>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "net/engine.hpp"
#include "net/wrapped_process.hpp"

namespace ule {
namespace {

using Kind = TraceEvent::Kind;

// Logs its inner's events (for_each_event fills in `node` and `peer`) and
// forwards the inner's wish verbatim: the engine schedules it as the inner.
class RecordingProcess final : public WrappedProcess {
 public:
  explicit RecordingProcess(std::unique_ptr<Process> inner)
      : WrappedProcess(std::move(inner)) {
    // Bridge-crossing runs log tens of events a node; growing every log from
    // empty made those tests ~15% slower.
    log.reserve(32);
  }
  std::vector<TraceEvent> log;

 private:
  class LogCtx final : public InnerCtx {
   public:
    LogCtx(Context& real, std::vector<TraceEvent>& log, RecordingProcess& w)
        : InnerCtx(real, w), log_(log) {}
    void send(PortId port, const FlatMsg& msg,
              const LinkHeader& link) override {
      real_.send(port, msg, link);
      log_.push_back({.kind = Kind::Send, .port = port,
                      .round = real_.round(), .msg = msg});
    }
    void set_status(Status s) override {
      if (s != real_.status())
        log_.push_back({.kind = Kind::StatusChange, .status = s,
                        .round = real_.round(), .msg = {}});
      real_.set_status(s);
    }
    std::vector<TraceEvent>& log_;
  };

  void run_step(Context& ctx, std::span<const Envelope> inbox,
                bool wake) override {
    if (wake)
      log.push_back({.kind = Kind::Wake, .round = ctx.round(), .msg = {}});
    LogCtx lc(ctx, log, *this);
    step_inner(lc, inbox, wake);
    switch (inner_wish()) {
      case Wish::Running:
        return;
      case Wish::Idle:
        return ctx.idle();
      case Wish::Sleep:
        return ctx.sleep_until(inner_deadline());
      case Wish::Halt:
        return ctx.halt();
    }
  }
};

}  // namespace

ProcessFactory recording(ProcessFactory make) {
  return [make = std::move(make)](NodeId slot) {
    return std::make_unique<RecordingProcess>(make(slot));
  };
}

void for_each_event(const SyncEngine& eng,
                    const std::function<bool(const TraceEvent&)>& f) {
  // Merge the logs on a min-heap of each log's next (round, slot, index).
  const Graph& g = eng.graph();
  std::vector<const std::vector<TraceEvent>*> logs(g.n());
  using Head = std::tuple<Round, NodeId, std::size_t>;
  std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* rec = unwrap<RecordingProcess>(eng.process(s));
    if (rec == nullptr)
      throw std::logic_error("slot " + std::to_string(s) + " was not recorded");
    logs[s] = &rec->log;
    if (!rec->log.empty()) heads.emplace(rec->log.front().round, s, 0);
  }
  while (!heads.empty()) {
    auto [round, s, i] = heads.top();
    heads.pop();
    for (const auto& log = *logs[s]; i < log.size(); ++i) {
      if (log[i].round != round) {
        heads.emplace(log[i].round, s, i);
        break;
      }
      TraceEvent ev = log[i];
      ev.node = s;
      if (ev.kind == Kind::Send) ev.peer = g.half_edge(s, ev.port).to;
      if (!f(ev)) return;
    }
  }
}

std::string format_trace(const SyncEngine& eng, std::size_t max_lines) {
  static constexpr const char* kStatus[] = {"?", "elected", "non-elected"};
  std::string out;
  Round current = kRoundForever;
  std::size_t lines = 0;
  for_each_event(eng, [&](const TraceEvent& ev) {
    if (lines++ == max_lines) {
      out += "... (truncated at " + std::to_string(max_lines) + " lines)\n";
      return false;
    }
    if (ev.round != current)
      out += "--- round " + std::to_string(current = ev.round) + " ---\n";
    out += "  n" + std::to_string(ev.node);
    if (ev.kind == Kind::Wake)
      out += " wakes\n";
    else if (ev.kind == Kind::Send)
      out += " -> n" + std::to_string(ev.peer) + " (port " +
             std::to_string(ev.port) + "): " + flat_debug_string(ev.msg) + "\n";
    else
      out += std::string(" status := ") +
             kStatus[static_cast<int>(ev.status)] + "\n";
    return true;
  });
  return out;
}

}  // namespace ule
