#include "broadcast/broadcast.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "net/engine.hpp"
#include "net/recorder.hpp"
#include "net/wrapped_process.hpp"

namespace ule {

void FloodBroadcastProcess::on_wake(Context& ctx,
                                    std::span<const Envelope> inbox) {
  if (is_source_) {
    informed_round_ = ctx.round();
    // A degree-0 source has already informed its whole (singleton) graph;
    // the return value only signals that no echoes will come.
    (void)pool_.originate(ctx, WaveKey{1, 1});
  }
  if (!inbox.empty()) {
    on_round(ctx, inbox);
  } else {
    ctx.idle();
  }
}

void FloodBroadcastProcess::on_round(Context& ctx,
                                     std::span<const Envelope> inbox) {
  const WavePool::Events ev = pool_.on_round(ctx, inbox);
  if (ev.improved && informed_round_ == kRoundForever)
    informed_round_ = ctx.round();
  if (ev.own_complete) complete_round_ = ctx.round();
  ctx.idle();
}

ProcessFactory make_flood_broadcast(NodeId source) {
  return [source](NodeId slot) {
    return std::make_unique<FloodBroadcastProcess>(slot == source);
  };
}

std::uint64_t sends_before(const SyncEngine& eng, Round r) {
  std::uint64_t sends = 0;
  for_each_event(eng, [&](const TraceEvent& ev) {
    if (ev.round >= r) return false;  // events come in round order
    sends += ev.kind == TraceEvent::Kind::Send;
    return true;
  });
  return sends;
}

BroadcastReport run_broadcast(const Graph& g, NodeId source,
                              std::uint64_t seed) {
  EngineConfig cfg;
  cfg.seed = seed;
  SyncEngine eng(g, cfg);
  eng.init_processes(recording(make_flood_broadcast(source)));
  const RunResult res = eng.run();

  BroadcastReport rep;
  rep.messages_total = res.messages;
  rep.rounds_total = res.rounds;

  // Round at which the (floor(n/2)+1)-th node became informed.
  std::vector<Round> informed;
  informed.reserve(g.n());
  bool all = true;
  for (NodeId s = 0; s < g.n(); ++s) {
    const auto* p = unwrap<FloodBroadcastProcess>(eng.process(s));
    if (p->informed()) {
      informed.push_back(p->informed_round());
    } else {
      all = false;
    }
  }
  rep.all_informed = all;
  const std::size_t need = g.n() / 2 + 1;
  if (informed.size() >= need) {
    std::nth_element(informed.begin(), informed.begin() + (need - 1),
                     informed.end());
    rep.round_majority = informed[need - 1];
    // Messages sent in rounds < round_majority (informing messages were
    // sent the round before they arrived).
    rep.messages_majority = sends_before(eng, rep.round_majority);
  }
  return rep;
}

}  // namespace ule
