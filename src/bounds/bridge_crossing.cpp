#include "bounds/bridge_crossing.hpp"

#include <algorithm>

#include "graphgen/graph_algos.hpp"
#include "net/recorder.hpp"
#include "net/rng.hpp"

namespace ule {

FirstCrossing first_crossing(const SyncEngine& eng,
                             std::span<const EdgeId> edges) {
  FirstCrossing cross;
  for_each_event(eng, [&](const TraceEvent& ev) {
    if (ev.kind != TraceEvent::Kind::Send) return true;
    const EdgeId e = eng.graph().half_edge(ev.node, ev.port).edge;
    if (std::find(edges.begin(), edges.end(), e) != edges.end()) {
      cross.round = ev.round;
      return false;
    }
    ++cross.messages_before;
    return true;
  });
  return cross.round != kRoundForever ? cross : FirstCrossing{};
}

BridgeCrossingSummary run_bridge_crossing(std::size_t n, std::size_t m,
                                          const ProcessFactory& factory,
                                          std::size_t samples,
                                          std::uint64_t seed) {
  BridgeCrossingSummary sum;
  Rng pick(seed ^ 0xBC0FFEEULL);
  const std::size_t choices = dumbbell_open_edge_count(m);

  double total_before = 0.0, total_msgs = 0.0;
  std::size_t crossed = 0;

  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t left = pick.below(choices);
    const std::size_t right = pick.below(choices);
    const Dumbbell d = make_dumbbell(n, m, left, right);

    RunOptions opt;
    opt.seed = seed + 1000 * s + 7;
    opt.knowledge = Knowledge::all(d.graph.n(), d.graph.m(), d.diameter);

    const EdgeId bridges[] = {d.bridge1, d.bridge2};
    FirstCrossing cross;
    const ElectionReport rep = run_election(
        d.graph, recording(factory), opt,
        [&](const SyncEngine& eng) { cross = first_crossing(eng, bridges); });

    BridgeCrossingRun run;
    run.open_left = left;
    run.open_right = right;
    run.messages_total = rep.run.messages;
    run.rounds_total = rep.run.rounds;
    run.unique_leader = rep.verdict.unique_leader;
    run.first_cross = cross.round;
    run.messages_before_cross = cross.messages_before;
    if (run.first_cross != kRoundForever) {
      ++crossed;
      total_before += static_cast<double>(run.messages_before_cross);
    }
    total_msgs += static_cast<double>(run.messages_total);

    sum.side_m = (d.graph.m() - 2) / 2;  // minus the two bridges
    sum.kappa = d.kappa;
    sum.runs.push_back(run);
  }

  if (crossed > 0)
    sum.mean_messages_before_cross = total_before / static_cast<double>(crossed);
  sum.mean_messages_total = total_msgs / static_cast<double>(samples);
  sum.crossing_fraction =
      static_cast<double>(crossed) / static_cast<double>(samples);
  return sum;
}

}  // namespace ule
