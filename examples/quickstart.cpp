// Quickstart: elect a leader on a random network in a dozen lines.
//
// Builds a random connected graph, runs the least-element-list election of
// Theorem 4.4 variant (A) — O(D) rounds, O(m log log n) expected messages,
// success with high probability — and prints what happened.
//
//   $ ./quickstart [n] [m] [seed]
//   $ ./quickstart trace          # tiny run + round-by-round event trace

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "election/least_el.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/engine.hpp"
#include "net/recorder.hpp"

namespace {

// A recorded run can be narrated (net/recorder.hpp): wakes, every message
// with its payload, and status changes, grouped by round.
int traced_demo() {
  using namespace ule;
  const ule::Graph g = make_cycle(5);
  EngineConfig cfg;
  cfg.seed = 7;
  SyncEngine eng(g, cfg);
  Rng id_rng(3);
  eng.set_uids(assign_ids(g.n(), IdScheme::RandomPermutation, id_rng));
  eng.set_knowledge(Knowledge::of_n(g.n()));
  eng.init_processes(
      recording(make_least_el(LeastElConfig::all_candidates())));
  eng.run();
  std::printf("least-element election on cycle(5), narrated:\n%s",
              format_trace(eng).c_str());
  return 0;
}

}  // namespace

using namespace ule;

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "trace") == 0) return traced_demo();
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 64;
  const std::size_t m = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 4 * n;
  const std::uint64_t seed = argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 1;

  // 1. A network: any connected Graph works; generators cover the classics.
  Rng graph_rng(42);
  const Graph g = make_random_connected(n, m, graph_rng);
  const std::uint64_t diameter = diameter_exact(g);

  // 2. An algorithm: Theorem 4.4 (A) samples ~log n candidates (needs n).
  const auto algorithm = make_least_el(LeastElConfig::variant_A(n));

  // 3. Run options: who knows what, ID assignment, the run seed.
  RunOptions opt;
  opt.seed = seed;
  opt.ids = IdScheme::RandomFromZ;  // adversarial IDs from [1, n^4]
  opt.knowledge = Knowledge::of_n(n);

  // 4. Go.
  const ElectionReport rep = run_election(g, algorithm, opt);

  std::printf("network    : %s, diameter %llu\n", g.summary().c_str(),
              static_cast<unsigned long long>(diameter));
  std::printf("algorithm  : least-element lists, f(n) = log2 n "
              "(Theorem 4.4.A)\n");
  if (rep.verdict.unique_leader) {
    std::printf("result     : node %u elected (id %llu); %zu non-elected\n",
                rep.verdict.leader_slot,
                static_cast<unsigned long long>(
                    rep.uids[rep.verdict.leader_slot]),
                rep.verdict.non_elected);
  } else {
    std::printf("result     : FAILED (%zu elected, %zu undecided) — "
                "possible but exponentially unlikely\n",
                rep.verdict.elected, rep.verdict.undecided);
  }
  std::printf("cost       : %llu rounds (%.2f x D), %llu messages "
              "(%.2f x m)\n",
              static_cast<unsigned long long>(rep.run.rounds),
              static_cast<double>(rep.run.rounds) /
                  static_cast<double>(diameter),
              static_cast<unsigned long long>(rep.run.messages),
              static_cast<double>(rep.run.messages) /
                  static_cast<double>(g.m()));
  std::printf("congestion : %llu CONGEST violations (0 = every round sent "
              "<= 1 message per edge direction)\n",
              static_cast<unsigned long long>(rep.run.congest_violations));
  return rep.verdict.unique_leader ? 0 : 1;
}
