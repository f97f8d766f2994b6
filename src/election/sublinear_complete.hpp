// Sublinear-message election on complete graphs — the [14] context result.
//
// The paper's framing turns on this: "it was recently shown that the
// randomized message complexity of leader election in complete graphs is
// sublinear, O(sqrt(n) log^{3/2} n) [14]" — which is why the Ω(m) and Ω(D)
// *universal* lower bounds of Theorems 3.1/3.13 are non-obvious, and why
// they must (and do) evade complete graphs: the dumbbell construction has
// bottleneck bridges, a clique does not.
//
// This is a simplified 2-round referee version of Kutten–Pandurangan–
// Peleg–Robinson–Trehan (ICDCN'13):
//
//   round 0  each node becomes a candidate with probability
//            min(1, candidate_factor * ln(n) / n)  (Θ(log n) candidates);
//            a candidate draws a random rank and sends QUERY(rank) to
//            referee_factor * sqrt(n ln n) distinct random ports;
//   round 1  every queried node (referee) replies VERDICT(max rank seen)
//            to each querier;
//   round 2  a candidate elects itself iff every verdict equals its own
//            rank; everyone else is non-elected.
//
// Whp analysis: Θ(log n) candidates exist (miss prob n^{-Θ(cf)}); any two
// referee sets of size r = rf*sqrt(n ln n) intersect with probability
// 1 - e^{-r^2/n} = 1 - n^{-rf^2}, so every weaker candidate shares a
// referee with the strongest and hears a larger rank; rank collisions are
// n^{-Θ(1)} with the n^4 domain + random tiebreak.  Messages:
// Θ(log n) * r queries + as many verdicts = O(sqrt(n) log^{3/2} n) —
// *sublinear in n*, let alone m = n(n-1)/2.  Time: 3 rounds.
//
// Requires: a complete topology (checked: degree = n-1), knowledge of n,
// simultaneous wakeup.  Works anonymously (ranks and tiebreaks are private
// coins).

#pragma once

#include <cstdint>
#include <vector>

#include "election/election.hpp"
#include "net/process.hpp"

namespace ule {

struct SublinearConfig {
  /// Candidacy probability = min(1, candidate_factor * ln(n) / n).
  double candidate_factor = 3.0;
  /// Referee-set size = min(n-1, ceil(referee_factor * sqrt(n ln n))).
  double referee_factor = 2.0;
  /// Rank domain (0 = auto n^4).
  std::uint64_t rank_space = 0;
};

class SublinearCompleteProcess final : public Process {
 public:
  explicit SublinearCompleteProcess(SublinearConfig cfg) : cfg_(cfg) {}

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override;
  void on_round(Context& ctx, std::span<const Envelope> inbox) override;

  // Instrumentation.
  bool is_candidate() const { return candidate_; }

 private:
  SublinearConfig cfg_;
  bool candidate_ = false;
  bool decided_ = false;
  std::uint64_t rank_ = 0;
  std::uint64_t tiebreak_ = 0;
  std::size_t expected_verdicts_ = 0;
  std::size_t verdicts_seen_ = 0;
  bool lost_ = false;
};

ProcessFactory make_sublinear_complete(SublinearConfig cfg = {});

}  // namespace ule
