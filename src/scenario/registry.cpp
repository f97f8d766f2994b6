#include "scenario/registry.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "election/clustering.hpp"
#include "net/message.hpp"
#include "net/reliable.hpp"
#include "election/dfs_election.hpp"
#include "election/explicit_elect.hpp"
#include "election/flood_max.hpp"
#include "election/kingdom.hpp"
#include "election/least_el.hpp"
#include "election/size_estimate.hpp"
#include "election/sublinear_complete.hpp"
#include "graphgen/clique_cycle.hpp"
#include "graphgen/dumbbell.hpp"
#include "graphgen/generators.hpp"
#include "graphgen/path_of_cliques.hpp"
#include "spanner/spanner_elect.hpp"

namespace ule {

const char* to_string(Contract c) {
  switch (c) {
    case Contract::Deterministic: return "deterministic";
    case Contract::LasVegas: return "las_vegas";
    case Contract::MonteCarlo: return "monte_carlo";
  }
  return "?";
}

namespace faults {

std::uint8_t classes(const ScenarioAdversary& adv) {
  std::uint8_t c = kNone;
  if (adv.max_delay != 0) c |= kDelay;
  if (adv.drop_pm != 0) c |= kDrop;
  if (adv.dup_pm != 0) c |= kDuplicate;
  if (adv.reorder_pm != 0) c |= kReorder;
  if (!adv.crashes.empty()) c |= kCrash;
  return c;
}

std::string to_string(std::uint8_t classes) {
  if (classes == kNone) return "none";
  std::string out;
  const auto append = [&](std::uint8_t bit, const char* name) {
    if (!(classes & bit)) return;
    if (!out.empty()) out += '|';
    out += name;
  };
  append(kDelay, "delay");
  append(kDrop, "drop");
  append(kDuplicate, "dup");
  append(kReorder, "reorder");
  append(kCrash, "crash");
  return out;
}

}  // namespace faults

ScenarioShape shape_of(const Graph& g, std::uint32_t diameter,
                       Round wakeup_span, bool adversarial_wakeup) {
  ScenarioShape s;
  s.n = g.n();
  s.m = g.m();
  s.diameter = diameter;
  s.complete = true;
  for (NodeId u = 0; u < g.n(); ++u) {
    if (g.degree(u) + 1 != g.n()) {
      s.complete = false;
      break;
    }
  }
  s.wakeup_span = wakeup_span;
  s.adversarial_wakeup = adversarial_wakeup;
  return s;
}

Knowledge knowledge_for(const ScenarioShape& shape, KnowledgeGrant grant) {
  switch (grant) {
    case KnowledgeGrant::None: return Knowledge::none();
    case KnowledgeGrant::N: return Knowledge::of_n(shape.n);
    case KnowledgeGrant::ND: return Knowledge::of_n_d(shape.n, shape.diameter);
    case KnowledgeGrant::NMD: return Knowledge::all(shape.n, shape.m, shape.diameter);
  }
  return Knowledge::none();
}

ProcessFactory prepare_protocol(const ProtocolInfo& info,
                                const ScenarioShape& shape, RunOptions& opt) {
  opt.knowledge = knowledge_for(shape, info.min_knowledge);
  return info.prepare(shape, opt);
}

void ProtocolRegistry::add(ProtocolInfo info) {
  if (find(info.name) != nullptr)
    throw std::invalid_argument("duplicate protocol \"" + info.name + "\"");
  protocols_.push_back(std::move(info));
}

const ProtocolInfo* ProtocolRegistry::find(const std::string& name) const {
  for (const ProtocolInfo& p : protocols_) {
    if (p.name == name) return &p;
  }
  return nullptr;
}

const ProtocolInfo& ProtocolRegistry::at(const std::string& name) const {
  const ProtocolInfo* p = find(name);
  if (!p) throw std::invalid_argument("unknown protocol \"" + name + "\"");
  return *p;
}

void FamilyRegistry::add(FamilyInfo info) {
  if (find(info.name) != nullptr)
    throw std::invalid_argument("duplicate family \"" + info.name + "\"");
  families_.push_back(std::move(info));
}

const FamilyInfo* FamilyRegistry::find(const std::string& name) const {
  for (const FamilyInfo& f : families_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

const FamilyInfo& FamilyRegistry::at(const std::string& name) const {
  const FamilyInfo* f = find(name);
  if (!f) throw std::invalid_argument("unknown family \"" + name + "\"");
  return *f;
}

// ---------------------------------------------------------------------------
// Built-in protocols
// ---------------------------------------------------------------------------

namespace {

/// log2(n) + 2, the "L" of the envelope formulas below (>= 2 for n >= 1).
std::uint64_t lg(std::size_t n) {
  std::uint64_t l = 2;
  while (n > 1) {
    n >>= 1;
    ++l;
  }
  return l;
}

/// Diameter + 1 (so envelopes never degenerate to 0 on complete graphs).
Round dia(const ScenarioShape& s) { return Round{s.diameter} + 1; }

/// Extra rounds an adversarial wakeup schedule may cost: the last waker plus
/// the time for the first waker's flood to drag everyone in.
Round wake_slack(const ScenarioShape& s) {
  return s.adversarial_wakeup ? s.wakeup_span + Round{s.diameter} + 8 : 0;
}

ProtocolRegistry build_protocols() {
  ProtocolRegistry reg;
  using Shape = ScenarioShape;

  // The O(D)-time deterministic baseline: echoes + outbox pacing put the
  // constant well above 1, and adoption chains (up to O(log n) expected
  // improvements per node under random id placement) stretch both envelopes.
  // Safety declarations (safe_under) are EMPIRICAL
  // contracts, pinned per class by the adversary conformance matrix
  // (tests/scenario/adversary_matrix_test.cpp) and hunted at scale by the
  // fuzzer's adversarial draws (counterexamples that survived the small
  // matrix grid fell to `fuzz_scenarios --quick`).  The calibration cuts
  // against the obvious intuition in both directions:
  //   - reorder and crash-stop are safe for every protocol in the registry
  //     (no protocol reads its inbox positionally, and a crash only silences
  //     a node);
  //   - the wave/echo protocols (flood_max, the least-element family,
  //     las_vegas, size_estimate) survive NEITHER delay NOR drop NOR
  //     duplication: their completion accounting assumes exactly-once,
  //     FIFO delivery, so a dropped or overtaken forward lets a node
  //     complete its own wave without ever hearing the better id, and a
  //     duplicate trips "more echoes than forwards";
  //   - kingdom tolerates delay, drop and reorder (a lost merger just
  //     stalls the conquest) but NOT duplication — a replayed surrender
  //     resurrects a dead kingdom and two kings emerge;
  //   - sublinear_complete is the robust outlier (kAll): a referee decides
  //     exactly once, so forged or lost traffic only costs liveness;
  //   - the explicit overlay is strictly more fragile than its base
  //     election: a dropped or delayed LEADER flood re-elects.

  reg.add(ProtocolInfo{
      "flood_max", Contract::Deterministic, KnowledgeGrant::None,
      /*wakeup_tolerant=*/true, /*needs_complete=*/false,
      /*explicit_overlay=*/false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) { return make_flood_max(); },
      [](const Shape& s) { return 32 * dia(s) + 2 * s.n + 4 * wake_slack(s) + 64; },
      [](const Shape& s) { return 8 * s.m * (lg(s.n) + 8) + 8 * s.n + 64; },
      {{"ring", "rounds", 1.0, 0.25, "O(D) time; D = n/2 on the ring"},
       {"ring", "messages", 1.0, 0.35, "O(m log n); m = n on the ring"},
       {"complete", "messages", 2.0, 0.35, "O(m log n); m = n(n-1)/2 on K_n"},
       {"cliquepath", "rounds", 1.0, 0.3,
        "O(D) time on the diameter ladder (n ~fixed, D grows); pacing/echo "
        "constants deflate the local slope", "diameter"},
       {"star", "rounds", 0.0, 0.2,
        "O(D) time is independent of n at fixed D (star: D = 2)"}}});

  const auto least_el_rounds = [](const Shape& s) {
    return 32 * dia(s) + 2 * s.n + 4 * wake_slack(s) + 64;
  };
  const auto least_el_messages = [](const Shape& s) {
    return 8 * s.m * (lg(s.n) + 8) + 8 * s.n + 64;
  };

  reg.add(ProtocolInfo{
      "least_el_all", Contract::LasVegas, KnowledgeGrant::None,
      true, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) {
        return make_least_el(LeastElConfig::all_candidates());
      },
      least_el_rounds, least_el_messages,
      {{"ring", "messages", 1.0, 0.4, "O(m log n) least-element lists"},
       {"ring", "rounds", 1.0, 0.3, "O(D) waves; D = n/2 on the ring"},
       {"cliquepath", "rounds", 1.0, 0.3,
        "O(D) waves on the diameter ladder", "diameter"}}});

  reg.add(ProtocolInfo{
      "least_el_logn", Contract::MonteCarlo, KnowledgeGrant::N,
      true, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape& s, RunOptions&) {
        return make_least_el(LeastElConfig::variant_A(s.n));
      },
      least_el_rounds, least_el_messages,
      {{"ring", "messages", 1.0, 0.4,
        "O(m log n) with O(log n) expected candidates"}}});

  reg.add(ProtocolInfo{
      "least_el_f4", Contract::MonteCarlo, KnowledgeGrant::N,
      true, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) {
        return make_least_el(LeastElConfig::theorem_4_4(4.0));
      },
      least_el_rounds, least_el_messages});

  reg.add(ProtocolInfo{
      "least_el_b05", Contract::MonteCarlo, KnowledgeGrant::N,
      true, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) {
        return make_least_el(LeastElConfig::variant_B(0.05));
      },
      least_el_rounds, least_el_messages});

  // Cor 4.6: epoch restarts need the shared epoch clock, i.e. simultaneous
  // wakeup.  Worst case is a run of candidate-free epochs: P(fail) ~ e^-2
  // per epoch, so 48 epochs bound the tail at ~1e-41.
  reg.add(ProtocolInfo{
      "las_vegas", Contract::LasVegas, KnowledgeGrant::ND,
      false, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape& s, RunOptions&) {
        return make_least_el(LeastElConfig::las_vegas(s.diameter));
      },
      [](const Shape& s) { return 48 * (3 * dia(s) + 8) + 2 * s.n + 64; },
      least_el_messages,
      {{"ring", "messages", 1.0, 0.4,
        "O(m log n) least-element lists per epoch"},
       {"cliquepath", "rounds", 1.0, 0.4,
        "Cor 4.6: O(D)-round epochs at fixed n; the epoch-count median "
        "wobbles at small replicate counts", "diameter"}}});

  reg.add(ProtocolInfo{
      "size_estimate", Contract::LasVegas, KnowledgeGrant::None,
      true, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) { return make_size_estimate_elect(); },
      [](const Shape& s) { return 48 * dia(s) + 2 * s.n + 4 * wake_slack(s) + 96; },
      [](const Shape& s) { return 16 * s.m * (lg(s.n) + 8) + 16 * s.n + 64; },
      {{"ring", "messages", 1.0, 0.4, "O(m log n) without knowing n"},
       {"barbell", "rounds", 1.0, 0.4,
        "O(D) up/down census waves at fixed n", "diameter"}}});

  reg.add(ProtocolInfo{
      "clustering", Contract::MonteCarlo, KnowledgeGrant::N,
      false, false, false,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) { return make_clustering(); },
      [](const Shape& s) { return 64 * dia(s) * lg(s.n) + 2 * s.n + 256; },
      [](const Shape& s) { return 16 * s.m + 64 * s.n * lg(s.n) + 64; },
      {{"gnm", "messages", 1.0, 0.45, "O(m + n log n) cluster formation"},
       {"barbell", "rounds", 0.5, 0.35,
        "O(D log n) cluster growth at fixed n: the additive Theta(log n) "
        "phase cost halves the local slope at lab-sized D; slope 0 (no D "
        "dependence) and slope 1 both leave the band", "diameter"}}});

  const auto kingdom_messages = [](const Shape& s) {
    return 32 * s.m * (lg(s.n) + 4) + 8 * s.n + 64;
  };
  reg.add(ProtocolInfo{
      "kingdom", Contract::Deterministic, KnowledgeGrant::None,
      true, false, false,
      /*safe_under=*/faults::kDelay | faults::kDrop | faults::kReorder |
          faults::kCrash,
      [](const Shape&, RunOptions&) { return make_kingdom(); },
      [](const Shape& s) {
        return 128 * dia(s) + 32 * lg(s.n) + 2 * s.n + 4 * wake_slack(s) + 128;
      },
      kingdom_messages,
      {{"ring", "messages", 1.0, 0.4, "O(m log n) kingdom mergers"},
       {"ring", "rounds", 1.0, 0.35, "O(D log n) merger phases"},
       {"cliquecycle", "rounds", 1.0, 0.35,
        "O(D log n) merger phases; log n fixed on the D-ladder",
        "diameter"}}});

  reg.add(ProtocolInfo{
      "kingdom_knownD", Contract::Deterministic, KnowledgeGrant::ND,
      true, false, false,
      /*safe_under=*/faults::kDelay | faults::kDrop | faults::kReorder |
          faults::kCrash,
      // Safety is message-driven (the spanning check holds "regardless of
      // timing").  Liveness under delay USED to fail (the PR-6 livelock):
      // the fixed D+1 radius assumed the first-arrival BFS tree is a
      // shortest-path tree, which bounded delays break — a claim that
      // detoured can land at tree depth up to D*(1+max_delay), and the
      // budget-less node reports an open frontier forever.  The budget now
      // accounts for the delay bound (KingdomConfig::delay_bound, set from
      // the scenario's adversary below), restoring termination; recalibrated
      // live by the adversary matrix's delay rungs and fuzz sweeps.
      [](const Shape& s, RunOptions& opt) {
        KingdomConfig cfg;
        cfg.known_diameter = std::max<std::uint64_t>(1, s.diameter);
        cfg.delay_bound = opt.adversary.max_delay;
        return make_kingdom(cfg);
      },
      [](const Shape& s) {
        return 128 * dia(s) + 32 * lg(s.n) + 2 * s.n + 4 * wake_slack(s) + 128;
      },
      kingdom_messages});

  // Theorem 4.1: RandomPermutation ids keep the smallest id at 1 (delay 2),
  // so the winner's 4m-step DFS finishes in O(m) logical rounds.
  reg.add(ProtocolInfo{
      "dfs", Contract::Deterministic, KnowledgeGrant::None,
      true, false, false,
      /*safe_under=*/faults::kDelay | faults::kDrop | faults::kReorder | faults::kCrash,
      [](const Shape& s, RunOptions& opt) {
        opt.ids = IdScheme::RandomPermutation;
        DfsConfig cfg;
        cfg.wake_broadcast = s.adversarial_wakeup;
        return make_dfs_election(cfg);
      },
      [](const Shape& s) { return 32 * s.m + 8 * dia(s) + 4 * wake_slack(s) + 256; },
      [](const Shape& s) { return 16 * s.m + 4 * s.n + 64; },
      {{"ring", "rounds", 1.0, 0.25, "Theorem 4.1: O(m) time; m = n on the ring"},
       {"ring", "messages", 1.0, 0.25, "Theorem 4.1: O(m) messages"}}});

  // Cor 4.2: the Baswana–Sen construction runs on a fixed global round
  // schedule, so simultaneous wakeup is required.  The election runs on the
  // spanner, whose diameter is <= (2k-1) D + 2k.
  reg.add(ProtocolInfo{
      "spanner_elect", Contract::LasVegas, KnowledgeGrant::N,
      false, false, false,
      /*safe_under=*/faults::kReorder,
      [](const Shape&, RunOptions&) {
        return make_spanner_elect(SpannerElectConfig{3, 0});
      },
      [](const Shape& s) { return 200 * dia(s) + 2 * s.n + 256; },
      [](const Shape& s) { return 24 * s.m + 8 * s.n * (lg(s.n) + 8) + 64; },
      {{"gnm", "messages", 1.0, 0.45,
        "O(m) Baswana-Sen + O(n log n) election on the spanner"},
       {"cliquecycle", "rounds", 0.75, 0.3,
        "Cor 4.2: O(D) election on the 3-spanner (diameter <= (2k-1)D + 2k) "
        "after O(1) construction phases, whose additive rounds deflate the "
        "local slope at lab-sized D", "diameter"}}});

  reg.add(ProtocolInfo{
      "sublinear_complete", Contract::MonteCarlo, KnowledgeGrant::N,
      false, /*needs_complete=*/true, false,
      /*safe_under=*/faults::kAll,
      [](const Shape&, RunOptions&) { return make_sublinear_complete(); },
      [](const Shape&) { return Round{16}; },
      [](const Shape& s) { return 4 * s.m + 4 * s.n + 64; },
      {{"complete", "messages", 0.5, 0.45,
        "KPPRT sublinear bound ~O(sqrt(n) log^{3/2} n): the log^{3/2} factor "
        "inflates the local slope at lab sizes, but it must stay well below "
        "the linear-in-m trivial bound (slope 2)"},
       {"complete", "rounds", 0.0, 0.15, "O(1) rounds on K_n"}}});

  // The explicit-election overlay over the flood-max baseline: same run plus
  // one LEADER flood (<= 2m messages, <= D + pacing extra rounds).  The
  // runner additionally checks leader-id agreement at every node.
  reg.add(ProtocolInfo{
      "explicit_flood_max", Contract::Deterministic, KnowledgeGrant::None,
      true, false, /*explicit_overlay=*/true,
      /*safe_under=*/faults::kReorder | faults::kCrash,
      [](const Shape&, RunOptions&) { return make_explicit(make_flood_max()); },
      [](const Shape& s) { return 48 * dia(s) + 2 * s.n + 4 * wake_slack(s) + 128; },
      [](const Shape& s) {
        return 8 * s.m * (lg(s.n) + 8) + 2 * s.m + 8 * s.n + 64;
      },
      {{"ring", "messages", 1.0, 0.35,
        "O(m log n) + one O(m) LEADER announcement flood"},
       {"cliquepath", "rounds", 1.0, 0.35,
        "O(D) election + one O(D) LEADER flood", "diameter"}}});

  // -------------------------------------------------------------------------
  // Reliable variants: the base protocol behind the ARQ link layer
  // (net/reliable.hpp).  The wrapper restores exactly-once per-port FIFO
  // delivery, so every variant's SAFETY holds under the full mask and its
  // LIVENESS survives lossy adversaries and bounded churn too
  // (reliable_transport = true: the runner enforces termination up to 60%
  // loss, and through rebirths inside the bounded-churn window) — the
  // measurable price is the retransmit/ack message overhead, fitted by the
  // lab's loss axis.
  //
  // Envelopes: fault-free a wrapped run sends at most one ack per data frame
  // (piggybacked or standalone) and retransmits nothing (the ack round trip
  // is 2 rounds < every legal rto), so 2x the base messages plus slack is
  // universal; the runner stretches both envelopes further when an adversary
  // is active (drop/dup multiply traffic, delay multiplies rounds).  Rounds
  // gain only the final ack-drain tail plus the give-up horizon on crashed
  // links (attempts ride the backoff ladder, capped well under 512 for every
  // legal rto/cap the fuzzer draws).
  const auto add_reliable = [&reg](const std::string& base,
                                   std::vector<GrowthExpectation> growth) {
    ProtocolInfo p = reg.at(base);
    p.name = base + "_reliable";
    p.safe_under = faults::kAll;
    p.reliable_transport = true;
    p.growth = std::move(growth);
    const auto base_prepare = p.prepare;
    p.prepare = [base_prepare](const Shape& s, RunOptions& opt) {
      ReliableConfig cfg = opt.reliable;
      if (cfg.rto == 0) {
        // Auto rto: the fault-free ack round trip is 2 rounds and each leg
        // stretches by up to max_delay — never time out a frame whose ack is
        // still legally in flight.
        cfg.rto = kReliableDefaultRto +
                  2 * static_cast<std::uint32_t>(opt.adversary.max_delay);
      }
      if (cfg.backoff_cap == 0) cfg.backoff_cap = 8 * cfg.rto;
      if (cfg.backoff_cap < cfg.rto) cfg.backoff_cap = cfg.rto;
      // Delay-sensitive bases (kingdom_knownD's fixed radius) must budget
      // for ARQ-induced latency, not just the adversary's delay knob: a
      // dropped frame is re-sent only after a backed-off interval, so one
      // hop can legally stall for the entire retransmit ladder.  Expose
      // that bound through opt.adversary.max_delay for the base prepare's
      // eyes only — the engine's real adversary config is restored before
      // the run.  (Fuzz-calibrated: without this, kingdom_knownD_reliable
      // under drop alone relaunched its fixed-radius expedition for tens of
      // thousands of rounds before converging.)
      const Round real_delay = opt.adversary.max_delay;
      if (opt.adversary.active()) {
        opt.adversary.max_delay =
            real_delay + Round{cfg.backoff_cap} * (cfg.max_retries + 1);
      }
      ProcessFactory inner = base_prepare(s, opt);
      opt.adversary.max_delay = real_delay;
      // The ARQ header is link-layer cost, not algorithm payload: raise the
      // CONGEST budget by exactly the header so the inner protocol's own
      // width discipline is still what the budget checks.
      opt.congest_bits =
          wire::kTypeTag + 8 * wire::kIdField + kReliableHeaderBits;
      return make_reliable(std::move(inner), cfg);
    };
    // 3x, not 2x: phase-driven protocols (kingdom) relaunch on straggler
    // reports, and ARQ latency stretches every phase — fuzz-calibrated
    // (kingdom_knownD_reliable on bipartite under drop=283pm ran 1.5x past
    // a 2x envelope while still terminating fine).
    const auto base_rounds = p.round_envelope;
    p.round_envelope = [base_rounds](const Shape& s) {
      return 3 * base_rounds(s) + 512;
    };
    const auto base_messages = p.message_envelope;
    p.message_envelope = [base_messages](const Shape& s) {
      return 4 * base_messages(s) + 4 * s.m + 512;
    };
    reg.add(std::move(p));
  };

  add_reliable("flood_max",
               {{"ring", "messages", 1.0, 0.4,
                 "wrapped O(m log n): the exponent in n is the base "
                 "protocol's (the ARQ tax is a constant factor fault-free)"},
                {"ring", "messages", 1.0, 0.5,
                 "retransmit overhead: messages ~ base * O(1/(1-p)) against "
                 "x = 1/(1-p) on the drop ladder", "loss"},
                {"ring", "rounds", 3.5, 2.5,
                 "ARQ latency is superlinear in x = 1/(1-p): a lost frame "
                 "stalls a whole backed-off interval (~rto*2^k rounds), not "
                 "one transmission, so the local slope sits near rto-ish "
                 "powers of x; the band gates that it stays polynomial",
                 "loss"}});
  add_reliable("least_el_all", {});
  add_reliable("dfs", {});
  add_reliable("kingdom",
               {{"ring", "messages", 1.0, 0.5,
                 "retransmit overhead on the merger traffic: messages ~ "
                 "base * O(1/(1-p))", "loss"}});
  add_reliable("kingdom_knownD", {});
  add_reliable("explicit_flood_max", {});

  return reg;
}

// ---------------------------------------------------------------------------
// Built-in graph families
// ---------------------------------------------------------------------------

std::uint64_t get_param(const ScenarioParams& ps, const char* name) {
  for (const auto& [k, v] : ps) {
    if (k == name) return v;
  }
  throw std::invalid_argument(std::string("missing family param \"") + name +
                              "\"");
}

/// Clamp a drawn size to [lo, hi] — every draw() must respect its declared
/// ParamSpec range even for huge --max-n, or run_scenario's validation
/// rejects the fuzzer's own output.
std::uint64_t cap(std::uint64_t v, std::uint64_t lo, std::uint64_t hi) {
  return std::clamp(v, lo, hi);
}

ScenarioParams params1(const char* a, std::uint64_t va) { return {{a, va}}; }
ScenarioParams params2(const char* a, std::uint64_t va, const char* b,
                       std::uint64_t vb) {
  return {{a, va}, {b, vb}};
}

/// Halve-and-decrement candidates for one parameter, clamped at `lo`.
void shrink_param(std::vector<ScenarioParams>& out, const ScenarioParams& ps,
                  std::size_t idx, std::uint64_t lo) {
  const std::uint64_t v = ps[idx].second;
  if (v / 2 >= lo && v / 2 < v) {
    ScenarioParams c = ps;
    c[idx].second = v / 2;
    out.push_back(std::move(c));
  }
  if (v > lo) {
    ScenarioParams c = ps;
    c[idx].second = v - 1;
    out.push_back(std::move(c));
  }
}

/// A family with one size parameter `n` in [lo, hi].
FamilyInfo simple_family(const char* name, std::uint64_t lo, std::uint64_t hi,
                         std::function<Graph(std::uint64_t)> make,
                         bool complete = false) {
  FamilyInfo f;
  f.name = name;
  f.params = {{"n", lo, hi}};
  f.complete = complete;
  f.build = [make = std::move(make)](const ScenarioParams& ps, Rng&) {
    return make(get_param(ps, "n"));
  };
  f.draw = [lo, hi](Rng& rng, std::size_t max_n) {
    const std::uint64_t ub = std::clamp<std::uint64_t>(max_n, lo, hi);
    return params1("n", rng.in_range(lo, ub));
  };
  f.shrink = [lo](const ScenarioParams& ps) {
    std::vector<ScenarioParams> out;
    shrink_param(out, ps, 0, lo);
    return out;
  };
  return f;
}

FamilyRegistry build_families() {
  FamilyRegistry reg;

  reg.add(simple_family("ring", 3, 4096,
                        [](std::uint64_t n) { return make_cycle(n); }));
  reg.add(simple_family("path", 2, 4096,
                        [](std::uint64_t n) { return make_path(n); }));
  reg.add(simple_family("star", 2, 4096,
                        [](std::uint64_t n) { return make_star(n); }));
  reg.add(simple_family(
      "complete", 2, 512, [](std::uint64_t n) { return make_complete(n); },
      /*complete=*/true));

  {
    FamilyInfo f;
    f.name = "bipartite";
    f.params = {{"a", 1, 2048}, {"b", 1, 2048}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      const auto a = get_param(ps, "a"), b = get_param(ps, "b");
      if (a + b < 2) throw std::invalid_argument("bipartite needs >= 2 nodes");
      return make_complete_bipartite(a, b);
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t half = cap(max_n / 2, 1, 2048);
      return params2("a", rng.in_range(1, half), "b",
                     rng.in_range(2, half > 1 ? half : 2));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 1);
      shrink_param(out, ps, 1, 1);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "grid";
    f.params = {{"rows", 1, 128}, {"cols", 1, 128}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      const auto r = get_param(ps, "rows"), c = get_param(ps, "cols");
      if (r * c < 2) throw std::invalid_argument("grid needs >= 2 nodes");
      return make_grid(r, c);
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t r = rng.in_range(1, std::max<std::uint64_t>(2, std::min<std::uint64_t>(12, max_n / 2)));
      const std::uint64_t c_hi = std::clamp<std::uint64_t>(
          max_n / std::max<std::uint64_t>(1, r), 2, 128);
      return params2("rows", r, "cols", rng.in_range(2, c_hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 1);
      shrink_param(out, ps, 1, 2);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "torus";
    f.params = {{"rows", 3, 64}, {"cols", 3, 64}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_torus(get_param(ps, "rows"), get_param(ps, "cols"));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t cap =
          std::max<std::uint64_t>(3, std::min<std::uint64_t>(10, max_n / 3));
      const std::uint64_t r = rng.in_range(3, cap);
      const std::uint64_t c_hi =
          std::clamp<std::uint64_t>(max_n / r, 3, 64);
      return params2("rows", r, "cols", rng.in_range(3, c_hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 3);
      shrink_param(out, ps, 1, 3);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "hypercube";
    f.params = {{"dim", 1, 12}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_hypercube(static_cast<unsigned>(get_param(ps, "dim")));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      std::uint64_t max_dim = 1;
      while ((std::uint64_t{2} << max_dim) <= max_n && max_dim < 7) ++max_dim;
      return params1("dim", rng.in_range(1, max_dim));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 1);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "tree";
    f.params = {{"n", 2, 4096}, {"arity", 1, 8}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_balanced_tree(get_param(ps, "n"), get_param(ps, "arity"));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      return params2("n", rng.in_range(2, cap(max_n, 2, 4096)), "arity",
                     rng.in_range(1, 4));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 2);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "lollipop";
    f.params = {{"clique", 2, 256}, {"tail", 1, 2048}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_lollipop(get_param(ps, "clique"), get_param(ps, "tail"));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t cl =
          rng.in_range(2, std::max<std::uint64_t>(2, std::min<std::uint64_t>(12, max_n / 2)));
      const std::uint64_t tail_hi = cap(max_n > cl ? max_n - cl : 1, 1, 2048);
      return params2("clique", cl, "tail", rng.in_range(1, tail_hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 2);
      shrink_param(out, ps, 1, 1);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "barbell";
    f.params = {{"clique", 2, 256}, {"bridge", 1, 2048}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_barbell(get_param(ps, "clique"), get_param(ps, "bridge"));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t cl =
          rng.in_range(2, std::max<std::uint64_t>(2, std::min<std::uint64_t>(10, max_n / 3)));
      const std::uint64_t bridge_hi =
          cap(max_n > 2 * cl ? max_n - 2 * cl : 1, 1, 2048);
      return params2("clique", cl, "bridge", rng.in_range(1, bridge_hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 2);
      shrink_param(out, ps, 1, 1);
      return out;
    };
    // D-ladder: bridge = D - 2 (one clique hop at each end is exact for
    // clique >= 2), cliques absorb the rest of the nominal size.  n stays
    // within ~1 of nominal: 2*clique + bridge - 1.
    DiameterLadder dl;
    dl.min_d = 3;
    dl.max_d = 1024;
    dl.rung = [](std::uint64_t nominal_n, std::uint64_t d) {
      const std::uint64_t spare = nominal_n > d - 3 ? nominal_n - (d - 3) : 4;
      const std::uint64_t clique = std::clamp<std::uint64_t>(spare / 2, 2, 256);
      return DiameterRung{params2("clique", clique, "bridge", d - 2), d};
    };
    f.diameter_ladder = std::move(dl);
    reg.add(std::move(f));
  }

  {
    // Path of `cliques` groups of `size` nodes with consecutive groups
    // completely joined: every hop changes the group index by exactly one, so
    // the diameter is exactly cliques - 1 for every size >= 1.  That
    // exactness is the point — it is the diameter-ladder workhorse (fixed
    // nominal n, growing D) for the O(D)-time claims.
    FamilyInfo f;
    f.name = "cliquepath";
    f.params = {{"cliques", 2, 2048}, {"size", 1, 64}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_path_of_cliques(get_param(ps, "cliques"),
                                  get_param(ps, "size"));
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t size = rng.in_range(1, 4);
      const std::uint64_t hi = cap(max_n / size, 2, 2048);
      return params2("cliques", rng.in_range(2, hi), "size", size);
    };
    f.shrink = [](const ScenarioParams& ps) {
      std::vector<ScenarioParams> out;
      shrink_param(out, ps, 0, 2);
      shrink_param(out, ps, 1, 1);
      return out;
    };
    DiameterLadder dl;
    dl.min_d = 2;
    dl.max_d = 2047;
    dl.rung = [](std::uint64_t nominal_n, std::uint64_t d) {
      const std::uint64_t cliques = d + 1;
      const std::uint64_t size = std::clamp<std::uint64_t>(
          (nominal_n + cliques / 2) / cliques, 1, 64);
      return DiameterRung{params2("cliques", cliques, "size", size), d};
    };
    f.diameter_ladder = std::move(dl);
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "gnm";
    f.params = {{"n", 2, 4096}, {"m", 1, 1u << 22}};
    f.build = [](const ScenarioParams& ps, Rng& rng) {
      return make_random_connected(get_param(ps, "n"), get_param(ps, "m"), rng);
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t n = rng.in_range(4, cap(max_n, 4, 4096));
      const std::uint64_t hi =
          std::min<std::uint64_t>(n * (n - 1) / 2, n - 1 + 4 * n);
      return params2("n", n, "m", rng.in_range(n - 1, hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      const std::uint64_t n = ps[0].second, m = ps[1].second;
      std::vector<ScenarioParams> out;
      const auto clamp_m = [](std::uint64_t nn, std::uint64_t mm) {
        return std::clamp<std::uint64_t>(mm, nn - 1, nn * (nn - 1) / 2);
      };
      for (const std::uint64_t nn : {n / 2, n - 1}) {
        if (nn >= 2 && nn < n)
          out.push_back(params2("n", nn, "m", clamp_m(nn, m)));
      }
      if (m / 2 >= n - 1 && m / 2 < m)
        out.push_back(params2("n", n, "m", m / 2));
      return out;
    };
    reg.add(std::move(f));
  }

  {
    FamilyInfo f;
    f.name = "regular";
    f.params = {{"n", 4, 4096}, {"d", 3, 16}};
    f.build = [](const ScenarioParams& ps, Rng& rng) {
      return make_random_regular(get_param(ps, "n"), get_param(ps, "d"), rng);
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t d = rng.in_range(3, 6);
      std::uint64_t n = rng.in_range(d + 2, cap(max_n, d + 2, 4095));
      if ((n * d) % 2 != 0) ++n;
      return params2("n", n, "d", d);
    };
    f.shrink = [](const ScenarioParams& ps) {
      const std::uint64_t n = ps[0].second, d = ps[1].second;
      std::vector<ScenarioParams> out;
      for (std::uint64_t nn : {n / 2, n - 2}) {
        if ((nn * d) % 2 != 0) ++nn;
        if (nn > d + 1 && nn < n) out.push_back(params2("n", nn, "d", d));
      }
      if (d > 3 && (n * (d - 1)) % 2 == 0)
        out.push_back(params2("n", n, "d", d - 1));
      return out;
    };
    reg.add(std::move(f));
  }

  {
    // Theorem 3.1's construction: `n` and `m` are PER-SIDE (total 2n nodes);
    // ol / or index the opened clique edge on each side.
    FamilyInfo f;
    f.name = "dumbbell";
    f.params = {{"n", 3, 2048}, {"m", 3, 4096}, {"ol", 0, 4096}, {"or", 0, 4096}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      const auto m = get_param(ps, "m");
      const std::size_t count = dumbbell_open_edge_count(m);
      const auto ol = get_param(ps, "ol"), orr = get_param(ps, "or");
      if (ol >= count || orr >= count)
        throw std::invalid_argument("open edge index out of range");
      return make_dumbbell(get_param(ps, "n"), m, ol, orr).graph;
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t m = rng.in_range(3, 45);
      const std::uint64_t kappa = dumbbell_clique_size(m);
      const std::uint64_t side =
          rng.in_range(kappa + 1, cap(max_n / 2, kappa + 1, 2048));
      const std::uint64_t count = dumbbell_open_edge_count(m);
      ScenarioParams ps = params2("n", side, "m", m);
      ps.emplace_back("ol", rng.below(count));
      ps.emplace_back("or", rng.below(count));
      return ps;
    };
    f.shrink = [](const ScenarioParams& ps) {
      const std::uint64_t n = ps[0].second, m = ps[1].second;
      std::vector<ScenarioParams> out;
      const auto cand = [&](std::uint64_t nn, std::uint64_t mm) {
        if (mm < 3) return;
        const std::uint64_t kappa = dumbbell_clique_size(mm);
        nn = std::max<std::uint64_t>(nn, kappa + 1);
        if (nn >= ps[0].second && mm >= ps[1].second) return;  // no progress
        ScenarioParams c = params2("n", nn, "m", mm);
        c.emplace_back("ol", 0);
        c.emplace_back("or", 0);
        out.push_back(std::move(c));
      };
      cand(n / 2, m);
      cand(n - 1, m);
      cand(n, m / 2);
      return out;
    };
    reg.add(std::move(f));
  }

  {
    // Theorem 3.13's construction; actual node count is gamma * D' ∈ Θ(n).
    FamilyInfo f;
    f.name = "cliquecycle";
    f.params = {{"n", 4, 4096}, {"D", 3, 512}};
    f.build = [](const ScenarioParams& ps, Rng&) {
      return make_clique_cycle(get_param(ps, "n"), get_param(ps, "D")).graph;
    };
    f.draw = [](Rng& rng, std::size_t max_n) {
      const std::uint64_t n = rng.in_range(8, cap(max_n, 8, 4096));
      const std::uint64_t hi =
          std::max<std::uint64_t>(3, std::min<std::uint64_t>(16, n / 2));
      return params2("n", n, "D", rng.in_range(3, hi));
    };
    f.shrink = [](const ScenarioParams& ps) {
      const std::uint64_t n = ps[0].second, d = ps[1].second;
      std::vector<ScenarioParams> out;
      if (n / 2 >= 4) out.push_back(params2("n", n / 2, "D", std::min(d, n / 4 > 3 ? n / 4 : 3)));
      if (n > 4) out.push_back(params2("n", n - 1, "D", d));
      if (d / 2 >= 3) out.push_back(params2("n", n, "D", d / 2));
      return out;
    };
    // D-ladder: the construction rounds the requested D up to D' = 4*ceil(D/4)
    // cliques; for gamma >= 3 the exact diameter is D' + 1 (antipodal middle
    // nodes pay D'/2 connector edges each way plus one entry->exit hop inside
    // every traversed clique and one hop out of / into the end cliques).
    // gamma >= 3 is forced by raising n to 3*D' when the nominal size is too
    // small for the rung; tests/graphgen/family_properties_test.cpp pins the
    // closed form by BFS.
    DiameterLadder dl;
    dl.min_d = 3;
    dl.max_d = 512;
    dl.rung = [](std::uint64_t nominal_n, std::uint64_t d) {
      const std::uint64_t d_prime = 4 * ((d + 3) / 4);
      const std::uint64_t n = std::clamp<std::uint64_t>(
          std::max(nominal_n, 3 * d_prime), 4, 4096);
      return DiameterRung{params2("n", n, "D", d), d_prime + 1};
    };
    f.diameter_ladder = std::move(dl);
    reg.add(std::move(f));
  }

  return reg;
}

}  // namespace

const ProtocolRegistry& default_protocols() {
  static const ProtocolRegistry reg = build_protocols();
  return reg;
}

const FamilyRegistry& default_families() {
  static const FamilyRegistry reg = build_families();
  return reg;
}

}  // namespace ule
