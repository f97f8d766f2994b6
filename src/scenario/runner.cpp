#include "scenario/runner.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>

#include "election/explicit_elect.hpp"
#include "graphgen/graph_algos.hpp"
#include "net/wakeup.hpp"

namespace ule {

namespace {

/// Engine round cap = round envelope * this.  Breaching the envelope is the
/// violation; the cap only bounds how long a broken run can spin.
constexpr Round kEnvelopeSlack = 4;

/// Domain-separated streams derived from the scenario seed, so the graph,
/// the wakeup schedule and the run itself never share coins.
Rng graph_rng(const Scenario& s) {
  std::uint64_t sm = s.seed ^ 0x6B7A9E3C51D20F84ULL;
  return Rng(splitmix64(sm));
}
Rng wakeup_rng(const Scenario& s) {
  std::uint64_t sm = s.seed ^ 0x2F8D14C6A0B97E35ULL;
  return Rng(splitmix64(sm));
}

void validate_params(const FamilyInfo& fam, const Scenario& s) {
  if (s.params.size() != fam.params.size())
    throw std::invalid_argument("family \"" + fam.name + "\" takes " +
                                std::to_string(fam.params.size()) +
                                " params, scenario has " +
                                std::to_string(s.params.size()));
  for (std::size_t i = 0; i < fam.params.size(); ++i) {
    const ParamSpec& spec = fam.params[i];
    const auto& [name, value] = s.params[i];
    if (name != spec.name)
      throw std::invalid_argument("family \"" + fam.name + "\" param " +
                                  std::to_string(i) + " must be \"" +
                                  spec.name + "\", got \"" + name + "\"");
    if (value < spec.lo || value > spec.hi)
      throw std::invalid_argument(
          "family \"" + fam.name + "\" param " + spec.name + "=" +
          std::to_string(value) + " outside [" + std::to_string(spec.lo) +
          ", " + std::to_string(spec.hi) + "]");
  }
}

/// Bounded-churn window for liveness enforcement.  The reliable wrapper's
/// rebirth story only guarantees termination when every crashed node went
/// down at round 0 — before its first step, so its first life is EMPTY.
/// Rebirth is then indistinguishable (to every peer's inner protocol) from
/// a late-waking node behind a lossy link: the peers' unacked queues hold
/// only organic traffic, which the go-back-all replay delivers exactly once
/// and in order to the reborn node's fresh epoch.  A node that crashes
/// AFTER stepping leaves responses to its first life (wave echoes) in its
/// peers' queues; the replay hands those to the fresh process, which never
/// sent the wave they answer — strict-accounting protocols (the pif wave
/// pool) reject that as a protocol violation.  And a node that crashes
/// after ACKING leaves its peers' streams gap-stuck (seqs past the acked
/// prefix park forever against a reset expected=1).  Both stay SAFE —
/// quiesce-undecided at worst — but not live.  The recover bound just keeps
/// the window inside the envelope stretch below; the ARQ give-up horizon is
/// orders of magnitude further out.
constexpr Round kChurnLivenessCrashBy = 0;
constexpr Round kChurnLivenessRecoverBy = 16;

/// Every crash is a rebirth inside the window (vacuously true without
/// crashes).
bool bounded_churn(const std::vector<ScenarioCrash>& cs) {
  for (const ScenarioCrash& c : cs) {
    if (c.recover == kRoundForever) return false;  // crash-stop, not churn
    if (c.at > kChurnLivenessCrashBy) return false;
    if (c.recover > kChurnLivenessRecoverBy) return false;
  }
  return true;
}

std::string counter_diff(const char* what, std::uint64_t base,
                         std::uint64_t got, unsigned threads) {
  return std::string("determinism: ") + what + " " + std::to_string(got) +
         " at threads=" + std::to_string(threads) + " != " +
         std::to_string(base) + " at threads=1";
}

}  // namespace

Graph build_scenario_graph(const FamilyRegistry& families, const Scenario& s) {
  const FamilyInfo& fam = families.at(s.family);
  validate_params(fam, s);
  Rng rng = graph_rng(s);
  return fam.build(s.params, rng);
}

std::vector<Round> scenario_wakeup(const Scenario& s, std::size_t n) {
  switch (s.wakeup) {
    case WakeupKind::Simultaneous:
      return {};
    case WakeupKind::Random: {
      Rng rng = wakeup_rng(s);
      return random_wakeup(n, s.wakeup_spread, rng);
    }
    case WakeupKind::Single:
      return single_wakeup(n, static_cast<NodeId>(s.wakeup_node % n));
  }
  return {};
}

ScenarioOutcome run_scenario(const ProtocolRegistry& protocols,
                             const FamilyRegistry& families, const Scenario& s,
                             const ScenarioRunConfig& cfg) {
  const ProtocolInfo& proto = protocols.at(s.protocol);

  // --- configuration validity (errors, not conformance violations) ---
  if (s.knowledge < proto.min_knowledge)
    throw std::invalid_argument("protocol \"" + proto.name + "\" requires " +
                                std::string(to_string(proto.min_knowledge)) +
                                " knowledge, scenario grants " +
                                to_string(s.knowledge));
  if (s.wakeup != WakeupKind::Simultaneous && !proto.wakeup_tolerant)
    throw std::invalid_argument("protocol \"" + proto.name +
                                "\" requires simultaneous wakeup");
  const std::uint8_t adv_classes = faults::classes(s.adversary);
  if (adv_classes & ~proto.safe_under)
    throw std::invalid_argument(
        "protocol \"" + proto.name + "\" declares no safety under " +
        faults::to_string(adv_classes & ~proto.safe_under) +
        " faults (safe_under = " + faults::to_string(proto.safe_under) + ")");
  if (s.reliable.any() && !proto.reliable_transport)
    throw std::invalid_argument("protocol \"" + proto.name +
                                "\" does not run the reliable transport "
                                "(r= is only valid for *_reliable variants)");
  // Churn validity: a rebirth only has clean semantics when the node's
  // first life was EMPTY (crash at round 0, before its first step ever).
  // A node reborn after stepping receives in-flight — or ARQ-replayed —
  // responses to a life its fresh state never lived, and strict-accounting
  // protocols (the pif wave pool) rightly abort on such frames; that is a
  // config error, not a conformance finding.  Crash-stop entries and empty
  // (recover == crash) intervals are not churn and pass through.
  for (const ScenarioCrash& c : s.adversary.crashes) {
    if (c.recover == kRoundForever || c.recover == c.at) continue;
    if (c.at > kChurnLivenessCrashBy || c.recover > kChurnLivenessRecoverBy)
      throw std::invalid_argument(
          "churn interval " + std::to_string(c.node) + "@" +
          std::to_string(c.at) + "-" + std::to_string(c.recover) +
          " outside the bounded-churn window (crash at round <= " +
          std::to_string(kChurnLivenessCrashBy) + ", recover by round " +
          std::to_string(kChurnLivenessRecoverBy) + ")");
  }
  // Liveness is only promised without loss OR forgery: drops and crashes can
  // livelock any reactive protocol, and duplicated messages stall echo
  // accounting even where they cannot forge a second leader (kingdom
  // quiesces undecided under duplication).  Delay and reorder alone (or no
  // adversary at all) must still terminate, for every protocol.  A
  // reliable transport (the ARQ wrapper) additionally buys termination under
  // drops and duplication — every frame is retransmitted until acked — as
  // long as the loss stays in the calibrated domain (≤ 600‰, the lab loss
  // ladder's top rung, where give-up is astronomically unlikely; beyond that
  // a deadline-stretched run may legitimately see a link give up, and at
  // drop = 1.0 no wrapper can push a bit through an edge that delivers
  // nothing) and no node crashed for good.  Bounded CHURN is the exception
  // to the crash clause: when every crash is an early, bounded rebirth (see
  // bounded_churn above), the reliable transport's full-history replay
  // revives the reborn node and termination is enforced again.
  const bool enforce_liveness =
      (adv_classes & ~(faults::kDelay | faults::kReorder)) == 0 ||
      (proto.reliable_transport && s.adversary.drop_pm <= 600 &&
       bounded_churn(s.adversary.crashes));

  const Graph g = build_scenario_graph(families, s);

  ScenarioOutcome out;
  out.scenario = s;
  out.shape = shape_of(
      g, diameter_exact(g),
      s.wakeup == WakeupKind::Random ? s.wakeup_spread : Round{0},
      s.wakeup != WakeupKind::Simultaneous);

  if (proto.needs_complete && !out.shape.complete)
    throw std::invalid_argument("protocol \"" + proto.name +
                                "\" requires a complete topology; family \"" +
                                s.family + "\" instance is not complete");

  // Under an adversary the envelopes stretch: every hop can cost up to
  // 1 + max_delay rounds, and reordering / duplication can reroute adoption
  // chains onto costlier paths (the 2x message headroom).  A reliable
  // transport under loss additionally pays the classical 1/(1 - p)
  // expected-transmissions factor on every frame (messages: 2/(1 - p)) —
  // and a steeper latency factor in rounds: a lost frame waits out a full
  // backed-off retransmit interval (~rto rounds, not 1) per loss, so hops
  // cost ~rto/(1 - p) rounds in the tail (rounds: 4/(1 - p),
  // fuzz-calibrated).
  std::uint64_t lossy_den = 1, lossy_round_num = 1, lossy_msg_num = 1;
  if (proto.reliable_transport && s.adversary.drop_pm != 0 &&
      s.adversary.drop_pm < 1000) {
    lossy_den = 1000 - s.adversary.drop_pm;
    lossy_round_num = 4000;
    lossy_msg_num = 2000;
  }
  // Churn stretches both envelopes further: a reborn node sits dead until
  // its recover round, then waits out a backed-off retransmit interval
  // before the replay reaches it (rounds), and the replay itself re-sends
  // each inbound link's history once per rebirth (messages).
  Round churn_round_slack = 0;
  std::uint64_t churn_rebirths = 0;
  for (const ScenarioCrash& c : s.adversary.crashes) {
    if (c.recover == kRoundForever || c.recover == c.at) continue;
    ++churn_rebirths;
    churn_round_slack = std::max(churn_round_slack, c.recover);
  }
  if (churn_rebirths > 0) churn_round_slack += 512;  // backoff-ladder slack
  const Round round_env =
      proto.round_envelope(out.shape) *
          (adv_classes == faults::kNone ? 1 : s.adversary.max_delay + 2) *
          lossy_round_num / lossy_den +
      churn_round_slack;
  const std::uint64_t msg_env = proto.message_envelope(out.shape) *
                                (adv_classes == faults::kNone ? 1 : 2) *
                                (1 + churn_rebirths) * lossy_msg_num /
                                lossy_den;

  RunOptions opt;
  opt.seed = s.seed;
  opt.knowledge = knowledge_for(out.shape, s.knowledge);
  opt.congest = CongestMode::Count;
  opt.max_rounds = round_env * kEnvelopeSlack;
  opt.adversary = s.adversary.engine_config(g.n());
  opt.reliable.rto = static_cast<std::uint32_t>(s.reliable.rto);
  opt.reliable.backoff_cap = static_cast<std::uint32_t>(s.reliable.cap);
  const std::vector<Round> wake = scenario_wakeup(s, g.n());
  if (!wake.empty()) opt.wakeup = wake;
  opt.threads = 1;
  opt.metrics = cfg.metrics;
  const ProcessFactory factory = proto.prepare(out.shape, opt);

  // --- reference run (threads = 1), with overlay inspection when needed ---
  std::size_t know_count = 0;
  std::set<std::uint64_t> learned;
  std::optional<Uid> winner_uid;
  const auto inspect = [&](const SyncEngine& eng) {
    if (!proto.explicit_overlay) return;
    const ElectionVerdict v = judge_election(eng);
    if (v.unique_leader && !eng.anonymous())
      winner_uid = eng.uid_of(v.leader_slot);
    for (NodeId slot = 0; slot < eng.graph().n(); ++slot) {
      // Other wrappers (the reliable link layer) are transparent to the
      // overlay check: reach through them to the ExplicitProcess.
      const auto* p = unwrap<ExplicitProcess>(eng.process(slot));
      if (p != nullptr && p->known_leader().has_value()) {
        ++know_count;
        learned.insert(*p->known_leader());
      }
    }
  };
  out.report = run_election(g, factory, opt, inspect);
  const ElectionReport& rep = out.report;
  auto violate = [&out](std::string v) { out.violations.push_back(std::move(v)); };

  // --- safety (holds under EVERY declared adversary) ---
  if (rep.verdict.elected > 1)
    violate("safety: " + std::to_string(rep.verdict.elected) + " leaders");
  const bool must_elect =
      proto.contract != Contract::MonteCarlo && enforce_liveness;
  if (must_elect && !rep.verdict.unique_leader) {
    // A run that quiesced undecided is a livelock diagnosis too: surface
    // last_progress / undecided_nodes instead of just the counts.
    const std::string diag = describe_nontermination(rep.run);
    violate("safety: " + std::string(to_string(proto.contract)) +
            " contract, but elected=" + std::to_string(rep.verdict.elected) +
            " undecided=" + std::to_string(rep.verdict.undecided) +
            (diag.empty() ? "" : "; " + diag));
  }
  if (rep.verdict.elected == 1 && rep.verdict.undecided != 0 &&
      rep.run.completed && adv_classes == faults::kNone)
    violate("safety: a leader exists but " +
            std::to_string(rep.verdict.undecided) + " nodes never decided");

  // --- explicit overlay agreement ---
  // Disagreement is a safety breach under every adversary; full coverage
  // ("everyone learned an id") is a liveness property — a dropped LEADER
  // flood legitimately leaves gaps.
  if (proto.explicit_overlay && rep.verdict.unique_leader) {
    if (know_count != g.n() && enforce_liveness)
      violate("explicit: only " + std::to_string(know_count) + "/" +
              std::to_string(g.n()) + " nodes learned a leader id");
    if (learned.size() > 1)
      violate("explicit: nodes disagree on the leader id (" +
              std::to_string(learned.size()) + " distinct)");
    if (winner_uid && learned.size() == 1 && *learned.begin() != *winner_uid)
      violate("explicit: learned id != the winner's uid");
  }

  // --- liveness / budget (only where termination is actually promised) ---
  if (enforce_liveness) {
    if (!rep.run.completed)
      violate("liveness: no quiescence within " +
              std::to_string(opt.max_rounds) + " rounds (envelope " +
              std::to_string(round_env) + "); " +
              describe_nontermination(rep.run));
    else if (rep.run.rounds > round_env)
      violate("liveness: " + std::to_string(rep.run.rounds) +
              " rounds > envelope " + std::to_string(round_env));
    if (rep.run.messages > msg_env)
      violate("budget: " + std::to_string(rep.run.messages) +
              " messages > envelope " + std::to_string(msg_env));
  }

  // --- congest ---
  // Send-side pacing is the protocol's own duty, but adversarial schedules
  // push protocols onto delivery patterns their pacing was never designed
  // for; breaches there are a liveness-grade finding, not a safety one.
  if (rep.run.congest_violations != 0 && adv_classes == faults::kNone)
    violate("congest: " + std::to_string(rep.run.congest_violations) +
            " violations");

  // --- determinism across thread counts ---
  if (cfg.check_determinism && s.threads > 1) {
    RunOptions popt = opt;
    popt.threads = s.threads;
    popt.parallel_cutoff = 1;  // force every round through the sharded path
    const ElectionReport par = run_election(g, factory, popt);
    const unsigned t = s.threads;
    for (const CounterDiff& d : diff_counters(rep.run, par.run))
      violate(counter_diff(d.name, d.base, d.got, t));
    const auto differ = [&](const char* what) {
      violate(std::string("determinism: ") + what + " differ at threads=" +
              std::to_string(t));
    };
    if (par.run.undecided_nodes != rep.run.undecided_nodes)
      differ("undecided_nodes");
    if (par.run.dead_link_nodes != rep.run.dead_link_nodes)
      differ("dead_link_nodes");
    if (par.statuses != rep.statuses) differ("per-node statuses");
    if (par.sent_by_node != rep.sent_by_node) differ("per-node send counts");
    if (par.run.metrics != rep.run.metrics) differ("metrics snapshots");
  }

  return out;
}

}  // namespace ule
