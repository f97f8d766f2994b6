#include "scenario/fuzzer.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <stdexcept>

namespace ule {

namespace {

KnowledgeGrant draw_knowledge(Rng& rng, KnowledgeGrant min) {
  // Uniform over the grants at or above the protocol's minimum.
  const auto lo = static_cast<std::uint64_t>(min);
  return static_cast<KnowledgeGrant>(
      rng.in_range(lo, static_cast<std::uint64_t>(KnowledgeGrant::NMD)));
}

/// Size parameter ("n"-ish) of a parameterization, for logging only.
std::uint64_t rough_n(const ScenarioParams& ps) {
  std::uint64_t prod = 1;
  for (const auto& [k, v] : ps) {
    if (k == "n") return v;
    if (k == "rows" || k == "cols" || k == "a" || k == "b") prod *= v;
    if (k == "dim") return std::uint64_t{1} << v;
  }
  return prod;
}

/// Draw an adversary exercising a non-empty subset of `safe` (never a class
/// outside it: the runner would reject the scenario as a config error).
/// Knob strengths stay moderate — the goal is a schedule the protocol
/// declared it survives, not a denial-of-service.
ScenarioAdversary draw_adversary(Rng& rng, std::uint8_t safe,
                                 std::size_t max_n, double churn_fraction,
                                 bool allow_churn) {
  std::vector<std::uint8_t> declared;
  for (const std::uint8_t c : {faults::kDelay, faults::kDrop,
                               faults::kDuplicate, faults::kReorder,
                               faults::kCrash}) {
    if (safe & c) declared.push_back(c);
  }
  std::uint8_t pick = 0;
  for (const std::uint8_t c : declared)
    if (rng.below(2) == 0) pick |= c;
  if (pick == 0) pick = declared[rng.below(declared.size())];

  ScenarioAdversary a;
  if (pick & faults::kDelay) a.max_delay = rng.in_range(1, 3);
  if (pick & faults::kDrop) a.drop_pm = rng.in_range(1, 300);
  if (pick & faults::kDuplicate) a.dup_pm = rng.in_range(1, 300);
  if (pick & faults::kReorder) a.reorder_pm = rng.in_range(1, 500);
  if (pick & faults::kCrash) {
    ScenarioCrash c;
    c.node = rng.below(std::max<std::uint64_t>(1, max_n));
    c.at = rng.in_range(1, 6);
    // Churn upgrade: crash-stop becomes a bounded rebirth interval inside
    // the runner's liveness window (crash at round 0 — before the node's
    // first step, so the replay a reborn node receives is duplicate-free
    // at the application layer; recover a few rounds out).  Gated so a
    // zero fraction leaves the draw stream bit-identical to the crash-stop
    // fuzzer.
    if (allow_churn && churn_fraction > 0 &&
        rng.uniform01() < churn_fraction) {
      c.at = 0;
      c.recover = rng.in_range(1, 8);
    }
    a.crashes = {c};
  }
  // Only coin-using knobs get a seed: a crash-only schedule draws no coins,
  // and the seed would not survive the token (no a= segment to carry it).
  if (a.any_faults()) a.seed = rng.in_range(1, std::uint64_t{1} << 32);
  return a;
}

bool still_fails(const ProtocolRegistry& protocols,
                 const FamilyRegistry& families, const Scenario& s) {
  try {
    return !run_scenario(protocols, families, s).ok();
  } catch (const std::invalid_argument&) {
    return false;  // candidate is not even a valid scenario
  }
}

}  // namespace

Scenario draw_scenario(Rng& rng, const ProtocolRegistry& protocols,
                       const FamilyRegistry& families, std::size_t max_n,
                       double threads_fraction, double adversary_fraction,
                       const std::string& protocol_filter,
                       double churn_fraction) {
  const auto& all = protocols.all();
  std::vector<const ProtocolInfo*> protos;
  for (const ProtocolInfo& p : all)
    if (protocol_filter.empty() ||
        p.name.find(protocol_filter) != std::string::npos)
      protos.push_back(&p);
  if (protos.empty())
    throw std::invalid_argument(
        protocol_filter.empty()
            ? std::string("empty protocol registry")
            : "no protocol matches filter \"" + protocol_filter + "\"");
  const ProtocolInfo& proto = *protos[rng.below(protos.size())];

  // Compatible family: complete-only protocols draw from complete families.
  const auto& fams = families.all();
  std::vector<const FamilyInfo*> eligible;
  for (const FamilyInfo& f : fams) {
    if (!proto.needs_complete || f.complete) eligible.push_back(&f);
  }
  if (eligible.empty())
    throw std::invalid_argument("no family compatible with protocol \"" +
                                proto.name + "\"");
  const FamilyInfo& fam = *eligible[rng.below(eligible.size())];

  Scenario s;
  s.family = fam.name;
  s.params = fam.draw(rng, max_n);
  s.protocol = proto.name;
  s.knowledge = draw_knowledge(rng, proto.min_knowledge);
  if (proto.wakeup_tolerant) {
    const std::uint64_t pick = rng.below(10);
    if (pick < 5) {
      s.wakeup = WakeupKind::Simultaneous;
    } else if (pick < 8) {
      s.wakeup = WakeupKind::Random;
      s.wakeup_spread = rng.in_range(1, 2 * std::max<std::uint64_t>(1, max_n));
    } else {
      s.wakeup = WakeupKind::Single;
      s.wakeup_node = rng.below(std::max<std::uint64_t>(1, max_n));
    }
  }
  s.seed = rng.in_range(1, std::uint64_t{1} << 48);
  if (rng.uniform01() < threads_fraction)
    s.threads = static_cast<unsigned>(rng.in_range(2, 4));
  if (proto.safe_under != faults::kNone &&
      rng.uniform01() < adversary_fraction)
    s.adversary = draw_adversary(rng, proto.safe_under, max_n, churn_fraction,
                                 proto.reliable_transport);
  // Reliable variants: sometimes override the transport knobs.  rto >= 3
  // keeps retransmissions honest (the fault-free ack round trip is 2
  // rounds, so smaller values would retransmit frames whose acks are still
  // legally in flight); the cap is a small multiple of the rto.
  if (proto.reliable_transport && rng.below(2) == 0) {
    s.reliable.rto = rng.in_range(3, 8);
    s.reliable.cap = s.reliable.rto * rng.in_range(1, 4);
  }
  return s;
}

Scenario shrink_scenario(const ProtocolRegistry& protocols,
                         const FamilyRegistry& families,
                         const Scenario& failing, std::size_t* steps) {
  constexpr std::size_t kMaxSteps = 64;
  Scenario cur = failing;
  std::size_t adopted = 0;
  const ProtocolInfo& proto = protocols.at(failing.protocol);

  bool progressed = true;
  while (progressed && adopted < kMaxSteps) {
    progressed = false;
    std::vector<Scenario> candidates;

    // 1. Family parameter shrinks (halve / decrement, registry-declared).
    const FamilyInfo* fam = families.find(cur.family);
    if (fam && fam->shrink) {
      for (ScenarioParams& ps : fam->shrink(cur.params)) {
        Scenario c = cur;
        c.params = std::move(ps);
        candidates.push_back(std::move(c));
      }
    }

    // 2. Substitute the structurally simplest families at a small size.
    // Only from a non-simple family — path and ring never substitute for
    // each other, or the walk would oscillate between them forever.
    if (!proto.needs_complete) {
      if (cur.family != "path" && cur.family != "ring") {
        const std::uint64_t small =
            std::clamp<std::uint64_t>(rough_n(cur.params), 3, 12);
        for (const char* simple : {"path", "ring"}) {
          Scenario c = cur;
          c.family = simple;
          c.params = {{"n", small}};
          candidates.push_back(std::move(c));
        }
      }
    } else if (cur.family != "complete") {
      Scenario c = cur;
      c.family = "complete";
      c.params = {{"n", std::clamp<std::uint64_t>(rough_n(cur.params), 2, 12)}};
      candidates.push_back(std::move(c));
    }

    // 3. Drop or weaken the delivery/fault adversary: the whole thing first
    // (is it an adversarial bug at all?), then one knob at a time, then
    // halving the survivors — so the minimal token keeps exactly the faults
    // the failure needs, at roughly the weakest strength that still bites.
    if (cur.adversary.active()) {
      const auto with_adv = [&cur](auto&& mutate) {
        Scenario c = cur;
        mutate(c.adversary);
        if (!c.adversary.active()) c.adversary = ScenarioAdversary{};
        return c;
      };
      candidates.push_back(
          with_adv([](ScenarioAdversary& a) { a = ScenarioAdversary{}; }));
      if (cur.adversary.max_delay > 0)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.max_delay = 0; }));
      if (cur.adversary.drop_pm > 0)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.drop_pm = 0; }));
      if (cur.adversary.dup_pm > 0)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.dup_pm = 0; }));
      if (cur.adversary.reorder_pm > 0)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.reorder_pm = 0; }));
      // Churn shrinks first drop recover tails (is the rebirth what bites,
      // or just the crash?), then whole intervals, then the schedule.
      for (std::size_t ci = 0; ci < cur.adversary.crashes.size(); ++ci) {
        if (cur.adversary.crashes[ci].recover != kRoundForever)
          candidates.push_back(with_adv([ci](ScenarioAdversary& a) {
            a.crashes[ci].recover = kRoundForever;
          }));
      }
      if (cur.adversary.crashes.size() > 1) {
        for (std::size_t ci = 0; ci < cur.adversary.crashes.size(); ++ci)
          candidates.push_back(with_adv([ci](ScenarioAdversary& a) {
            a.crashes.erase(a.crashes.begin() +
                            static_cast<std::ptrdiff_t>(ci));
          }));
      }
      if (!cur.adversary.crashes.empty())
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.crashes.clear(); }));
      if (cur.adversary.max_delay > 1)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.max_delay /= 2; }));
      if (cur.adversary.drop_pm > 1)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.drop_pm /= 2; }));
      if (cur.adversary.dup_pm > 1)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.dup_pm /= 2; }));
      if (cur.adversary.reorder_pm > 1)
        candidates.push_back(
            with_adv([](ScenarioAdversary& a) { a.reorder_pm /= 2; }));
    }

    // 3b. Drop the reliable-transport override (the auto knobs are the
    // default — a failure that survives this was never about the timeout).
    if (cur.reliable.any()) {
      Scenario c = cur;
      c.reliable = ScenarioReliable{};
      candidates.push_back(std::move(c));
    }

    // 4. Drop the adversarial wakeup schedule — or, when the failure needs
    // it, at least halve the spread.
    if (cur.wakeup != WakeupKind::Simultaneous) {
      Scenario c = cur;
      c.wakeup = WakeupKind::Simultaneous;
      c.wakeup_spread = 0;
      c.wakeup_node = 0;
      candidates.push_back(std::move(c));
      if (cur.wakeup == WakeupKind::Random && cur.wakeup_spread > 1) {
        Scenario h = cur;
        h.wakeup_spread = cur.wakeup_spread / 2;
        candidates.push_back(std::move(h));
      }
    }

    // 5. Drop the thread count (is it a parallelism bug at all?).
    if (cur.threads > 1) {
      Scenario c = cur;
      c.threads = 1;
      candidates.push_back(std::move(c));
    }

    // 6. Reduce the knowledge grant to the protocol's minimum.
    if (cur.knowledge != proto.min_knowledge) {
      Scenario c = cur;
      c.knowledge = proto.min_knowledge;
      candidates.push_back(std::move(c));
    }

    for (Scenario& c : candidates) {
      if (c == cur) continue;
      if (still_fails(protocols, families, c)) {
        cur = std::move(c);
        ++adopted;
        progressed = true;
        break;
      }
    }
  }

  if (steps) *steps = adopted;
  return cur;
}

FuzzReport run_fuzz(const ProtocolRegistry& protocols,
                    const FamilyRegistry& families, const FuzzConfig& cfg,
                    std::ostream* log) {
  FuzzReport report;
  Rng rng(cfg.master_seed);
  const auto started = std::chrono::steady_clock::now();

  // Envelope stats slots, one per registered protocol (registry order).
  for (const ProtocolInfo& p : protocols.all())
    report.envelope_stats.push_back(EnvelopeStat{p.name, 0, 0, 0});
  const auto stat_of = [&report](const std::string& name) -> EnvelopeStat& {
    for (EnvelopeStat& s : report.envelope_stats) {
      if (s.protocol == name) return s;
    }
    report.envelope_stats.push_back(EnvelopeStat{name, 0, 0, 0});
    return report.envelope_stats.back();
  };

  for (std::size_t i = 0; i < cfg.count; ++i) {
    // The budget is checked between draws, never before the first: a run
    // always checks at least one scenario.
    if (cfg.time_budget_sec > 0 && i > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - started;
      if (elapsed.count() > cfg.time_budget_sec) {
        report.time_budget_hit = true;
        if (log)
          *log << "time budget hit after " << report.scenarios_run
               << " scenarios\n";
        break;
      }
    }

    const Scenario s =
        draw_scenario(rng, protocols, families, cfg.max_n,
                      cfg.threads_fraction, cfg.adversary_fraction,
                      cfg.protocol_filter, cfg.churn_fraction);
    const ScenarioOutcome out = run_scenario(protocols, families, s);
    ++report.scenarios_run;
    if (out.report.verdict.unique_leader) ++report.runs_elected;
    const ProtocolInfo& proto = protocols.at(s.protocol);
    if (proto.contract == Contract::MonteCarlo &&
        out.report.verdict.elected == 0)
      ++report.monte_carlo_misses;
    if (s.threads > 1) ++report.determinism_checked;
    if (s.adversary.active()) ++report.adversarial_runs;

    // Envelope headroom calibrates the REGISTERED bounds, which describe the
    // fault-free model; adversarial runs (stretched envelopes) stay out.
    if (!s.adversary.active()) {
      EnvelopeStat& st = stat_of(s.protocol);
      ++st.runs;
      const double rr = static_cast<double>(out.report.run.rounds) /
                        static_cast<double>(proto.round_envelope(out.shape));
      const double mr = static_cast<double>(out.report.run.messages) /
                        static_cast<double>(proto.message_envelope(out.shape));
      st.max_round_ratio = std::max(st.max_round_ratio, rr);
      st.max_message_ratio = std::max(st.max_message_ratio, mr);
    }

    if (!out.ok()) {
      FuzzFailure fail;
      fail.original = s;
      fail.original_violations = out.violations;
      if (log) {
        *log << "FAIL " << s.encode() << "\n";
        for (const std::string& v : out.violations) *log << "  " << v << "\n";
      }
      if (cfg.shrink) {
        fail.minimal =
            shrink_scenario(protocols, families, s, &fail.shrink_steps);
        fail.minimal_violations =
            run_scenario(protocols, families, fail.minimal).violations;
        if (log)
          *log << "  shrunk (" << fail.shrink_steps
               << " steps) to: " << fail.minimal.encode() << "\n";
      } else {
        fail.minimal = s;
        fail.minimal_violations = out.violations;
      }
      report.failures.push_back(std::move(fail));
    } else if (log && (i + 1) % 200 == 0) {
      *log << "  ..." << (i + 1) << "/" << cfg.count << " scenarios, "
           << report.failures.size() << " failures\n";
    }
  }

  return report;
}

}  // namespace ule
