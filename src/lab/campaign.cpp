#include "lab/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <stdexcept>
#include <thread>

#include "net/rng.hpp"
#include "net/worker_pool.hpp"
#include "scenario/runner.hpp"

namespace ule::lab {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  std::uint64_t sm = h ^ v;
  return splitmix64(sm);
}

std::uint64_t mix_string(std::uint64_t h, const std::string& s) {
  for (const char c : s) h = mix(h, static_cast<unsigned char>(c));
  return mix(h, s.size());
}

const ParamSpec* find_spec(const FamilyInfo& fam, const char* name) {
  for (const ParamSpec& p : fam.params)
    if (p.name == name) return &p;
  return nullptr;
}

std::uint64_t isqrt(std::uint64_t v) {
  std::uint64_t r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(v)));
  while (r * r > v) --r;
  while ((r + 1) * (r + 1) <= v) ++r;
  return r;
}

/// One replicate's raw outcome, filled in by a worker.
struct RunSlot {
  std::uint64_t seed = 0;
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  std::uint64_t n = 0;  ///< actual instance size (ladder_params may round)
  std::uint64_t m = 0;
  std::uint32_t diameter = 0;
  double wall_ms = 0;
  bool ran = false;  ///< run_scenario returned (counters are real, not zeros)
  std::vector<std::string> violations;
  bool has_metrics = false;  ///< replicate 0 under CampaignConfig::metrics
  MetricsSnapshot metrics;
};

/// 0-based index of the ceil(0.95·k)-th order statistic (k >= 1).
std::size_t p95_index(std::size_t k) { return (95 * k + 99) / 100 - 1; }

MetricStats order_stats(std::vector<std::uint64_t> v) {
  std::sort(v.begin(), v.end());
  MetricStats s;
  s.median = v[(v.size() - 1) / 2];
  s.p95 = v[p95_index(v.size())];
  s.max = v.back();
  return s;
}

WallStats wall_stats(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  WallStats s;
  s.median_ms = v[(v.size() - 1) / 2];
  s.p95_ms = v[p95_index(v.size())];
  s.max_ms = v.back();
  return s;
}

bool selected(const std::vector<std::string>& filter, const std::string& key) {
  if (filter.empty()) return true;
  return std::find(filter.begin(), filter.end(), key) != filter.end();
}

}  // namespace

std::size_t CampaignResult::failed_fits() const {
  std::size_t k = 0;
  for (const CurveResult& c : curves)
    for (const FitOutcome& f : c.fits)
      if (!f.pass) ++k;
  return k;
}

std::size_t CampaignResult::violation_count() const {
  std::size_t k = 0;
  for (const CurveResult& c : curves)
    for (const CellResult& cell : c.cells) k += cell.violations.size();
  return k;
}

ScenarioParams ladder_params(const FamilyInfo& fam, std::uint64_t n) {
  const auto one = [&](const char* a, std::uint64_t va) {
    return ScenarioParams{{a, va}};
  };
  const auto two = [&](const char* a, std::uint64_t va, const char* b,
                       std::uint64_t vb) {
    return ScenarioParams{{a, va}, {b, vb}};
  };

  if (fam.params.size() == 1 && fam.params[0].name == "n") return one("n", n);
  if (fam.name == "gnm") {
    const std::uint64_t full = n * (n - 1) / 2;
    return two("n", n, "m", std::clamp<std::uint64_t>(3 * n, n - 1, full));
  }
  if (fam.name == "tree") return two("n", n, "arity", 2);
  if (fam.name == "regular") {
    std::uint64_t nn = std::max<std::uint64_t>(n, 6);
    if ((nn * 4) % 2 != 0) ++nn;  // d = 4 keeps n*d even for every n
    return two("n", nn, "d", 4);
  }
  if (fam.name == "grid" || fam.name == "torus") {
    const std::uint64_t side = std::max<std::uint64_t>(isqrt(n), 3);
    return two("rows", side, "cols", side);
  }
  if (fam.name == "bipartite") {
    const std::uint64_t half = std::max<std::uint64_t>(n / 2, 1);
    return two("a", half, "b", std::max<std::uint64_t>(n - half, 1));
  }
  if (fam.name == "hypercube") {
    std::uint64_t dim = 1;
    while ((std::uint64_t{1} << (dim + 1)) <= n) ++dim;
    return one("dim", dim);
  }
  throw std::invalid_argument("family \"" + fam.name +
                              "\" has no n-ladder convention");
}

std::uint64_t default_nominal_n(bool quick) { return quick ? 96 : 256; }

std::uint64_t default_loss_n(bool quick) { return quick ? 48 : 96; }

std::vector<std::uint64_t> default_loss_ladder(bool quick) {
  // x = 1000/(1000 - drop_pm) spans [1, 2.5]: a narrow log range, so the
  // full ladder keeps five rungs for fit stability.  600‰ is the ceiling —
  // see default_loss_ladder's doc comment for the give-up math.
  return quick ? std::vector<std::uint64_t>{0, 200, 400, 600}
               : std::vector<std::uint64_t>{0, 150, 300, 450, 600};
}

std::vector<std::uint64_t> default_diameter_ladder(const FamilyInfo& fam,
                                                   bool quick,
                                                   std::uint64_t nominal_n) {
  if (!fam.diameter_ladder.has_value())
    throw std::invalid_argument("family \"" + fam.name +
                                "\" has no diameter-ladder convention");
  const DiameterLadder& dl = *fam.diameter_ladder;
  // Rungs start at 8: every protocol pays a few additive pacing/echo rounds,
  // and at D = 4 that constant dominates the log-log slope.
  const std::vector<std::uint64_t> base =
      quick ? std::vector<std::uint64_t>{8, 16, 32, 48}
            : std::vector<std::uint64_t>{8, 16, 32, 64, 128};
  std::vector<std::uint64_t> out;
  for (const std::uint64_t d : base) {
    if (d < dl.min_d || d > dl.max_d) continue;
    if (d > nominal_n / 2) continue;  // keep the clique blobs non-degenerate
    out.push_back(d);
  }
  return out;
}

std::vector<std::uint64_t> default_ladder(const FamilyInfo& fam, bool quick) {
  // Complete instances are Θ(n²) edges, so their ladder tops out lower.
  std::vector<std::uint64_t> base;
  if (fam.complete)
    // The quick ladder starts at 32: the sublinear band's log^{3/2} factor
    // keeps the local slope near 1 below that, drowning the √n shape.
    base = quick ? std::vector<std::uint64_t>{32, 64, 128, 256}
                 : std::vector<std::uint64_t>{32, 64, 128, 256, 512};
  else
    base = quick ? std::vector<std::uint64_t>{24, 48, 96, 192}
                 : std::vector<std::uint64_t>{64, 128, 256, 512, 1024, 2048};

  // Clamp to the family's declared size range (the single size param when
  // present; ladder_params handles multi-param families within these sizes).
  const ParamSpec* spec = find_spec(fam, "n");
  std::vector<std::uint64_t> out;
  for (const std::uint64_t n : base) {
    if (spec != nullptr && (n < spec->lo || n > spec->hi)) continue;
    out.push_back(n);
  }
  return out;
}

std::uint64_t replicate_seed(std::uint64_t master, const std::string& protocol,
                             const std::string& family,
                             const std::string& axis, std::uint64_t rung,
                             std::size_t replicate) {
  std::uint64_t h = mix(master, 0xC0A1B2C3D4E5F607ULL);
  h = mix_string(h, protocol);
  h = mix_string(h, family);
  h = mix_string(h, axis);
  h = mix(h, rung);
  h = mix(h, replicate);
  return h;
}

CampaignResult run_campaign(const ProtocolRegistry& protocols,
                            const FamilyRegistry& families,
                            const CampaignConfig& cfg, std::ostream* log) {
  if (cfg.replicates == 0)
    throw std::invalid_argument("campaign needs >= 1 replicate");

  CampaignResult res;
  res.master_seed = cfg.master_seed;
  res.replicates = cfg.replicates;

  // --- enumerate curves and their ladders -------------------------------
  const std::uint64_t nominal =
      cfg.nominal_n != 0 ? cfg.nominal_n : default_nominal_n(cfg.quick);
  struct Curve {
    const ProtocolInfo* proto;
    const FamilyInfo* fam;
    std::string axis;
    std::vector<GrowthExpectation> expects;
    std::vector<std::uint64_t> ladder;
    /// Diameter axis only: per-rung params + declared exact diameter.
    std::vector<DiameterRung> rungs;
  };
  std::vector<Curve> curves;
  for (const ProtocolInfo& p : protocols.all()) {
    if (!selected(cfg.protocols, p.name)) continue;
    for (const GrowthExpectation& e : p.growth) {
      if (!selected(cfg.families, e.family)) continue;
      if (e.axis != "n" && e.axis != "diameter" && e.axis != "loss")
        throw std::invalid_argument("growth expectation " + p.name + " x " +
                                    e.family + " declares unknown axis \"" +
                                    e.axis + "\"");
      if (e.axis == "loss" && !p.reliable_transport)
        throw std::invalid_argument(
            "growth expectation " + p.name + " x " + e.family +
            " declares the loss axis, but the protocol has no reliable "
            "transport — an unwrapped run under drop has no retransmit "
            "overhead to fit");
      const FamilyInfo& fam = families.at(e.family);
      auto it = std::find_if(curves.begin(), curves.end(), [&](const Curve& c) {
        return c.proto == &p && c.fam == &fam && c.axis == e.axis;
      });
      if (it == curves.end()) {
        Curve c;
        c.proto = &p;
        c.fam = &fam;
        c.axis = e.axis;
        if (e.axis == "diameter") {
          if (!fam.diameter_ladder.has_value())
            throw std::invalid_argument(
                "curve " + p.name + " x " + fam.name +
                " declares the diameter axis, but the family has no "
                "diameter-ladder convention");
          const DiameterLadder& dl = *fam.diameter_ladder;
          c.ladder = cfg.d_ladder.empty()
                         ? default_diameter_ladder(fam, cfg.quick, nominal)
                         : cfg.d_ladder;
          std::erase_if(c.ladder, [&](std::uint64_t d) {
            return d < dl.min_d || d > dl.max_d;
          });
          for (const std::uint64_t d : c.ladder)
            c.rungs.push_back(dl.rung(nominal, d));
        } else if (e.axis == "loss") {
          // Fixed instance, growing drop probability: every rung reuses the
          // same shape params; the ladder values are drop_pm, not sizes.
          c.ladder = cfg.loss_ladder.empty() ? default_loss_ladder(cfg.quick)
                                             : cfg.loss_ladder;
          std::erase_if(c.ladder,
                        [](std::uint64_t pm) { return pm >= 700; });
          const std::uint64_t loss_n =
              cfg.loss_n != 0 ? cfg.loss_n : default_loss_n(cfg.quick);
          for (std::size_t i = 0; i < c.ladder.size(); ++i)
            c.rungs.push_back(DiameterRung{ladder_params(fam, loss_n), 0});
        } else {
          c.ladder = cfg.ladder.empty() ? default_ladder(fam, cfg.quick)
                                        : cfg.ladder;
          if (const ParamSpec* spec = find_spec(fam, "n"); spec != nullptr)
            std::erase_if(c.ladder, [&](std::uint64_t n) {
              return n < spec->lo || n > spec->hi;
            });
          for (const std::uint64_t n : c.ladder)
            c.rungs.push_back(DiameterRung{ladder_params(fam, n), 0});
        }
        if (c.ladder.size() < 2)
          throw std::invalid_argument("curve " + p.name + " x " + fam.name +
                                      " [" + c.axis +
                                      "] has a ladder of < 2 valid rungs");
        curves.push_back(std::move(c));
        it = curves.end() - 1;
      }
      it->expects.push_back(e);
    }
  }
  if (curves.empty())
    throw std::invalid_argument(
        "no growth curves selected — check the protocol/family filters "
        "against the registry's declared growth bands (complexity_lab "
        "--list-registry)");

  // --- flatten into one work list ---------------------------------------
  struct Item {
    std::size_t curve, cell, rep;
    Scenario scenario;
  };
  std::vector<Item> items;
  for (std::size_t ci = 0; ci < curves.size(); ++ci) {
    const Curve& c = curves[ci];
    for (std::size_t li = 0; li < c.ladder.size(); ++li) {
      for (std::size_t r = 0; r < cfg.replicates; ++r) {
        Scenario s;
        s.family = c.fam->name;
        s.params = c.rungs[li].params;
        s.protocol = c.proto->name;
        s.knowledge = c.proto->min_knowledge;
        s.wakeup = WakeupKind::Simultaneous;
        s.seed = replicate_seed(cfg.master_seed, c.proto->name, c.fam->name,
                                c.axis, c.ladder[li], r);
        if (c.axis == "loss" && c.ladder[li] != 0) {
          // The rung IS the fault knob: a seeded drop-only adversary whose
          // coin stream is domain-separated from the run seed.  Rung 0 stays
          // adversary-off so the baseline cell is the fault-free cost.
          s.adversary.drop_pm = c.ladder[li];
          s.adversary.seed = mix(s.seed, 0xAD5EEDD207ULL);
        }
        s.threads = 1;
        items.push_back(Item{ci, li, r, std::move(s)});
      }
    }
  }
  res.total_runs = items.size();

  // --- execute replicate-parallel on the worker pool --------------------
  // Workers claim runs off a shared counter; slots are preassigned by item
  // index, so the schedule never influences aggregation order.
  // Replicates run at engine threads = 1, so there is no determinism rerun.
  ScenarioRunConfig run_cfg;
  run_cfg.check_determinism = false;
  // Telemetry only on replicate 0 (per-cell metrics, not per-replicate): the
  // per-item config below switches it on where items[i].rep == 0.
  ScenarioRunConfig metrics_cfg = run_cfg;
  metrics_cfg.metrics.enabled = true;
  std::vector<RunSlot> slots(items.size());
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned workers = cfg.threads == 0 ? hw : cfg.threads;
  std::atomic<std::size_t> next{0};
  WorkerPool pool(workers);
  pool.run([&](unsigned) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= items.size()) return;
      RunSlot& slot = slots[i];
      slot.seed = items[i].scenario.seed;
      const auto t0 = std::chrono::steady_clock::now();
      const bool want_metrics = cfg.metrics && items[i].rep == 0;
      try {
        const ScenarioOutcome out =
            run_scenario(protocols, families, items[i].scenario,
                         want_metrics ? metrics_cfg : run_cfg);
        slot.rounds = out.report.run.rounds;
        slot.messages = out.report.run.messages;
        slot.bits = out.report.run.bits;
        slot.n = out.shape.n;
        slot.m = out.shape.m;
        slot.diameter = out.shape.diameter;
        slot.ran = true;
        slot.violations = out.violations;
        if (want_metrics && out.report.run.metrics) {
          slot.has_metrics = true;
          slot.metrics = *out.report.run.metrics;
        }
      } catch (const std::exception& e) {
        slot.violations.push_back(std::string("exception: ") + e.what());
      }
      const auto t1 = std::chrono::steady_clock::now();
      slot.wall_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count();
    }
  });

  // --- aggregate per cell, fit per curve --------------------------------
  std::size_t item_base = 0;
  for (std::size_t ci = 0; ci < curves.size(); ++ci) {
    const Curve& c = curves[ci];
    CurveResult cr;
    cr.protocol = c.proto->name;
    cr.family = c.fam->name;
    cr.axis = c.axis;
    for (std::size_t li = 0; li < c.ladder.size(); ++li) {
      CellResult cell;
      // Fallbacks for a rung whose replicate-0 run died before building a
      // graph (the violation fails the campaign either way): the nominal n
      // rung on the n-axis, the convention's declared exact diameter on the
      // diameter axis.
      cell.n = c.axis == "n" ? c.ladder[li] : 0;
      cell.diameter = static_cast<std::uint32_t>(c.rungs[li].diameter);
      if (c.axis == "loss") cell.drop_pm = c.ladder[li];
      cell.replicates = cfg.replicates;
      std::vector<std::uint64_t> rounds, messages, bits;
      std::vector<double> wall;
      for (std::size_t r = 0; r < cfg.replicates; ++r) {
        const RunSlot& slot = slots[item_base + r];
        if (r == 0 && slot.n != 0) {
          // The conventions may round the target (grid squares, regular
          // parity, cliquecycle's D' = 4*ceil(D/4)): cells and fits use the
          // ACTUAL instance, falling back to the declared rung only when the
          // run died before building a graph.
          cell.n = slot.n;
          cell.m = slot.m;
          cell.diameter = slot.diameter;
          if (slot.has_metrics) {
            cell.has_metrics = true;
            cell.metrics = slot.metrics;
          }
        }
        // A replicate that died in an exception has no counters; folding its
        // zeros into the order statistics would silently corrupt the medians
        // the fits consume.  The recorded violation already fails the
        // campaign; the stats stay honest over the replicates that ran.
        if (slot.ran) {
          rounds.push_back(slot.rounds);
          messages.push_back(slot.messages);
          bits.push_back(slot.bits);
        }
        wall.push_back(slot.wall_ms);
        for (const std::string& v : slot.violations)
          cell.violations.push_back("s=" + std::to_string(slot.seed) + ": " + v);
      }
      item_base += cfg.replicates;
      if (!rounds.empty()) {
        cell.rounds = order_stats(std::move(rounds));
        cell.messages = order_stats(std::move(messages));
        cell.bits = order_stats(std::move(bits));
      }
      cell.wall = wall_stats(std::move(wall));
      cr.cells.push_back(std::move(cell));
    }

    for (const GrowthExpectation& e : c.expects) {
      std::vector<double> x, y;
      for (const CellResult& cell : cr.cells) {
        const MetricStats& ms = e.metric == "rounds" ? cell.rounds
                                : e.metric == "bits" ? cell.bits
                                                     : cell.messages;
        double ax;
        if (c.axis == "diameter")
          ax = static_cast<double>(std::max<std::uint32_t>(cell.diameter, 1));
        else if (c.axis == "loss")
          // Expected transmissions per delivered frame under i.i.d. drop.
          ax = 1000.0 / static_cast<double>(1000 - cell.drop_pm);
        else
          ax = static_cast<double>(std::max<std::uint64_t>(cell.n, 1));
        x.push_back(ax);
        y.push_back(static_cast<double>(std::max<std::uint64_t>(ms.median, 1)));
      }
      FitOutcome fo;
      fo.expect = e;
      // Pre-check the ladder's dynamic range: the family conventions round
      // rungs (grid squares, regular parity, hypercube powers of two), so a
      // short quick ladder can collapse to ONE distinct x value — and
      // fit_power_law throws std::invalid_argument on zero x-variance, which
      // would abort the whole campaign over one degenerate curve.  Emit a
      // skipped-fit row with the reason instead; skipped fits never fail.
      const auto [x_min, x_max] = std::minmax_element(x.begin(), x.end());
      if (*x_max <= *x_min) {
        fo.skipped = true;
        fo.pass = true;
        fo.fit.points = x.size();
        char rbuf[160];
        std::snprintf(rbuf, sizeof(rbuf),
                      "zero dynamic range: all %zu rungs collapse to %s=%g "
                      "after convention rounding",
                      x.size(),
                      c.axis == "diameter" ? "D"
                      : c.axis == "loss"   ? "1/(1-p)"
                                           : "n",
                      *x_min);
        fo.reason = rbuf;
      } else {
        fo.fit = fit_power_law(x, y);
        fo.pass = exponent_in_band(e.exponent, e.tol, fo.fit);
      }
      cr.fits.push_back(std::move(fo));
    }

    if (log != nullptr) {
      for (const FitOutcome& f : cr.fits) {
        char buf[256];
        if (f.skipped) {
          std::snprintf(buf, sizeof(buf), "%-20s x %-14s %-8s SKIP (%s)\n",
                        cr.protocol.c_str(), cr.family.c_str(),
                        f.expect.metric.c_str(), f.reason.c_str());
        } else {
          std::snprintf(buf, sizeof(buf),
                        "%-20s x %-14s %-8s ~ %s^%.3f (+-%.3f)  expected "
                        "%.2f+-%.2f  R2=%.4f  %s\n",
                        cr.protocol.c_str(), cr.family.c_str(),
                        f.expect.metric.c_str(),
                        cr.axis == "diameter" ? "D"
                        : cr.axis == "loss"   ? "1/(1-p)"
                                              : "n",
                        f.fit.exponent,
                        f.fit.confidence(), f.expect.exponent, f.expect.tol,
                        f.fit.r2, f.pass ? "PASS" : "FAIL");
        }
        *log << buf;
      }
      for (const CellResult& cell : cr.cells)
        for (const std::string& v : cell.violations)
          *log << "  VIOLATION " << cr.protocol << " x " << cr.family
               << " n=" << cell.n << " " << v << "\n";
      log->flush();
    }
    res.curves.push_back(std::move(cr));
  }
  return res;
}

}  // namespace ule::lab
