// Always-on engine telemetry: a deterministic metrics surface.
//
// The bounds this repo gates — Kutten et al.'s Table 1 message/time
// trade-offs and the bit-round costs — are ultimately counters, and before
// this layer they were scattered across RunResult fields, ad-hoc ARQ
// accessors, and bench-only JSON.  MetricsRegistry is the one place they
// meet: per-round gauges sampled by the engine (active-set size, wake-heap
// depth, CSR inbox occupancy, outbox-arena footprint) plus named counters
// contributed by each subsystem (adversary fault events, ARQ recovery work,
// the engine's own message/bit totals).
//
// Contracts, in order of importance:
//
//  * Determinism.  Every gauge is sampled at a sequential point of the round
//    loop and every counter is a pure function of (graph, processes, seed),
//    so a snapshot — and its JSON rendering — is bit-for-bit identical at
//    every thread count.  Tests pin this at threads {1,2,4}.
//  * Zero overhead off.  `EngineConfig::metrics.enabled = false` (the
//    default) must reproduce every RunResult counter of a metrics-free
//    build, the same pinned contract as the inert adversary and the empty
//    churn schedule (`metrics_off_overhead` bench row).
//  * Bench-document output.  metrics_json() renders the snapshot as
//    `{"bench": "engine_metrics", "rows": [...]}` through the one bench
//    document writer (json/bench_doc.hpp), so the nightly job can append
//    snapshots to a trajectory with the same tooling that reads every other
//    BENCH_*.json, and validate_metrics_json() reads it back through the one
//    strict reader of that module.
//
// Schema (docs/OBSERVABILITY.md is the reference):
//
//   { "bench": "engine_metrics",
//     "rows": [ { "kind": "gauge", "name": "active_set" | "wake_heap"
//                                      | "inbox_csr" | "outbox_arena",
//                 "samples": ..., "last": ..., "max": ..., "total": ... },
//               { "kind": "counter", "name": "<subsystem>.<counter>",
//                 "value": ... } ] }
//
// Counter rows are sorted by name; gauge rows come first, in the fixed
// order above.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ule {

/// Engine-owned telemetry switch (EngineConfig::metrics).  Off by default;
/// when off the engine takes no metrics branches and RunResult::metrics
/// stays empty.
struct MetricsConfig {
  bool enabled = false;
};

/// Running statistics of a per-round gauge.  `total` accumulates the sample
/// sum so total / samples is the mean without storing the series.
struct GaugeStats {
  std::uint64_t samples = 0;  ///< rounds observed
  std::uint64_t last = 0;     ///< final round's value
  std::uint64_t max = 0;      ///< high-water mark
  std::uint64_t total = 0;    ///< sum over all samples

  void observe(std::uint64_t v) {
    ++samples;
    last = v;
    if (v > max) max = v;
    total += v;
  }

  bool operator==(const GaugeStats&) const = default;
};

/// Write-side interface subsystems see during a metrics sweep.  A process
/// that owns counters (e.g. the ARQ wrapper) overrides
/// Process::export_metrics and calls counter() once per named value; the
/// engine sweeps processes in slot order, so the accumulated result is
/// thread-count invariant.
class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  /// Add `value` to the counter called `name`.  Names are dotted
  /// "<subsystem>.<counter>" strings ("arq.retransmissions"); repeated calls
  /// with the same name accumulate.
  virtual void counter(std::string_view name, std::uint64_t value) = 0;
};

/// The frozen, comparable result of a run's metrics collection.  Counters
/// are sorted by name; operator== makes "snapshots identical across thread
/// counts" a one-line assertion.
struct MetricsSnapshot {
  GaugeStats active_set;    ///< runnable nodes per executed round
  GaugeStats wake_heap;     ///< wake min-heap size (incl. lazy-deleted keys)
  GaugeStats inbox_csr;     ///< envelopes scattered into the CSR inbox
  GaugeStats outbox_arena;  ///< per-round lane outbox footprint (envelopes)
  std::vector<std::pair<std::string, std::uint64_t>> counters;

  bool operator==(const MetricsSnapshot&) const = default;
};

/// Accumulates gauges + counters during a run; owned by SyncEngine, filled
/// only when MetricsConfig::enabled.  Also usable standalone in tests.
class MetricsRegistry final : public MetricsSink {
 public:
  /// One sequential sample per executed round (called from the round loop
  /// after the lane merge, so every value is already thread-merged).
  void sample_round(std::uint64_t active, std::uint64_t heap,
                    std::uint64_t inbox, std::uint64_t outbox) {
    active_set_.observe(active);
    wake_heap_.observe(heap);
    inbox_csr_.observe(inbox);
    outbox_arena_.observe(outbox);
  }

  void counter(std::string_view name, std::uint64_t value) override {
    // Look up by view: only a name's first call builds its string.
    const auto it = counters_.find(name);
    if (it != counters_.end()) {
      it->second += value;
    } else {
      counters_.emplace(name, value);
    }
  }

  MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    s.active_set = active_set_;
    s.wake_heap = wake_heap_;
    s.inbox_csr = inbox_csr_;
    s.outbox_arena = outbox_arena_;
    s.counters.assign(counters_.begin(), counters_.end());  // map: sorted
    return s;
  }

 private:
  GaugeStats active_set_;
  GaugeStats wake_heap_;
  GaugeStats inbox_csr_;
  GaugeStats outbox_arena_;
  std::map<std::string, std::uint64_t, std::less<>> counters_;
};

/// Render a snapshot as the bench-compatible JSON document described in the
/// header comment.  Deterministic byte-for-byte: fixed gauge order, counters
/// sorted by name, no floats, newline-terminated.
std::string metrics_json(const MetricsSnapshot& snap);

/// Validate that `doc` is a well-formed engine_metrics snapshot: a bench
/// document (json/bench_doc.hpp's strict grammar, so no row repeats a key)
/// with the "engine_metrics" bench tag, whose rows are gauge rows
/// (samples/last/max/total, all four well-known names present exactly once)
/// or counter rows (value, sorted by name), nothing else.  On failure returns false and, if
/// `error` is non-null, stores a one-line reason.  This is the schema gate
/// CI runs against every per-PR snapshot.
bool validate_metrics_json(std::string_view doc, std::string* error);

}  // namespace ule
