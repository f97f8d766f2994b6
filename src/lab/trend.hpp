// The BENCH_lab.json trend gate: diff a freshly generated campaign document
// against the committed baseline and fail on drift.
//
// Everything in a lab document except the wall-clock fields is a pure
// function of (registries, master seed) — so on an unchanged registry the
// committed baseline and a fresh run of the same configuration must agree on
// every counter statistic, and the fitted exponents may move only by
// floating-point noise (different libm versions can wiggle the last digits
// of ln()).  CI regenerates the quick campaign and runs this comparison
// (`complexity_lab --trend BASELINE CURRENT`): a counter that moved means an
// engine or protocol behavior change that must be acknowledged by
// regenerating the baselines; an exponent outside tolerance means a growth
// curve actually bent.  Wall-clock fields are machine-specific and ignored.
//
// Comparison keys: cell rows by (protocol, family, axis, n), fit rows by
// (protocol, family, axis, metric).  Rows present in the baseline but
// missing from the current document are coverage regressions (errors unless
// allow_missing); new rows in the current document are benign (new curves
// land before their baseline is regenerated) and reported as notes.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace ule::lab {

struct TrendConfig {
  /// Absolute tolerance on fitted exponents and their stderr — the stderr
  /// feeds the near-zero band verdict, so both are load-bearing (anything
  /// past cross-platform libm noise is real drift).
  double exponent_tol = 0.05;
  /// Permit baseline rows with no counterpart in the current document.
  bool allow_missing = false;
};

struct TrendReport {
  std::vector<std::string> errors;  ///< drift: the gate fails
  std::vector<std::string> notes;   ///< benign differences (new curves, ...)
  std::size_t cells_compared = 0;
  std::size_t fits_compared = 0;
  bool ok() const { return errors.empty(); }
};

/// Compare two BENCH_lab.json documents (verbatim file contents, baseline
/// first).  Both are read with the strict bench-document reader
/// (json/bench_doc.hpp): "bench" then "rows", no escape processing, no key
/// repeated within a row, nothing after the closing brace.  Throws
/// std::invalid_argument when a document breaks that grammar, carries a
/// bench tag other than "complexity_lab", or holds a number that does not
/// convert in full (`4-7`) in a field the gate reads.  Incomparable
/// campaigns (different master seed or replicate count — a configuration
/// change, not drift) are reported as errors.
TrendReport compare_lab_trend(const std::string& baseline_json,
                              const std::string& current_json,
                              const TrendConfig& cfg = {});

}  // namespace ule::lab
