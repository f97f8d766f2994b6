// Payload grammars of the serve wire protocol (serve/frame.hpp): what goes
// INSIDE SubmitJob and JobResult frames.  Both grammars are deliberately
// line-oriented text — deterministic to the byte, diffable by eye, and
// parseable without a JSON library on either end.
//
// Submit payload (SubmitJob):
//   * default: a full `ule1:` replay token (docs/REPLAY.md) — the exact
//     string the fuzzer prints and run_scenario replays.
//   * with serve::kSubmitFields: explicit scenario fields as
//     `key=value;key=value;...`.  Recognized keys: family, protocol, k, w,
//     s, t (with the token grammar's value syntax) plus the optional a / f /
//     r tails; every OTHER key is a family parameter, kept in the order
//     given.  Example:
//       family=ring;n=16;protocol=flood_max;k=none;w=sim;s=7;t=1
//     The server assembles the fields into a token and parses it through
//     Scenario::parse, so both forms hit the same validation path.
//
// Result payload (JobResult): the result grammar — one `name=value` line
// per counter, in the fixed order result_counters() emits: the RunResult
// counters in for_each_counter's table order (net/engine.hpp), then the
// verdict, then a digest over the per-node outcome vectors (statuses + send
// counts), so "the daemon returned bit-for-bit what an in-process
// run_election produces" is a straight vector comparison: run the token
// locally, render result_counters of both, diff.  Wall-clock never appears
// — every line is a pure function of the token.

#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "election/election.hpp"
#include "scenario/scenario.hpp"

namespace ule::serve {

/// Named deterministic counters of one finished run, in a fixed order (see
/// file comment).  Identical scenarios produce identical vectors.
using ResultCounters = std::vector<std::pair<std::string, std::uint64_t>>;

/// Flatten a finished run into the result grammar's counter vector.
ResultCounters result_counters(const ElectionReport& rep);

/// Render counters as the JobResult payload (one `name=value\n` per entry).
std::string encode_result(const ResultCounters& counters);

/// Parse a JobResult payload back into its counter vector.  Throws
/// std::invalid_argument on a malformed line or a value past 2^64 - 1.
ResultCounters parse_result(const std::string& payload);

/// Interpret a SubmitJob payload (token or — when kSubmitFields is set —
/// explicit fields) as a Scenario.  Throws std::invalid_argument with a
/// client-facing diagnostic on malformed input.
Scenario parse_submit(const std::string& payload, std::uint8_t flags);

/// FNV-1a over the per-node outcome vectors (statuses, then send counts):
/// one word that pins "every node ended in the same state with the same
/// traffic" without shipping n-sized vectors per job.
std::uint64_t outcome_digest(const ElectionReport& rep);

}  // namespace ule::serve
