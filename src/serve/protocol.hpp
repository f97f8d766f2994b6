// Payload grammars of the serve wire protocol (serve/frame.hpp): what goes
// INSIDE SubmitJob and JobResult frames.  Both grammars are deliberately
// line-oriented text — deterministic to the byte, diffable by eye, and
// parseable without a JSON library on either end.
//
// Submit payload (SubmitJob): a full `ule1:` replay token (docs/REPLAY.md) —
// the exact string the fuzzer prints and run_scenario replays — parsed by
// Scenario::parse.  SubmitJob defines no flag bits.
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

/// Interpret a SubmitJob payload (a replay token) as a Scenario.  Throws
/// std::invalid_argument with a client-facing diagnostic on malformed input
/// or on non-zero `flags` (SubmitJob defines none).
Scenario parse_submit(const std::string& payload, std::uint8_t flags);

/// FNV-1a over the per-node outcome vectors (statuses, then send counts):
/// one word that pins "every node ended in the same state with the same
/// traffic" without shipping n-sized vectors per job.
std::uint64_t outcome_digest(const ElectionReport& rep);

}  // namespace ule::serve
