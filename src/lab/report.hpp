// Campaign serialization: the BENCH_lab.json perf baseline, the generated
// docs/COMPLEXITY.md report (the empirical counterpart of the paper's
// Table 1), and the generated docs/REGISTRY.md protocol/family reference.
//
// The JSON document is a bench document (json/bench_doc.hpp): bench tag
// "complexity_lab", then flat rows written by json::JsonReport.  The trend
// gate reads it back with the module's strict reader — "bench" then "rows",
// no escape processing, no repeated key in a row, nothing after the closing
// brace — so anything that edits a lab document by hand must keep to that
// grammar.  Three row kinds, tagged by a "kind" field:
//
//   meta  one row: master_seed, replicates, total_runs
//   cell  one per (protocol, family, n): counter order statistics
//         (median / p95 / max of rounds, messages, bits) and — unless
//         include_wall is false — wall-clock order statistics
//   fit   one per declared growth curve: fitted exponent, confidence,
//         expected band, R², pass
//
// Counter statistics and fits are pure functions of (registries,
// master_seed); wall-clock fields are the only machine-dependent content, so
// bench_json(result, /*include_wall=*/false) is byte-identical across reruns
// and worker counts (pinned by tests/lab/campaign_test.cpp).

#pragma once

#include <string>

#include "lab/campaign.hpp"
#include "scenario/registry.hpp"

namespace ule::lab {

/// The BENCH_lab.json document (see file comment for the row schema).
std::string bench_json(const CampaignResult& res, bool include_wall = true);

/// The generated docs/COMPLEXITY.md: fitted-exponent table + per-curve
/// ladder tables.
std::string complexity_markdown(const CampaignResult& res);

/// The generated docs/REGISTRY.md: every registered protocol (contract,
/// knowledge, flags, envelope samples at reference shapes, declared growth
/// curves) and family (param ranges).  Deterministic — CI regenerates it and
/// fails on drift against the committed file.
std::string registry_markdown(const ProtocolRegistry& protocols,
                              const FamilyRegistry& families);

}  // namespace ule::lab
