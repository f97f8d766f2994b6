#include "lab/trend.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "json/bench_doc.hpp"

namespace ule::lab {

namespace {

using json::Row;

/// The rows of a lab document; throws std::invalid_argument on a parse
/// error or a bench tag other than "complexity_lab".
std::vector<Row> lab_rows(const std::string& text, const char* which) {
  json::Document doc;
  try {
    doc = json::parse(text);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument(std::string(which) + ": " + e.what());
  }
  if (doc.bench != "complexity_lab")
    throw std::invalid_argument(std::string(which) + ": bench tag is \"" +
                                doc.bench + "\", expected \"complexity_lab\"");
  return std::move(doc.rows);
}

std::string get_str(const Row& row, std::string_view key,
                    const std::string& fallback = "") {
  const json::Value* v = row.find(key);
  return v != nullptr && v->quoted ? v->text : fallback;
}

/// True when `key` holds the bare literal `word` ("true" / "false").
bool is_literal(const Row& row, std::string_view key, std::string_view word) {
  const json::Value* v = row.find(key);
  return v != nullptr && !v->quoted && v->text == word;
}

/// The number stored under `key`; false when the field is absent, a string
/// or a boolean.  A number that does not convert in full throws, so "4-7"
/// can never be compared as 4.
bool get_num(const Row& row, std::string_view key, double* out) {
  const json::Value* v = row.find(key);
  if (v == nullptr || v->quoted || v->text == "true" || v->text == "false")
    return false;
  const char* end = v->text.data() + v->text.size();
  const auto [stop, ec] = std::from_chars(v->text.data(), end, *out);
  if (ec != std::errc() || stop != end)
    throw std::invalid_argument("malformed number \"" + v->text +
                                "\" in field \"" + std::string(key) + "\"");
  return true;
}

/// Key of a row for baseline<->current matching ("" = not a compared kind).
/// Pre-axis documents (PR 4) carried no axis field; default to "n" so an old
/// baseline stays comparable after the axis column lands.
std::string row_key(const Row& row) {
  const std::string kind = get_str(row, "kind");
  const std::string axis = get_str(row, "axis", "n");
  if (kind == "cell") {
    // Both coordinates: on the n-axis the diameter can repeat across rungs
    // (complete graphs), on the diameter axis the ~fixed nominal size can —
    // together they are unique on either ladder.
    double n = 0, d = 0, pm = 0;
    get_num(row, "n", &n);
    get_num(row, "diameter", &d);
    // Loss-axis rungs share a single shape; drop_pm is the coordinate that
    // separates them (absent or 0 everywhere else — and on the ladder's own
    // fault-free rung, which n+D already make unique).
    get_num(row, "drop_pm", &pm);
    std::string key = "cell " + get_str(row, "protocol") + " x " +
                      get_str(row, "family") + " [" + axis + "] n=" +
                      std::to_string(static_cast<std::uint64_t>(n)) +
                      " D=" + std::to_string(static_cast<std::uint64_t>(d));
    if (pm != 0)
      key += " p=" + std::to_string(static_cast<std::uint64_t>(pm));
    return key;
  }
  if (kind == "fit") {
    return "fit " + get_str(row, "protocol") + " x " + get_str(row, "family") +
           " [" + axis + "] " + get_str(row, "metric");
  }
  return "";
}

/// The deterministic numeric fields of a row kind (wall-clock fields are
/// deliberately absent).
const std::vector<std::string>& compared_fields(const std::string& kind) {
  // n and diameter are part of the row key; a shape change surfaces as a
  // missing/new row pair rather than a field drift.
  static const std::vector<std::string> cell = {
      "m",           "replicates",  "rounds_median",    "rounds_p95",
      "rounds_max",  "messages_median", "messages_p95", "messages_max",
      "bits_median", "bits_p95",    "bits_max"};
  static const std::vector<std::string> fit = {"points", "expected", "tol"};
  static const std::vector<std::string> none;
  if (kind == "cell") return cell;
  if (kind == "fit") return fit;
  return none;
}

}  // namespace

TrendReport compare_lab_trend(const std::string& baseline_json,
                              const std::string& current_json,
                              const TrendConfig& cfg) {
  const std::vector<Row> base = lab_rows(baseline_json, "baseline");
  const std::vector<Row> cur = lab_rows(current_json, "current");

  TrendReport rep;

  // --- meta: incomparable campaigns are a configuration change -----------
  const auto find_meta = [](const std::vector<Row>& rows) -> const Row* {
    for (const Row& r : rows)
      if (get_str(r, "kind") == "meta") return &r;
    return nullptr;
  };
  const Row* mb = find_meta(base);
  const Row* mc = find_meta(cur);
  if (mb == nullptr || mc == nullptr) {
    rep.errors.push_back("missing meta row (baseline and current must both "
                         "be complexity_lab documents)");
    return rep;
  }
  for (const char* key : {"master_seed", "replicates"}) {
    double vb = 0, vc = 0;
    get_num(*mb, key, &vb);
    get_num(*mc, key, &vc);
    if (vb != vc)
      rep.errors.push_back(
          std::string("meta: ") + key + " differs (baseline " +
          std::to_string(static_cast<std::uint64_t>(vb)) + ", current " +
          std::to_string(static_cast<std::uint64_t>(vc)) +
          ") — the campaigns are incomparable; regenerate the baseline");
  }
  if (!rep.errors.empty()) return rep;

  // --- index the current rows by key --------------------------------------
  std::map<std::string, const Row*> cur_by_key;
  for (const Row& r : cur) {
    const std::string key = row_key(r);
    if (!key.empty()) cur_by_key[key] = &r;
  }

  std::map<std::string, bool> matched;
  for (const auto& [key, row] : cur_by_key) matched[key] = false;

  for (const Row& b : base) {
    const std::string key = row_key(b);
    if (key.empty()) continue;
    const auto it = cur_by_key.find(key);
    if (it == cur_by_key.end()) {
      (cfg.allow_missing ? rep.notes : rep.errors)
          .push_back("missing from current: " + key);
      continue;
    }
    matched[key] = true;
    const Row& c = *it->second;
    const std::string kind = get_str(b, "kind");
    if (kind == "cell")
      ++rep.cells_compared;
    else
      ++rep.fits_compared;

    for (const std::string& field : compared_fields(kind)) {
      double vb = 0, vc = 0;
      const bool hb = get_num(b, field, &vb), hc = get_num(c, field, &vc);
      if (!hb || !hc) {
        if (hb != hc)
          rep.errors.push_back(key + ": field " + field +
                               " present in only one document");
        continue;
      }
      // Counter statistics are pure functions of the master seed: exact.
      if (vb != vc)
        rep.errors.push_back(key + ": " + field + " drifted " +
                             std::to_string(vb) + " -> " +
                             std::to_string(vc));
    }

    if (kind == "fit") {
      // exponent and its stderr share the float tolerance (the stderr feeds
      // the near-zero band verdict, so it is load-bearing too).
      for (const char* field : {"exponent", "stderr"}) {
        double eb = 0, ec = 0;
        if (get_num(b, field, &eb) && get_num(c, field, &ec) &&
            std::abs(eb - ec) > cfg.exponent_tol)
          rep.errors.push_back(key + ": " + field + " drifted " +
                               std::to_string(eb) + " -> " +
                               std::to_string(ec) + " (tol " +
                               std::to_string(cfg.exponent_tol) + ")");
      }
      const bool pass_b = is_literal(b, "pass", "true");
      const bool pass_c = is_literal(c, "pass", "true");
      if (pass_b && !pass_c)
        rep.errors.push_back(key + ": was in band, now FAILS its band");
      if (!pass_b && pass_c)
        rep.notes.push_back(key + ": was out of band, now passes");
    }
    // A cell is ok unless it says "ok": false.
    if (kind == "cell" && !is_literal(b, "ok", "false") &&
        is_literal(c, "ok", "false"))
      rep.errors.push_back(key + ": cell now has conformance violations");
  }

  for (const auto& [key, seen] : matched)
    if (!seen) rep.notes.push_back("new in current: " + key);

  return rep;
}

}  // namespace ule::lab
