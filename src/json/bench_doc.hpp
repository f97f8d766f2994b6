// The bench document: the one writer and the one reader of every
// {"bench": ..., "rows": [...]} JSON file in the repo — the BENCH_*.json
// baselines, the Complexity Lab campaign documents the trend gate diffs, and
// the engine_metrics snapshots the schema gate checks.
//
// The format is deliberately flat: one top-level object holding a "bench"
// string and a "rows" array of flat objects whose values are strings,
// numbers or booleans.  The writer renders it byte-for-byte the same way for
// every producer:
//
//   {
//     "bench": "<name>",
//     "rows": [
//       {"key": "string", "count": 12, "ratio": 0.5, "ok": true},
//       ...
//     ]
//   }
//
// The reader accepts exactly this grammar and nothing looser:
//
//  * whitespace is the C isspace set, allowed between any two tokens;
//  * strings are '"' [^"]* '"' with no escape processing (names are dotted
//    identifiers; the writer never escapes either);
//  * a scalar is `true`, `false`, or a non-empty run of [0-9+-.eE], kept as
//    raw text — callers convert it, so a malformed number fails where it is
//    read instead of being half-parsed here;
//  * the top-level object is "bench" then "rows", in that order, and nothing
//    but whitespace may follow its closing brace;
//  * a row may not repeat a key.
//
// Any violation throws std::invalid_argument naming the byte offset.
//
// Standard library only, so net/metrics.cpp can render and validate
// snapshots with it; net/metrics.hpp (and through it engine.hpp) does not
// include it.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ule::json {

/// One flat row, rendered as fields are set: ordered key -> (string |
/// number | bool).  Doubles use %.6g; strings are written verbatim.
class JsonObject {
 public:
  JsonObject& set(std::string_view key, std::string_view v);
  JsonObject& set(std::string_view key, const char* v) {
    return set(key, std::string_view(v));
  }
  JsonObject& set(std::string_view key, double v);
  JsonObject& set(std::string_view key, std::uint64_t v);
  JsonObject& set(std::string_view key, bool v);

 private:
  friend class JsonReport;
  void key(std::string_view k);
  std::string body_;  ///< `"k": v, "k": v` without the braces
};

/// Collects rows under one bench tag and renders the document.
class JsonReport {
 public:
  explicit JsonReport(std::string bench) : bench_(std::move(bench)) {}

  JsonObject& add_row() { return rows_.emplace_back(); }

  /// The whole document, newline-terminated (see the file comment).
  std::string str() const;

  /// write_text_file(path, str()).
  void write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<JsonObject> rows_;
};

/// A parsed value: string contents without the quotes, or a scalar's raw
/// text ("true", "false", "12", "4.5e-07", ...).
struct Value {
  std::string text;
  bool quoted = false;  ///< true for a string
};

struct Row {
  std::vector<std::pair<std::string, Value>> fields;  ///< document order

  /// The value stored under `key`, or nullptr.
  const Value* find(std::string_view key) const;
};

struct Document {
  std::string bench;
  std::vector<Row> rows;
};

/// Parse a bench document under the strict grammar of the file comment.
/// Throws std::invalid_argument ("... at offset N: ...") on any error.
Document parse(std::string_view text);

/// Write `content` to `path`.  Throws std::runtime_error when the file
/// cannot be opened, written or closed (a full disk fails here, not later).
void write_text_file(const std::string& path, std::string_view content);

/// Read `path` in full.  Throws std::runtime_error when it cannot be opened
/// or a read fails.
std::string read_text_file(const std::string& path);

}  // namespace ule::json
