// metrics.hpp implementation: the engine_metrics rendering and the schema
// validator CI runs against per-PR snapshots.  Both go through the bench
// document module (json/bench_doc.hpp): metrics_json builds its rows with
// json::JsonReport, and validate_metrics_json is json::parse — which owns
// the grammar, including "no row repeats a key" — plus the schema checks
// below (bench tag, row kinds, required fields, the four well-known gauges
// appearing exactly once each, counters sorted by name).

#include "net/metrics.hpp"

#include <cstddef>
#include <stdexcept>

#include "json/bench_doc.hpp"

namespace ule {

namespace {

constexpr const char* kGaugeNames[] = {"active_set", "wake_heap", "inbox_csr",
                                       "outbox_arena"};

bool fail(std::string* error, const std::string& reason) {
  if (error != nullptr) *error = reason;
  return false;
}

}  // namespace

std::string metrics_json(const MetricsSnapshot& snap) {
  json::JsonReport report("engine_metrics");
  const GaugeStats* gauges[] = {&snap.active_set, &snap.wake_heap,
                                &snap.inbox_csr, &snap.outbox_arena};
  for (std::size_t i = 0; i < 4; ++i)
    report.add_row()
        .set("kind", "gauge")
        .set("name", kGaugeNames[i])
        .set("samples", gauges[i]->samples)
        .set("last", gauges[i]->last)
        .set("max", gauges[i]->max)
        .set("total", gauges[i]->total);
  for (const auto& [name, value] : snap.counters)
    report.add_row().set("kind", "counter").set("name", name).set("value",
                                                                  value);
  return report.str();
}

bool validate_metrics_json(std::string_view doc, std::string* error) {
  json::Document parsed;
  try {
    parsed = json::parse(doc);
  } catch (const std::invalid_argument& e) {
    return fail(error, e.what());
  }
  if (parsed.bench != "engine_metrics")
    return fail(error, "bench tag is \"" + parsed.bench +
                           "\", expected \"engine_metrics\"");

  int gauge_seen[4] = {0, 0, 0, 0};
  std::string prev_counter;
  for (std::size_t r = 0; r < parsed.rows.size(); ++r) {
    const std::string where = "row " + std::to_string(r);
    std::string kind, name;
    bool has_value = false;
    int stat_fields = 0;  // samples/last/max/total seen on a gauge row
    for (const auto& [key, value] : parsed.rows[r].fields) {
      if (key == "kind" || key == "name") {
        if (!value.quoted)
          return fail(error, where + ": \"" + key + "\" is not a string");
        (key == "kind" ? kind : name) = value.text;
        continue;
      }
      const bool stat =
          key == "samples" || key == "last" || key == "max" || key == "total";
      if (!stat && key != "value")
        return fail(error, where + ": unknown field \"" + key + "\"");
      if (value.quoted ||
          value.text.find_first_not_of("0123456789") != std::string::npos)
        return fail(error, where + ": \"" + key +
                               "\" is not an unsigned integer");
      if (stat)
        ++stat_fields;
      else
        has_value = true;
    }
    if (name.empty())
      return fail(error, where + " has no name");
    if (kind == "gauge") {
      if (stat_fields != 4 || has_value)
        return fail(error, "gauge row \"" + name +
                               "\" must carry exactly samples/last/max/total");
      bool known = false;
      for (int i = 0; i < 4; ++i)
        if (name == kGaugeNames[i]) {
          ++gauge_seen[i];
          known = true;
        }
      if (!known)
        return fail(error, "unknown gauge \"" + name + "\"");
    } else if (kind == "counter") {
      if (!has_value || stat_fields != 0)
        return fail(error, "counter row \"" + name +
                               "\" must carry exactly one value");
      if (!prev_counter.empty() && !(prev_counter < name))
        return fail(error, "counter rows not sorted: \"" + prev_counter +
                               "\" before \"" + name + "\"");
      prev_counter = name;
    } else {
      return fail(error, where + " has kind \"" + kind + "\"");
    }
  }
  for (int i = 0; i < 4; ++i)
    if (gauge_seen[i] != 1)
      return fail(error, std::string("gauge \"") + kGaugeNames[i] +
                             "\" appears " + std::to_string(gauge_seen[i]) +
                             " times, expected exactly once");
  return true;
}

}  // namespace ule
