#include "serve/protocol.hpp"

#include <stdexcept>

#include "serve/frame.hpp"

namespace ule::serve {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void fnv_word(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= kFnvPrime;
  }
}

}  // namespace

std::uint64_t outcome_digest(const ElectionReport& rep) {
  std::uint64_t h = kFnvOffset;
  fnv_word(h, rep.statuses.size());
  for (const Status s : rep.statuses)
    fnv_word(h, static_cast<std::uint64_t>(s));
  fnv_word(h, rep.sent_by_node.size());
  for (const std::uint64_t c : rep.sent_by_node) fnv_word(h, c);
  return h;
}

ResultCounters result_counters(const ElectionReport& rep) {
  ResultCounters out;
  for_each_counter(rep.run, [&out](const char* name, std::uint64_t v) {
    out.emplace_back(name, v);
  });
  out.emplace_back("unique_leader", rep.verdict.unique_leader ? 1 : 0);
  out.emplace_back("leader_slot", rep.verdict.leader_slot);
  out.emplace_back("outcome_digest", outcome_digest(rep));
  return out;
}

std::string encode_result(const ResultCounters& counters) {
  std::string out;
  for (const auto& [name, value] : counters) {
    out += name;
    out += '=';
    out += std::to_string(value);
    out += '\n';
  }
  return out;
}

ResultCounters parse_result(const std::string& payload) {
  ResultCounters out;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t nl = payload.find('\n', pos);
    if (nl == std::string::npos) nl = payload.size();
    const std::string line = payload.substr(pos, nl - pos);
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 >= line.size())
      throw std::invalid_argument("malformed result line \"" + line + "\"");
    const std::string digits = line.substr(eq + 1);
    std::uint64_t v = 0;
    for (const char c : digits) {
      if (c < '0' || c > '9')
        throw std::invalid_argument("malformed result value \"" + line +
                                    "\"");
      const auto d = static_cast<std::uint64_t>(c - '0');
      if (v > (UINT64_MAX - d) / 10)
        throw std::invalid_argument("result value overflows 64 bits \"" +
                                    line + "\"");
      v = v * 10 + d;
    }
    out.emplace_back(line.substr(0, eq), v);
    pos = nl + 1;
  }
  return out;
}

Scenario parse_submit(const std::string& payload, std::uint8_t flags) {
  if ((flags & kSubmitFields) == 0) return Scenario::parse(payload);

  // Explicit fields: assemble a token, then reuse the one validation path.
  // Scalar keys overwrite (last wins is an ERROR — the token parser's
  // duplicate-segment rule extends here); unrecognized keys are family
  // params in the order given.
  std::string family, protocol, k = "none", w = "sim", s = "1", t = "1";
  std::string a, f, r;
  std::vector<std::pair<std::string, std::string>> params;
  bool seen_family = false, seen_protocol = false, seen_k = false,
       seen_w = false, seen_s = false, seen_t = false;
  std::size_t pos = 0;
  while (pos < payload.size()) {
    std::size_t semi = payload.find(';', pos);
    if (semi == std::string::npos) semi = payload.size();
    const std::string item = payload.substr(pos, semi - pos);
    pos = semi + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0)
      throw std::invalid_argument("submit field \"" + item +
                                  "\" must be key=value");
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    const auto scalar = [&](std::string& slot, bool& seen) {
      if (seen)
        throw std::invalid_argument("duplicate submit field \"" + key + "\"");
      seen = true;
      slot = value;
    };
    if (key == "family") scalar(family, seen_family);
    else if (key == "protocol") scalar(protocol, seen_protocol);
    else if (key == "k") scalar(k, seen_k);
    else if (key == "w") scalar(w, seen_w);
    else if (key == "s") scalar(s, seen_s);
    else if (key == "t") scalar(t, seen_t);
    else if (key == "a" || key == "f" || key == "r") {
      std::string& slot = key == "a" ? a : key == "f" ? f : r;
      if (!slot.empty())
        throw std::invalid_argument("duplicate submit field \"" + key + "\"");
      slot = value;
    } else {
      params.emplace_back(key, value);
    }
  }
  if (!seen_family || !seen_protocol)
    throw std::invalid_argument(
        "submit fields must name at least family=... and protocol=...");

  std::string token = "ule1:" + family + "{";
  bool first = true;
  for (const auto& [name, value] : params) {
    if (!first) token += ',';
    first = false;
    token += name + "=" + value;
  }
  token += "}:" + protocol + ":k=" + k + ":w=" + w + ":s=" + s + ":t=" + t;
  if (!a.empty()) token += ":a=" + a;
  if (!f.empty()) token += ":f=" + f;
  if (!r.empty()) token += ":r=" + r;
  return Scenario::parse(token);
}

}  // namespace ule::serve
