#include "serve/protocol.hpp"

#include <stdexcept>

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
  if (flags != 0)
    throw std::invalid_argument("unknown SubmitJob flags " +
                                std::to_string(flags));
  return Scenario::parse(payload);
}

}  // namespace ule::serve
