// The run-counter table (for_each_counter, net/engine.hpp): every "same
// counters" check compares through it, so a counter that the comparison
// skipped would silently drop out of the thread-identity, off-path and
// replay checks at once.  Pins that perturbing any single counter is caught
// and named, and that the JobResult wire grammar keeps its fixed order.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "helpers.hpp"
#include "net/engine.hpp"
#include "serve/protocol.hpp"

namespace ule {
namespace {

TEST(RunCounters, PerturbingOneCounterIsNamedByTheComparison) {
  RunResult base;
  base.rounds = 40;
  base.messages = 900;
  base.completed = true;
  std::vector<std::string> names;
  for_each_counter(base, [&](const char* name, std::uint64_t) {
    names.emplace_back(name);
  });
  ASSERT_EQ(names.size(), 21u);
  for (std::size_t i = 0; i < names.size(); ++i) {
    RunResult got = base;
    std::size_t k = 0;
    for_each_counter(got, [&](const char*, auto& field) {
      if (k++ == i) field = field ? 0 : 1;
    });
    const std::vector<CounterDiff> diffs = diff_counters(base, got);
    ASSERT_EQ(diffs.size(), 1u) << names[i];
    EXPECT_EQ(diffs[0].name, names[i]);
    EXPECT_NE(diffs[0].base, diffs[0].got) << names[i];
    EXPECT_FALSE(testing::same_counters(base, got)) << names[i];
  }
  EXPECT_TRUE(diff_counters(base, base).empty());
}

TEST(RunCounters, ResultGrammarOrderIsPinned) {
  // The JobResult wire grammar (docs/SERVER.md): the table in struct order,
  // then the verdict and the outcome digest.  Reordering it breaks every
  // client that diffs daemon results against a local replay.
  const std::vector<std::string> golden = {
      "rounds", "executed_rounds", "node_steps", "messages", "bits",
      "completed", "congest_violations", "elected", "non_elected",
      "undecided", "last_status_change", "last_progress", "crashed",
      "recoveries", "adv_crash_drops", "adv_drops", "adv_dups",
      "adv_delays", "dead_links", "dead_link_drops", "healed_links",
      "unique_leader", "leader_slot", "outcome_digest"};
  ElectionReport rep;
  rep.run.completed = true;
  rep.verdict.unique_leader = true;
  std::vector<std::string> names;
  for (const auto& [name, value] : serve::result_counters(rep))
    names.push_back(name);
  EXPECT_EQ(names, golden);
  EXPECT_EQ(serve::result_counters(rep)[5].second, 1u);  // completed as 0/1
}

}  // namespace
}  // namespace ule
