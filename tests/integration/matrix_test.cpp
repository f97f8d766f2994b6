// The conformance matrix, driven by the scenario registry: every registered
// protocol x every standard graph family x every wakeup schedule the
// protocol tolerates.  Each cell asserts the protocol's registered success
// contract (see scenario/registry.hpp):
//
//   Deterministic / Las Vegas   a unique leader on every run;
//   Monte Carlo                 safety always (never two leaders; a leader
//                               implies everyone else decided), and at
//                               least one of the tested seeds elects when
//                               every node participates (the whp regime —
//                               under single wakeup a candidate-free waker
//                               may legitimately leave the network silent).
//
// The protocol list lives in the registry, not here: registering a protocol
// adds its row to this matrix, the CONGEST matrix and the conformance fuzzer
// at once.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "helpers.hpp"
#include "net/engine.hpp"
#include "net/wakeup.hpp"
#include "scenario/registry.hpp"

namespace ule {
namespace {

using testing::Family;

struct Cell {
  std::size_t fam;
  std::size_t proto;
  WakeupKind wakeup;
};

const std::vector<Family>& families() {
  static const std::vector<Family> fams = testing::standard_families();
  return fams;
}

const std::vector<Cell>& cells() {
  static const std::vector<Cell> all = [] {
    const std::vector<Family>& fams = families();
    const auto& protos = default_protocols().all();
    std::vector<Cell> out;
    for (std::size_t fi = 0; fi < fams.size(); ++fi) {
      // The same completeness definition the runner itself enforces.
      const bool complete = shape_of(fams[fi].graph, fams[fi].diameter).complete;
      for (std::size_t pi = 0; pi < protos.size(); ++pi) {
        if (protos[pi].needs_complete && !complete) continue;
        out.push_back({fi, pi, WakeupKind::Simultaneous});
        if (protos[pi].wakeup_tolerant) {
          out.push_back({fi, pi, WakeupKind::Random});
          out.push_back({fi, pi, WakeupKind::Single});
        }
      }
    }
    return out;
  }();
  return all;
}

class MatrixTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MatrixTest, RegisteredContractHoldsOnEveryFamily) {
  const Cell& cell = cells()[GetParam()];
  const Family& fam = families()[cell.fam];
  const ProtocolInfo& proto = default_protocols().all()[cell.proto];
  const std::size_t n = fam.graph.n();

  constexpr Round kSpread = 40;
  const ScenarioShape shape = shape_of(
      fam.graph, fam.diameter,
      cell.wakeup == WakeupKind::Random ? kSpread : Round{0},
      cell.wakeup != WakeupKind::Simultaneous);

  bool any_elected = false;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    RunOptions opt;
    opt.seed = seed * 7919 + cell.fam * 131 + cell.proto * 17 +
               static_cast<std::uint64_t>(cell.wakeup);
    Rng wrng(opt.seed * 65537 + 11);
    if (cell.wakeup == WakeupKind::Random) {
      opt.wakeup = random_wakeup(n, kSpread, wrng);
    } else if (cell.wakeup == WakeupKind::Single) {
      opt.wakeup = single_wakeup(n, static_cast<NodeId>(wrng.below(n)));
    }
    const ProcessFactory factory = prepare_protocol(proto, shape, opt);
    const ElectionReport rep = run_election(fam.graph, factory, opt);
    const std::string where = proto.name + " on " + fam.name + " wakeup " +
                              to_string(cell.wakeup) + " seed " +
                              std::to_string(seed);

    EXPECT_TRUE(rep.run.completed) << where;
    EXPECT_LE(rep.verdict.elected, 1u) << where;
    if (proto.contract != Contract::MonteCarlo) {
      EXPECT_TRUE(rep.verdict.unique_leader)
          << where << " elected=" << rep.verdict.elected
          << " undecided=" << rep.verdict.undecided;
    } else if (rep.verdict.elected == 1) {
      EXPECT_EQ(rep.verdict.undecided, 0u) << where;
    }
    any_elected = any_elected || rep.verdict.unique_leader;
  }

  // Monte Carlo liveness in the whp regime: when every node participates
  // (simultaneous or random wakeup wakes everyone spontaneously), three
  // seeds failing to produce any candidate would be a ~1e-5 event.
  if (proto.contract == Contract::MonteCarlo &&
      cell.wakeup != WakeupKind::Single) {
    EXPECT_TRUE(any_elected)
        << proto.name << " on " << fam.name << ": no seed elected";
  }
}

std::string cell_name(const ::testing::TestParamInfo<std::size_t>& info) {
  const Cell& cell = cells()[info.param];
  std::string s = default_protocols().all()[cell.proto].name + "_on_" +
                  families()[cell.fam].name + "_" + to_string(cell.wakeup);
  for (char& c : s)
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(AllCells, MatrixTest,
                         ::testing::Range<std::size_t>(0, cells().size()),
                         cell_name);

}  // namespace
}  // namespace ule
