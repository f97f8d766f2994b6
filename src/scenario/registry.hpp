// The protocol and graph-family registries: one place declaring every
// protocol's factory, knowledge prerequisites and success contract, and every
// graph family's parameterized, seedable generator with its valid ranges.
//
// Everything that used to be re-declared ad hoc (the AlgoSpec lambdas of
// matrix_test / congest_matrix_test, the factory lists of complexity_test)
// consumes these registries, and the conformance fuzzer draws its randomized
// scenario space from them.  A new protocol or family registers once and is
// immediately covered by the conformance matrix, the CONGEST matrix, the
// fuzzer and the Complexity Lab.
//
// The success contract is the paper's taxonomy (Table 1): deterministic
// algorithms and Las Vegas algorithms must elect a unique leader on every
// run; Monte Carlo algorithms may fail to elect (their whp analysis), but
// safety — never more than one leader — must still hold.  The round and
// message envelopes are generous universal bounds (they must hold for every
// family, seed and wakeup schedule, not just in expectation); the fuzzer
// treats a breach as a liveness / budget violation.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "election/election.hpp"
#include "net/graph.hpp"
#include "net/rng.hpp"
#include "scenario/scenario.hpp"

namespace ule {

/// Success contract of a protocol (Table 1's "success probability" column).
enum class Contract : std::uint8_t {
  Deterministic,  ///< must elect a unique leader on every run
  LasVegas,       ///< randomized; success probability 1
  MonteCarlo,     ///< may fail to elect (whp regime); safety must still hold
};

const char* to_string(Contract c);

/// Fault classes of the delivery adversary (net/adversary.hpp), as a bitmask
/// so a protocol can declare exactly which relaxations of the paper's
/// lockstep-synchronous fault-free model its SAFETY survives.  Safety here is
/// the paper's agreement half of the contract — never more than one leader,
/// never an agreement violation — with liveness declared separately
/// (ProtocolInfo::reliable_transport): under drops and crashes no reactive
/// protocol can promise termination on its own.
namespace faults {
inline constexpr std::uint8_t kNone = 0;
inline constexpr std::uint8_t kDelay = 1;      ///< bounded delivery delays
inline constexpr std::uint8_t kDrop = 2;       ///< message loss
inline constexpr std::uint8_t kDuplicate = 4;  ///< message duplication
inline constexpr std::uint8_t kReorder = 8;    ///< inbox reordering
inline constexpr std::uint8_t kCrash = 16;     ///< crash-stop node faults
inline constexpr std::uint8_t kAll = 31;

/// The classes a scenario-level adversary config exercises.
std::uint8_t classes(const ScenarioAdversary& adv);
/// Human-readable "delay|drop|..." (or "none") for reports and errors.
std::string to_string(std::uint8_t classes);
}  // namespace faults

/// Everything a protocol's prepare / envelope functions may assume about one
/// scenario instance.  Derived from the built graph + wakeup schedule by the
/// runner; tests and benches build it with shape_of().
struct ScenarioShape {
  std::size_t n = 0;
  std::size_t m = 0;
  std::uint32_t diameter = 0;  ///< exact
  bool complete = false;       ///< every node has degree n-1
  Round wakeup_span = 0;       ///< latest spontaneous wake round (0 = simultaneous)
  bool adversarial_wakeup = false;  ///< wakeup is not simultaneous
};

/// Shape of a concrete graph (diameter must be the exact diameter).
ScenarioShape shape_of(const Graph& g, std::uint32_t diameter,
                       Round wakeup_span = 0, bool adversarial_wakeup = false);

/// The engine Knowledge granting exactly `grant` for this instance.
Knowledge knowledge_for(const ScenarioShape& shape, KnowledgeGrant grant);

/// One declared asymptotic-growth claim: running the protocol over a ladder
/// of `family` instances, the log-log least-squares slope of `metric` against
/// the declared `axis` must land within `exponent` ± `tol`.  These are the
/// empirical counterparts of the paper's Table-1 entries; the Complexity Lab
/// (src/lab/) sweeps every declared curve and fails when a fitted slope
/// leaves its band.
///
/// Two axes, because the paper's bounds live on two axes: message bounds are
/// stated in n and m (axis "n": an ascending n-ladder), while the time bounds
/// are stated in the diameter — universal election runs in O(D) rounds, and
/// the lower-bound constructions hold D fixed while n grows — so O(D) claims
/// sweep a family's diameter ladder (axis "diameter": total size ~fixed,
/// growing D; see FamilyInfo::diameter_ladder) and fit against the
/// BFS-measured diameter.
///
/// Tolerances are calibrated for lab-sized ladders, where polylog factors
/// inflate the local slope (d ln(n·ln n)/d ln n = 1 + 1/ln n ≈ 1.2 at
/// n = 128), so a Θ(n log n) bound is declared as exponent 1 with tol ≥ 0.3.
/// Near-zero bands ("rounds independent of the axis") additionally get the
/// fit's own confidence width added to the tolerance (lab/fit.hpp,
/// effective_tolerance): a flat curve has no dynamic range in the metric, so
/// replicate noise dominates its slope.
struct GrowthExpectation {
  std::string family;  ///< family-registry key the ladder runs on
  std::string metric;  ///< "rounds" | "messages" | "bits"
  double exponent = 1.0;
  double tol = 0.3;
  std::string note;  ///< the paper bound this encodes (shown in reports)
  /// "n" | "diameter" | "loss": the ladder the fit runs on.  "loss" holds
  /// the shape fixed and sweeps the adversary's drop probability, fitting
  /// against x = 1/(1 - p) — the classical expected-transmissions factor of
  /// a retransmitting link — so the reliable wrapper's overhead
  /// (messages ≈ base · O(1/(1-p))) is a fitted, gated artifact.
  std::string axis = "n";
};

struct ProtocolInfo {
  std::string name;
  Contract contract = Contract::Deterministic;
  /// Minimum knowledge the protocol is entitled to; scenarios grant this or
  /// more (granting extra true values never hurts a correct algorithm).
  KnowledgeGrant min_knowledge = KnowledgeGrant::None;
  /// Safe under adversarial wakeup (random / single schedules).  Protocols
  /// running on a fixed global round schedule (spanner_elect) or epoch
  /// clock (the Las Vegas restarts) require simultaneous wakeup.
  bool wakeup_tolerant = false;
  /// Requires a complete topology (the [14] context result).
  bool needs_complete = false;
  /// The protocol is an explicit-election overlay (make_explicit): the
  /// runner additionally checks that every node learned the leader's id.
  bool explicit_overlay = false;
  /// Fault classes (faults::k*) under which the protocol's SAFETY holds:
  /// no run under an adversary restricted to these classes ever elects two
  /// leaders or violates agreement.  The runner rejects scenarios whose
  /// adversary exercises an undeclared class (a config error, not a
  /// violation); the conformance fuzzer draws adversaries inside this mask
  /// and the nightly hunts for declarations that are too generous.
  std::uint8_t safe_under = faults::kNone;
  /// Build the factory.  opt.knowledge is already set (>= min_knowledge);
  /// prepare may set opt.ids and other per-protocol options.
  std::function<ProcessFactory(const ScenarioShape&, RunOptions&)> prepare;
  /// Liveness envelope: max logical rounds a conforming run may take.
  std::function<Round(const ScenarioShape&)> round_envelope;
  /// Budget envelope: max messages a conforming run may send.
  std::function<std::uint64_t(const ScenarioShape&)> message_envelope;
  /// Declared growth curves (may be empty); consumed by the Complexity Lab.
  std::vector<GrowthExpectation> growth;
  /// The protocol runs behind the reliable link layer (net/reliable.hpp):
  /// prepare() wraps the base factory with make_reliable and the scenario's
  /// `r=` tail (ScenarioReliable) is honored.  This is also the one liveness
  /// declaration.  Every protocol terminates under delay and reorder alone
  /// (bounded asynchrony); the reliable transport additionally buys
  /// termination under loss up to 600‰ with duplication, and under bounded
  /// CHURN — every crash an empty first life (round 0) reborn within a
  /// bounded window, which the ARQ layer's go-back-all replay revives with
  /// the full history.  Later crashes stay safe but not live (see
  /// bounded_churn in runner.cpp).
  bool reliable_transport = false;
};

class ProtocolRegistry {
 public:
  /// Throws std::invalid_argument on a duplicate name.
  void add(ProtocolInfo info);
  const ProtocolInfo* find(const std::string& name) const;
  /// Like find(), but throws std::invalid_argument on an unknown name.
  const ProtocolInfo& at(const std::string& name) const;
  const std::vector<ProtocolInfo>& all() const { return protocols_; }

 private:
  std::vector<ProtocolInfo> protocols_;
};

/// Declared range of one integer family parameter.  Cross-parameter
/// constraints (e.g. gnm's n-1 <= m <= n(n-1)/2) are enforced by build().
struct ParamSpec {
  std::string name;
  std::uint64_t lo = 1;
  std::uint64_t hi = 1;
};

/// One rung of a family's diameter ladder: the parameterization to build and
/// the EXACT diameter the built instance will have.  Conventions must be
/// exact — tests/graphgen/family_properties_test.cpp BFS-measures every rung
/// and fails on any off-by-one, because a rung whose declared D drifts from
/// the real diameter silently poisons every diameter-axis fit.
struct DiameterRung {
  ScenarioParams params;
  std::uint64_t diameter = 0;
};

/// A family's diameter-ladder convention: instances of ~`nominal_n` total
/// nodes whose diameter grows with the rung (the dual of the n-ladder, where
/// the shape stays fixed and n grows).  rung(nominal_n, d) returns params
/// within the declared ParamSpec ranges and the exact resulting diameter;
/// `d` ranges over [min_d, max_d] (the lab additionally caps rungs at
/// ~nominal_n / 2 so the clique blobs never degenerate).
struct DiameterLadder {
  std::uint64_t min_d = 2;
  std::uint64_t max_d = 512;
  std::function<DiameterRung(std::uint64_t nominal_n, std::uint64_t d)> rung;
};

struct FamilyInfo {
  std::string name;
  std::vector<ParamSpec> params;
  /// Instances are complete graphs (usable by needs_complete protocols).
  bool complete = false;
  /// Build the instance.  `rng` drives randomized families (deterministic
  /// families ignore it), so a (params, seed) pair is fully replayable.
  /// Throws std::invalid_argument on invalid parameter combinations.
  std::function<Graph(const ScenarioParams&, Rng&)> build;
  /// Draw a valid parameterization with total n <= max_n (handles the
  /// cross-parameter constraints build() enforces).
  std::function<ScenarioParams(Rng&, std::size_t max_n)> draw;
  /// Candidate strictly-smaller parameterizations for failure shrinking
  /// (roughly halving and decrementing); empty when already minimal.
  std::function<std::vector<ScenarioParams>(const ScenarioParams&)> shrink;
  /// Diameter-ladder convention (fixed nominal n, growing D); absent for
  /// families whose diameter is tied to n (ring, path) or constant
  /// (complete, star).  Consumed by diameter-axis growth expectations.
  std::optional<DiameterLadder> diameter_ladder;
};

class FamilyRegistry {
 public:
  void add(FamilyInfo info);
  const FamilyInfo* find(const std::string& name) const;
  const FamilyInfo& at(const std::string& name) const;
  const std::vector<FamilyInfo>& all() const { return families_; }

 private:
  std::vector<FamilyInfo> families_;
};

/// The built-in sets: every conformant protocol and every family in the
/// library.  Returned by reference to a process-lifetime instance; copy it
/// to extend (e.g. tests registering deliberately broken protocols).
const ProtocolRegistry& default_protocols();
const FamilyRegistry& default_families();

/// Convenience for tests/benches running a protocol on a concrete graph:
/// grant exactly the protocol's required knowledge and build its factory.
ProcessFactory prepare_protocol(const ProtocolInfo& info,
                                const ScenarioShape& shape, RunOptions& opt);

}  // namespace ule
