// Explicit leader election: every node must also KNOW the leader's identity.
//
// The paper studies the implicit variant ("these nodes need not be aware of
// the identity of the leader") but notes the explicit one throughout: "our
// algorithms apply to the explicit version as well" (Section 1), and the
// broadcast lower bound (Corollary 3.12) shows the extra announcement costs
// Θ(m) messages on general graphs — asymptotically free next to any of the
// election algorithms here.
//
// ExplicitProcess wraps ANY implicit election process: it runs the inner
// algorithm unchanged (through the shared wrapper driver,
// net/wrapped_process.hpp) and, the moment the inner algorithm sets status
// Elected at some node, that node floods a LEADER(id) announcement.  Every
// node forwards it once, so the overlay cost is exactly one message per edge
// direction, 2m in total, plus O(D) extra rounds.  In anonymous networks the winner announces a fresh random
// 64-bit token instead of an ID (the identity every node learns is that
// token — the strongest "explicit" guarantee possible without identifiers).
//
// Composition note: the wrapper relies only on the public Process/Context
// interface, so it composes with every algorithm in this library and any
// user-defined one, and it is itself an example of layering protocols over
// the engine.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "election/channels.hpp"
#include "election/election.hpp"
#include "net/outbox.hpp"
#include "net/wrapped_process.hpp"

namespace ule {

/// LEADER(token): the winner's identity, flooded once over every edge.
/// Flat fast path on the wrapper's own channel, so it never collides with
/// whatever channel(s) the wrapped inner algorithm speaks.
namespace explicitwire {
inline constexpr std::uint16_t kLeader = 1;

inline FlatMsg leader(std::uint64_t token) {
  FlatMsg m;
  m.type = kLeader;
  m.channel = channel::kExplicit;
  m.bits = wire::kTypeTag + wire::kIdField;
  m.a = token;
  return m;
}

inline bool is_leader(const Envelope& env) {
  return env.flat.type == kLeader && env.flat.channel == channel::kExplicit;
}
}  // namespace explicitwire

class ExplicitProcess final : public WrappedProcess {
 public:
  explicit ExplicitProcess(std::unique_ptr<Process> inner)
      : WrappedProcess(std::move(inner)) {}

  /// The leader identity this node learned (nullopt until the announcement
  /// reaches it).  Under unique IDs this is the leader's uid; in anonymous
  /// networks it is the winner's announcement token.
  std::optional<std::uint64_t> known_leader() const { return known_leader_; }

 private:
  class ElectionCtx;

  void run_step(Context& ctx, std::span<const Envelope> inbox,
                bool wake) override;
  void announce(Context& ctx, std::uint64_t token, PortId skip);

  PortOutbox outbox_;
  /// The inner's inbox for the current step (the arrivals that are not
  /// announcements); cleared at the top of each step, its capacity kept.
  std::vector<Envelope> inner_inbox_;
  std::optional<std::uint64_t> known_leader_;
  bool announced_ = false;        ///< we already forwarded/originated
  bool inner_elected_ = false;
};

/// Wrap an implicit-election factory into an explicit-election factory.
ProcessFactory make_explicit(ProcessFactory inner);

}  // namespace ule
