#include "election/explicit_elect.hpp"

#include <vector>

namespace ule {

// The inner algorithm's status passes through, and the wrapper notices the
// moment it becomes Elected; everything else is the shared pass-through.
class ExplicitProcess::ElectionCtx final : public InnerCtx {
 public:
  ElectionCtx(Context& real, ExplicitProcess& owner)
      : InnerCtx(real, owner), owner_(owner) {}

  void set_status(Status s) override {
    real_.set_status(s);
    if (s == Status::Elected) owner_.inner_elected_ = true;
  }

 private:
  ExplicitProcess& owner_;
};

void ExplicitProcess::announce(Context& ctx, std::uint64_t token,
                               PortId skip) {
  announced_ = true;
  known_leader_ = token;
  const FlatMsg msg = explicitwire::leader(token);
  for (PortId p = 0; p < ctx.degree(); ++p) {
    if (p != skip) outbox_.queue(p, msg);
  }
}

void ExplicitProcess::run_step(Context& ctx, std::span<const Envelope> inbox,
                               bool wake) {
  // Split the inbox: announcements are the wrapper's, the rest is the inner
  // algorithm's.
  inner_inbox_.clear();
  PortId first_announce_port = kNoPort;
  std::uint64_t announce_token = 0;
  for (const auto& env : inbox) {
    if (explicitwire::is_leader(env)) {
      if (first_announce_port == kNoPort) {
        first_announce_port = env.port;
        announce_token = env.flat.a;
      }
    } else {
      inner_inbox_.push_back(env);
    }
  }
  if (first_announce_port != kNoPort && !announced_) {
    announce(ctx, announce_token, first_announce_port);
  }

  ElectionCtx ec(ctx, *this);
  step_inner(ec, inner_inbox_, wake);

  // The moment this node wins the inner election, announce its identity.
  if (inner_elected_ && !announced_) {
    const std::uint64_t token = ctx.anonymous() ? ctx.rng()() : ctx.uid();
    announce(ctx, token, kNoPort);
  }

  // Arbitrate scheduling: announcement backlog keeps us runnable; otherwise
  // follow the inner algorithm, except that a halt is deferred until the
  // announcement has passed through this node (a halted node would break
  // the flood).
  const bool backlog = outbox_.flush(ctx);
  if (backlog) return;  // stay runnable
  switch (inner_wish()) {
    case Wish::Running:
      return;
    case Wish::Idle:
      ctx.idle();
      return;
    case Wish::Sleep:
      ctx.sleep_until(inner_deadline());
      return;
    case Wish::Halt:
      if (known_leader_.has_value()) {
        ctx.halt();
      } else {
        ctx.idle();  // wait for the announcement before disappearing
      }
      return;
  }
}

ProcessFactory make_explicit(ProcessFactory inner) {
  return [inner = std::move(inner)](NodeId slot) {
    return std::make_unique<ExplicitProcess>(inner(slot));
  };
}

}  // namespace ule
