#include "election/explicit_elect.hpp"

#include <vector>

namespace ule {

// A Context that passes everything through to the engine's context except
// the scheduling verbs (idle/sleep/halt) and set_status, which are captured
// so the wrapper can arbitrate between the inner algorithm's wishes and its
// own announcement duties.
class ExplicitProcess::PassThroughCtx final : public Context {
 public:
  PassThroughCtx(Context& real, ExplicitProcess::Wish& wish, Round& deadline,
                 bool& elected)
      : real_(real), wish_(wish), deadline_(deadline), elected_(elected) {}

  NodeId slot() const override { return real_.slot(); }
  std::size_t degree() const override { return real_.degree(); }
  bool anonymous() const override { return real_.anonymous(); }
  Uid uid() const override { return real_.uid(); }
  Round round() const override { return real_.round(); }
  Rng& rng() override { return real_.rng(); }
  const Knowledge& knowledge() const override { return real_.knowledge(); }
  void send(PortId port, const FlatMsg& msg, const LinkHeader& link) override {
    real_.send(port, msg, link);
  }
  Status status() const override { return real_.status(); }

  void set_status(Status s) override {
    real_.set_status(s);
    if (s == Status::Elected) elected_ = true;
  }
  void idle() override { wish_ = Wish::Idle; }
  void sleep_until(Round r) override {
    wish_ = Wish::Sleep;
    deadline_ = r;
  }
  void halt() override { wish_ = Wish::Halt; }

 private:
  Context& real_;
  ExplicitProcess::Wish& wish_;
  Round& deadline_;
  bool& elected_;
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

void ExplicitProcess::run_inner(Context& ctx, std::span<const Envelope> inbox,
                                bool wake) {
  // Split the inbox: announcements are the wrapper's, the rest is the inner
  // algorithm's.
  std::vector<Envelope> inner_inbox;
  inner_inbox.reserve(inbox.size());
  PortId first_announce_port = kNoPort;
  std::uint64_t announce_token = 0;
  for (const auto& env : inbox) {
    if (explicitwire::is_leader(env)) {
      if (first_announce_port == kNoPort) {
        first_announce_port = env.port;
        announce_token = env.flat.a;
      }
    } else {
      inner_inbox.push_back(env);
    }
  }
  if (first_announce_port != kNoPort && !announced_) {
    announce(ctx, announce_token, first_announce_port);
  }

  // Deliver the round to the inner algorithm only when the engine itself
  // would have: it never slept, it has messages, or its deadline fired.
  const bool due =
      wake || inner_wish_ == Wish::Running || !inner_inbox.empty() ||
      (inner_wish_ == Wish::Sleep && ctx.round() >= inner_deadline_);
  if (due && inner_wish_ != Wish::Halt) {
    inner_wish_ = Wish::Running;
    bool elected_now = false;
    PassThroughCtx pc(ctx, inner_wish_, inner_deadline_, elected_now);
    if (wake) {
      inner_->on_wake(pc, inner_inbox);
    } else {
      inner_->on_round(pc, inner_inbox);
    }
    if (elected_now) inner_elected_ = true;
  }

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
  switch (inner_wish_) {
    case Wish::Running:
      return;
    case Wish::Idle:
      ctx.idle();
      return;
    case Wish::Sleep:
      ctx.sleep_until(inner_deadline_);
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

void ExplicitProcess::on_wake(Context& ctx, std::span<const Envelope> inbox) {
  run_inner(ctx, inbox, /*wake=*/true);
}

void ExplicitProcess::on_round(Context& ctx, std::span<const Envelope> inbox) {
  run_inner(ctx, inbox, /*wake=*/false);
}

ProcessFactory make_explicit(ProcessFactory inner) {
  return [inner = std::move(inner)](NodeId slot) {
    return std::make_unique<ExplicitProcess>(inner(slot));
  };
}

}  // namespace ule
