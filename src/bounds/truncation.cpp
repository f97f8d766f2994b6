#include "bounds/truncation.hpp"

#include <memory>

#include "net/engine.hpp"
#include "net/message.hpp"

namespace ule {

namespace {
/// The flooded rank.  BallMaxProcess runs alone, so it needs no channel.
FlatMsg rank_msg(std::uint64_t value) {
  FlatMsg m;
  m.type = 1;
  m.bits = wire::kTypeTag + wire::kIdField;
  m.a = value;
  return m;
}
}  // namespace

void BallMaxProcess::on_wake(Context& ctx, std::span<const Envelope> inbox) {
  own_ = random_rank_ ? ctx.rng()() : ctx.uid();
  best_ = own_;
  if (horizon_ == 0) {
    decide(ctx);
    return;
  }
  ctx.broadcast(rank_msg(own_));
  on_round(ctx, inbox);
}

void BallMaxProcess::decide(Context& ctx) {
  decided_ = true;
  ctx.set_status(best_ == own_ ? Status::Elected : Status::NonElected);
  ctx.halt();
}

void BallMaxProcess::on_round(Context& ctx, std::span<const Envelope> inbox) {
  if (decided_) return;
  std::uint64_t incoming = 0;
  for (const auto& env : inbox) incoming = std::max(incoming, env.flat.a);
  if (incoming > best_) {
    best_ = incoming;
    // Still within the horizon: keep flooding improvements.
    if (ctx.round() < horizon_) ctx.broadcast(rank_msg(best_));
  }
  if (ctx.round() >= horizon_) {
    decide(ctx);
  } else {
    ctx.sleep_until(horizon_);
  }
}

ProcessFactory make_ball_max(Round horizon, bool random_rank) {
  return [horizon, random_rank](NodeId) {
    return std::make_unique<BallMaxProcess>(horizon, random_rank);
  };
}

TruncationStats run_truncation_trials(const Graph& g, Round horizon,
                                      std::size_t trials, std::uint64_t seed) {
  TruncationStats st;
  st.trials = trials;
  for (std::size_t t = 0; t < trials; ++t) {
    RunOptions opt;
    opt.seed = seed + 7919 * t + 1;
    opt.anonymous = true;  // the lower bound's anonymous setting
    const ElectionReport rep =
        run_election(g, make_ball_max(horizon, true), opt);
    if (rep.verdict.elected == 1) {
      ++st.unique_leader;
    } else if (rep.verdict.elected == 0) {
      ++st.zero_leaders;
    } else {
      ++st.multi_leaders;
    }
  }
  return st;
}

}  // namespace ule
