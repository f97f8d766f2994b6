#include "spanner/baswana_sen.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "election/channels.hpp"
#include "net/message.hpp"

namespace ule {

namespace {

// --- wire format ----------------------------------------------------------
// A cluster-state announcement needs center (one id word) plus depth, phase
// and the sampled bit; depth and phase are hop / level counters that fit 32
// bits each, so both bit-pack into the second payload word and the sampled
// bit rides the flag byte.
namespace spannerwire {
inline constexpr std::uint16_t kState = 1;
inline constexpr std::uint16_t kAddEdge = 2;
inline constexpr std::uint8_t kSampledFlag = 1;
inline constexpr std::uint32_t kStateBits =
    wire::kTypeTag + wire::kIdField + 2 * wire::kCounter + wire::kFlag;
inline constexpr std::uint32_t kAddEdgeBits = wire::kTypeTag;

inline FlatMsg state(std::uint64_t center, bool sampled, std::uint32_t depth,
                     std::uint32_t phase) {
  FlatMsg m;
  m.type = kState;
  m.channel = channel::kSpanner;
  m.flags = sampled ? kSampledFlag : 0;
  m.bits = kStateBits;
  m.a = center;
  m.b = (static_cast<std::uint64_t>(phase) << 32) | depth;
  return m;
}

inline FlatMsg add_edge() {
  FlatMsg m;
  m.type = kAddEdge;
  m.channel = channel::kSpanner;
  m.bits = kAddEdgeBits;
  return m;
}

inline std::uint32_t depth_of(const FlatMsg& m) {
  return static_cast<std::uint32_t>(m.b);
}
inline std::uint32_t phase_of(const FlatMsg& m) {
  return static_cast<std::uint32_t>(m.b >> 32);
}
}  // namespace spannerwire
}  // namespace

Round spanner_finish_round(std::uint32_t k) {
  Round start = 0;
  for (std::uint32_t i = 1; i < k; ++i) start += i + 2;
  return start + k + 2;
}

Round BaswanaSenProcess::window_start(std::uint32_t phase) const {
  Round start = 0;
  for (std::uint32_t i = 1; i < phase; ++i) start += i + 2;
  return start;
}

void BaswanaSenProcess::add_spanner_port(Context& /*ctx*/, PortId p,
                                         bool notify) {
  if (in_spanner_[p]) return;
  in_spanner_[p] = true;
  spanner_ports_.push_back(p);
  if (notify) outbox_.queue(p, spannerwire::add_edge());
}

void BaswanaSenProcess::queue_state_broadcast(Context& ctx,
                                              std::uint32_t phase) {
  outbox_.queue_broadcast(ctx,
                          spannerwire::state(center_, sampled_, depth_, phase));
}

void BaswanaSenProcess::begin_window(Context& ctx, std::uint32_t phase) {
  nbr_.assign(ctx.degree(), NbrState{});
  have_bit_ = false;
  sampled_ = false;
  if (!clustered_) return;
  if (center_ == token_) {
    // We are a cluster center.  Sample in the growth phases; the final
    // phase floods state only (everyone acts as unsampled).
    const auto n = static_cast<double>(ctx.knowledge().require_n());
    const double p = std::pow(n, -1.0 / static_cast<double>(cfg_.k));
    sampled_ = (phase < cfg_.k) && ctx.rng().bernoulli(p);
    have_bit_ = true;
    queue_state_broadcast(ctx, phase);
  }
}

void BaswanaSenProcess::decide(Context& ctx, std::uint32_t phase) {
  if (!clustered_) return;
  if (!have_bit_)
    throw std::logic_error("cluster sampled-bit did not arrive in time");

  if (phase < cfg_.k) {
    if (sampled_) return;  // sampled clusters ride into the next phase
    // Unsampled: join an adjacent sampled cluster if one exists...
    for (PortId p = 0; p < nbr_.size(); ++p) {
      if (nbr_[p].clustered && nbr_[p].sampled) {
        center_ = nbr_[p].center;
        depth_ = nbr_[p].depth + 1;
        parent_ = p;
        add_spanner_port(ctx, p, /*notify=*/true);
        return;
      }
    }
    // ...otherwise add one edge per adjacent foreign cluster and leave.
    clustered_ = false;
  }
  // Discard step / final phase: one representative edge per adjacent
  // foreign cluster (smallest port wins — any fixed rule works).
  std::vector<std::uint64_t> seen;
  for (PortId p = 0; p < nbr_.size(); ++p) {
    if (!nbr_[p].clustered || nbr_[p].center == center_) continue;
    if (std::find(seen.begin(), seen.end(), nbr_[p].center) != seen.end())
      continue;
    seen.push_back(nbr_[p].center);
    add_spanner_port(ctx, p, /*notify=*/true);
  }
}

void BaswanaSenProcess::handle_state(Context& ctx, PortId port,
                                     std::uint64_t center, bool sampled,
                                     std::uint32_t depth, std::uint32_t phase) {
  nbr_[port] = NbrState{true, center, sampled, depth};
  if (clustered_ && center == center_ && !have_bit_ && phase == phase_) {
    // Our own cluster's sampled-bit flood reached us: adopt and relay.
    have_bit_ = true;
    sampled_ = sampled;
    queue_state_broadcast(ctx, phase_);
  }
}

void BaswanaSenProcess::spanner_round(Context& ctx,
                                      std::span<const Envelope> inbox) {
  const Round r = ctx.round();
  if (phase_ <= cfg_.k && r == window_start(phase_)) begin_window(ctx, phase_);

  for (const auto& env : inbox) {
    if (env.flat.channel != channel::kSpanner) continue;  // e.g. election
    if (env.flat.type == spannerwire::kAddEdge) {
      add_spanner_port(ctx, env.port, /*notify=*/false);
    } else if (env.flat.type == spannerwire::kState) {
      handle_state(ctx, env.port, env.flat.a,
                   (env.flat.flags & spannerwire::kSampledFlag) != 0,
                   spannerwire::depth_of(env.flat),
                   spannerwire::phase_of(env.flat));
    }
  }

  if (phase_ <= cfg_.k && r == window_start(phase_) + phase_) {
    decide(ctx, phase_);
    ++phase_;
  }

  if (r >= spanner_finish_round(cfg_.k) && !done_) {
    done_ = true;
    on_spanner_complete(ctx);
  }
}

void BaswanaSenProcess::on_wake(Context& ctx, std::span<const Envelope> inbox) {
  token_ = ctx.anonymous() ? ctx.rng()() : ctx.uid();
  center_ = token_;
  depth_ = 0;
  clustered_ = true;
  nbr_.assign(ctx.degree(), NbrState{});
  in_spanner_.assign(ctx.degree(), false);
  on_round(ctx, inbox);
}

void BaswanaSenProcess::on_round(Context& ctx, std::span<const Envelope> inbox) {
  if (!done_) {
    // The construction runs on a fixed round schedule: stay runnable for
    // the whole window regardless of traffic.
    spanner_round(ctx, inbox);
    outbox_.flush(ctx);
    return;
  }
  app_round(ctx, inbox);
  if (outbox_.flush(ctx)) return;  // backlog: stay runnable
  ctx.idle();
}

ProcessFactory make_baswana_sen(SpannerConfig cfg) {
  return [cfg](NodeId) { return std::make_unique<BaswanaSenProcess>(cfg); };
}

}  // namespace ule
