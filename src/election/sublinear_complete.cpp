#include "election/sublinear_complete.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "election/channels.hpp"
#include "net/ids.hpp"
#include "net/message.hpp"

namespace ule {

namespace {

// Flat wire format (net/message.hpp): a QUERY carries the candidate's
// (rank, tiebreak); a VERDICT answers with the maximum pair seen.  The
// verdict bit rides in the flag byte; rank/tiebreak in words a/b.
constexpr std::uint16_t kSublinearType = 1;
constexpr std::uint8_t kVerdictFlag = 1;

FlatMsg sublinear_msg(bool verdict, std::uint64_t rank,
                      std::uint64_t tiebreak) {
  FlatMsg m;
  m.type = kSublinearType;
  m.channel = channel::kSublinear;
  m.flags = verdict ? kVerdictFlag : 0;
  m.bits = wire::kTypeTag + 2 * wire::kIdField + wire::kFlag;
  m.a = rank;
  m.b = tiebreak;
  return m;
}

bool is_sublinear(const Envelope& env) {
  return env.flat.type == kSublinearType &&
         env.flat.channel == channel::kSublinear;
}

}  // namespace

void SublinearCompleteProcess::on_wake(Context& ctx,
                                       std::span<const Envelope> inbox) {
  const std::uint64_t n = ctx.knowledge().require_n();
  if (ctx.degree() + 1 != n) {
    throw std::logic_error(
        "sublinear election requires a complete graph (degree = n-1)");
  }

  const double dn = static_cast<double>(n);
  const double ln_n = std::log(std::max(2.0, dn));
  candidate_ = ctx.rng().bernoulli(
      std::min(1.0, cfg_.candidate_factor * ln_n / dn));

  if (!candidate_) {
    ctx.set_status(Status::NonElected);
    decided_ = true;
    ctx.idle();
    if (!inbox.empty()) on_round(ctx, inbox);
    return;
  }

  const std::uint64_t space =
      cfg_.rank_space != 0 ? cfg_.rank_space : id_space_size(n);
  rank_ = ctx.rng().in_range(1, space);
  tiebreak_ = ctx.rng()();

  const auto want = static_cast<std::size_t>(
      std::ceil(cfg_.referee_factor * std::sqrt(dn * ln_n)));
  const std::size_t r = std::min(ctx.degree(), want);
  expected_verdicts_ = r;
  if (r == 0) {  // n == 1: the sole node is the sole candidate
    ctx.set_status(Status::Elected);
    decided_ = true;
    ctx.idle();
    return;
  }

  // r distinct random ports via a partial Fisher–Yates shuffle.
  std::vector<PortId> ports(ctx.degree());
  for (PortId p = 0; p < ctx.degree(); ++p) ports[p] = p;
  for (std::size_t i = 0; i < r; ++i) {
    const std::size_t j = i + ctx.rng().below(ports.size() - i);
    std::swap(ports[i], ports[j]);
    ctx.send(ports[i], sublinear_msg(false, rank_, tiebreak_));
  }
  ctx.idle();
  if (!inbox.empty()) on_round(ctx, inbox);
}

void SublinearCompleteProcess::on_round(Context& ctx,
                                        std::span<const Envelope> inbox) {
  // Referee duty: answer this round's queries with the maximum (rank,
  // tiebreak) among them — every query arrives in the same round under
  // simultaneous wakeup, so one pass suffices.  A candidate referee has
  // also "seen" its own pair and must include it: with only mutual referees
  // (n = 2, or tiny referee sets) the weaker candidate would otherwise hear
  // nothing but its own query echoed back and both would elect.
  std::uint64_t best_rank = candidate_ ? rank_ : 0;
  std::uint64_t best_tb = candidate_ ? tiebreak_ : 0;
  std::vector<PortId> query_ports;
  for (const auto& env : inbox) {
    if (!is_sublinear(env) || (env.flat.flags & kVerdictFlag)) continue;
    query_ports.push_back(env.port);
    if (std::pair(env.flat.a, env.flat.b) > std::pair(best_rank, best_tb)) {
      best_rank = env.flat.a;
      best_tb = env.flat.b;
    }
  }
  if (!query_ports.empty()) {
    const FlatMsg v = sublinear_msg(true, best_rank, best_tb);
    for (const PortId p : query_ports) ctx.send(p, v);
  }

  // Candidate duty: tally verdicts.
  if (candidate_ && !decided_) {
    for (const auto& env : inbox) {
      if (!is_sublinear(env) || !(env.flat.flags & kVerdictFlag)) continue;
      ++verdicts_seen_;
      if (std::pair(env.flat.a, env.flat.b) > std::pair(rank_, tiebreak_))
        lost_ = true;
    }
    if (verdicts_seen_ >= expected_verdicts_) {
      ctx.set_status(lost_ ? Status::NonElected : Status::Elected);
      decided_ = true;
    }
  }
  ctx.idle();
}

ProcessFactory make_sublinear_complete(SublinearConfig cfg) {
  return [cfg](NodeId) {
    return std::make_unique<SublinearCompleteProcess>(cfg);
  };
}

}  // namespace ule
