// Token ring: leader election's original application (Le Lann 1977).
//
// The implicit leader election the paper studies was first motivated by
// token generation in token-ring networks: when the token is lost, the ring
// must regenerate exactly one — i.e. elect a leader, who then injects a new
// token.  This example builds that protocol *on the library's public
// substrate*: the PIF wave pool (the paper's echo mechanism) carries the
// election, then the winner injects a token that makes `laps` rounds of the
// ring, then a STOP wave shuts every station down.
//
// It also demonstrates writing a custom Process against the engine API —
// everything here uses only public headers.
//
//   $ ./token_ring [n] [laps]

#include <cstdio>
#include <cstdlib>
#include <memory>

#include "election/channels.hpp"
#include "election/pif.hpp"
#include "graphgen/generators.hpp"
#include "net/engine.hpp"
#include "net/ids.hpp"

using namespace ule;

namespace {

/// The token and the shutdown wave, on a channel no library protocol uses
/// (election/channels.hpp).  A token carries its completed laps in `a`.
constexpr std::uint8_t kTokenChannel = 100;
constexpr std::uint16_t kToken = 1;
constexpr std::uint16_t kStop = 2;

FlatMsg token_msg(std::uint16_t type, std::uint64_t lap = 0) {
  FlatMsg m;
  m.type = type;
  m.channel = kTokenChannel;
  m.bits = wire::kTypeTag + wire::kCounter + wire::kFlag;
  m.a = lap;
  return m;
}

/// A token-ring station: elects via flood-max waves, then passes the token.
class StationProcess final : public Process {
 public:
  explicit StationProcess(std::uint32_t laps) : laps_(laps) {
    pool_.pace_through(&outbox_);
  }

  std::uint32_t tokens_seen() const { return tokens_seen_; }

  void on_wake(Context& ctx, std::span<const Envelope> inbox) override {
    (void)pool_.originate(ctx, WaveKey{ctx.uid(), ctx.uid()});  // deg 2
    on_round(ctx, inbox);
  }

  void on_round(Context& ctx, std::span<const Envelope> inbox) override {
    // --- token phase ----------------------------------------------------
    for (const auto& env : inbox) {
      if (env.flat.channel != kTokenChannel) continue;
      if (env.flat.type == kStop) {
        if (!stopped_) {
          stopped_ = true;
          ctx.send(other_port(env.port), env.flat);  // pass it on, then out
        }
        ctx.halt();
        return;
      }
      ++tokens_seen_;
      std::uint64_t lap = env.flat.a;
      if (leader_) {
        // The token is home: one lap done.
        if (lap + 1 == laps_) {
          ctx.send(other_port(env.port), token_msg(kStop));
          stopped_ = true;
          continue;  // wait for the STOP to come around, then halt
        }
        ++lap;
      }
      ctx.send(other_port(env.port), token_msg(kToken, lap));
    }

    // --- election phase (flood-max over the wave substrate) --------------
    const WavePool::Events ev = pool_.on_round(ctx, inbox);
    if (!decided_) {
      if (!pool_.own_is_best()) {
        ctx.set_status(Status::NonElected);
        decided_ = true;
      } else if (ev.own_complete) {
        ctx.set_status(Status::Elected);
        decided_ = true;
        leader_ = true;
        ctx.send(0, token_msg(kToken));  // inject the new token
      }
    }
    if (outbox_.flush(ctx)) return;
    ctx.idle();
  }

 private:
  PortId other_port(PortId p) const { return p == 0 ? 1 : 0; }

  std::uint32_t laps_;
  PortOutbox outbox_;
  WavePool pool_{channel::kFloodMax, /*max_wins=*/true};
  bool decided_ = false;
  bool leader_ = false;
  bool stopped_ = false;
  std::uint32_t tokens_seen_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 16;
  const std::uint32_t laps =
      argc > 2 ? static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10))
               : 3;
  if (n < 3) {
    std::fprintf(stderr, "need a ring of at least 3 stations\n");
    return 2;
  }

  const Graph ring = make_cycle(n);
  EngineConfig cfg;
  cfg.seed = 2026;
  cfg.congest = CongestMode::Count;
  SyncEngine eng(ring, cfg);
  Rng id_rng(99);
  eng.set_uids(assign_ids(n, IdScheme::RandomFromZ, id_rng));
  eng.init_processes(
      [laps](NodeId) { return std::make_unique<StationProcess>(laps); });

  const RunResult res = eng.run();

  NodeId leader = kNoNode;
  std::uint64_t passes = 0;
  for (NodeId s = 0; s < ring.n(); ++s) {
    if (eng.status(s) == Status::Elected) leader = s;
    const auto* st = dynamic_cast<const StationProcess*>(eng.process(s));
    passes += st->tokens_seen();
  }

  std::printf("ring of %zu stations, %u laps requested\n", n, laps);
  std::printf("leader      : station %u (id %llu) — the max id, as "
              "flood-max guarantees\n",
              leader, static_cast<unsigned long long>(eng.uid_of(leader)));
  std::printf("token passes: %llu (expected %zu per lap x %u laps = %zu)\n",
              static_cast<unsigned long long>(passes), n, laps,
              n * static_cast<std::size_t>(laps));
  std::printf("total cost  : %llu rounds, %llu messages "
              "(election %s + token %zu + stop %zu)\n",
              static_cast<unsigned long long>(res.rounds),
              static_cast<unsigned long long>(res.messages),
              "O(n log n)", n * static_cast<std::size_t>(laps), n);
  std::printf("clean finish: %s (every station halted)\n",
              res.completed ? "yes" : "NO");
  return res.completed && leader != kNoNode ? 0 : 1;
}
