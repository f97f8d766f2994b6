// Wakeup schedules.
//
// The lower bounds hold even under simultaneous wakeup (the harder case for
// lower bounds); several algorithms additionally tolerate adversarial wakeup,
// where nodes wake at arbitrary rounds — but also whenever a message arrives,
// and at least one node is awake at round 0 (Section 2).

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "net/rng.hpp"
#include "net/types.hpp"

namespace ule {

/// Random wake rounds in [0, spread]; node 0 forced awake at round 0 so the
/// "at least one node initially awake" requirement holds.
inline std::vector<Round> random_wakeup(std::size_t n, Round spread, Rng& rng) {
  std::vector<Round> w(n);
  for (auto& r : w) r = rng.below(spread + 1);
  if (n > 0) {
    // Force the earliest wake to round 0 deterministically.
    auto it = std::min_element(w.begin(), w.end());
    *it = 0;
  }
  return w;
}

/// Only one chosen node wakes spontaneously; everyone else sleeps until a
/// message arrives (wake-on-message).  The adversary's most extreme schedule.
inline std::vector<Round> single_wakeup(std::size_t n, NodeId who) {
  std::vector<Round> w(n, kRoundForever);
  w[who] = 0;
  return w;
}

}  // namespace ule
