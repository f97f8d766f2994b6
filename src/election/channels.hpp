// Channel tags keeping concurrently running sub-protocols' messages apart
// (e.g. Corollary 4.5 runs a size-estimation wave pool and then an election
// wave pool; Algorithm 1 runs cluster construction, sparsification, and then
// an election).

#pragma once

#include <cstdint>

#include "net/reliable.hpp"

namespace ule::channel {

inline constexpr std::uint8_t kLeastEl = 1;
inline constexpr std::uint8_t kFloodMax = 2;
inline constexpr std::uint8_t kSizeEstimate = 3;
inline constexpr std::uint8_t kSpanner = 4;
inline constexpr std::uint8_t kClustering = 5;
inline constexpr std::uint8_t kKingdom = 6;
inline constexpr std::uint8_t kBroadcast = 7;
inline constexpr std::uint8_t kDfs = 8;
inline constexpr std::uint8_t kSublinear = 9;
inline constexpr std::uint8_t kExplicit = 10;  ///< leader-announcement overlay
/// Reserved for the ARQ link layer's pure acks (net/reliable.hpp); no
/// protocol may use it.
inline constexpr std::uint8_t kReliableAck = kReliableAckChannel;

}  // namespace ule::channel
