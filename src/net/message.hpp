// Messages and their CONGEST accounting.
//
// One wire representation: `FlatMsg`, a 32-byte POD — type tag, protocol
// channel, flag byte, accounted bit size, and three 64-bit payload words —
// stored INLINE in the engine's in-flight and inbox buffers.  Sending one
// costs a struct copy: no heap allocation, no refcount, no virtual dispatch,
// and receivers discriminate by (channel, type) integer compare.  Three words
// is a deliberate cap: CONGEST grants O(log n) bits per edge per round, so
// any message needing more than a tag plus a few id-sized fields is over
// budget anyway.
//
// Beside the payload every envelope carries a 16-byte `LinkHeader`.  The
// engine copies it through delivery untouched and never reads it; plain
// protocols leave it zeroed.  It exists for link layers that wrap a protocol
// — the ARQ wrapper (net/reliable.hpp) keeps its seq/ack header there and
// bills the header's bits by adding them to the payload's `bits`.
//
// Every message reports its encoded size in `bits` so the engine can (a)
// total up bit complexity and (b) enforce the CONGEST bound of O(log n) bits
// per edge per round when asked to.

#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "net/types.hpp"

namespace ule {

/// The message.  Protocols pick their own nonzero type tags, scoped by
/// `channel` (see election/channels.hpp), so two protocols never need to
/// coordinate tag ranges; `type == 0` is invalid on the wire.
struct FlatMsg {
  std::uint16_t type = 0;    ///< protocol-local discriminator; never 0
  std::uint8_t channel = 0;  ///< protocol channel, keeps concurrent runs apart
  std::uint8_t flags = 0;    ///< protocol-defined flag bits
  std::uint32_t bits = 0;    ///< accounted wire size
  std::uint64_t a = 0;       ///< payload word (ids, ranks, depths, ...)
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

/// Link-layer header riding beside the payload (see file comment).  The
/// field meanings belong to the ARQ wrapper (net/reliable.hpp); to the engine
/// it is 16 opaque bytes.
struct LinkHeader {
  std::uint32_t seq = 0;
  std::uint32_t epoch = 0;
  std::uint32_t ack = 0;
  std::uint32_t ack_epoch = 0;
};

/// A received message, tagged with the local port it arrived on.
struct Envelope {
  PortId port = kNoPort;
  FlatMsg flat;
  LinkHeader link;
};

// Envelopes are bucketed, shuffled and copied by the round pipeline in bulk;
// keep them plain bytes and within their cache budget.
static_assert(std::is_trivially_copyable_v<Envelope>);
static_assert(sizeof(Envelope) <= 56);

/// Conventional field sizes, in bits.  IDs/ranks come from a set of size
/// n^4, i.e. 4*log2(n) bits; we account a uniform 64-bit field for them so
/// measured "bits" scale like Theta(messages * log n) for the n we simulate.
namespace wire {
inline constexpr std::uint32_t kTypeTag = 8;    ///< message discriminator
inline constexpr std::uint32_t kIdField = 64;   ///< node id / rank / edge id
inline constexpr std::uint32_t kCounter = 32;   ///< hop counters, phase nums
inline constexpr std::uint32_t kFlag = 1;       ///< booleans
}  // namespace wire

/// Generic render of a message for narrated runs (net/recorder.hpp).
std::string flat_debug_string(const FlatMsg& m);

}  // namespace ule
