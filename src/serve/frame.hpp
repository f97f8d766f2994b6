// The election-as-a-service wire protocol: length-prefixed typed frames
// whose 32-byte header IS the FlatMsg POD layout (net/message.hpp) put on a
// socket.  The engine's hot-path message — type tag, channel, flags, a
// 32-bit size slot and three 64-bit payload words — needed no redesign to
// become a wire format; the only reinterpretation is that the size slot
// (`FlatMsg::bits`) now counts the variable-length payload bytes that follow
// the header.
//
// Frame layout (little-endian, no padding — serialized field by field, never
// memcpy'd through a struct):
//
//   offset  size  field     FlatMsg analogue
//   0       2     type      FlatMsg::type     frame discriminator, non-zero
//   2       1     channel   FlatMsg::channel  client-chosen session channel,
//                                             echoed verbatim in responses
//   3       1     flags     FlatMsg::flags    per-type flag bits (below)
//   4       4     length    FlatMsg::bits     payload bytes following the
//                                             header, <= kMaxPayload
//   8       8     a         FlatMsg::a        per-type word (job id, ...)
//   16      8     b         FlatMsg::b        per-type word (client tag, ...)
//   24      8     c         FlatMsg::c        per-type word (counts, ...)
//   32      len   payload                     type-specific bytes
//
// Frame types and their word/payload conventions (docs/SERVER.md is the
// reference, including the submit and result payload grammars):
//
//   SubmitJob    client -> server.  payload = a `ule1:` replay token
//                (docs/REPLAY.md); flags must be 0.  b = client correlation
//                tag, echoed in every frame the job produces.
//   JobAccepted  server -> client.  a = server job id, b = client tag,
//                c = queue depth after enqueue.  No payload.
//   JobReject    server -> client.  Backpressure: the bounded queue was full
//                (or the daemon is draining).  b = client tag, c = queue
//                capacity.  payload = one-line reason.
//   StreamChunk  server -> client.  Telemetry stream: the job's
//                engine_metrics snapshot JSON (net/metrics.hpp), split into
//                bounded chunks.  a = job id, b = client tag, c = chunk
//                index; kLastChunk marks the final chunk.
//   JobResult    server -> client.  a = job id, b = client tag,
//                c = violation count.  payload = the result grammar: one
//                `name=value` line per RunResult counter (result_counters in
//                serve/protocol.hpp), bit-for-bit comparable against an
//                in-process run_election of the same token.
//   JobError     server -> client.  a = job id (0 when the job never
//                existed), b = client tag.  payload = one-line diagnostic.
//                A malformed FRAME additionally closes the session (the
//                stream can no longer be trusted); a malformed TOKEN inside
//                a well-formed frame leaves the session open.
//
// Decoder contract (the fuzz target, tests/serve/frame_test.cpp): feed()
// arbitrary bytes, next() yields complete frames.  A short read is NeedMore,
// never a partial frame; an unknown type or a length above kMaxPayload is
// Bad with a one-line reason and the decoder refuses further input — the
// server answers JobError and closes.  The decoder never allocates more
// than header + kMaxPayload bytes per frame, so a hostile length field
// cannot balloon memory.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ule::serve {

enum class FrameType : std::uint16_t {
  SubmitJob = 1,
  JobAccepted = 2,
  JobReject = 3,
  StreamChunk = 4,
  JobResult = 5,
  JobError = 6,
};

/// Frame flag bits (FrameHeader::flags).
inline constexpr std::uint8_t kLastChunk = 1;  ///< StreamChunk: final chunk

inline constexpr std::size_t kHeaderBytes = 32;
/// Hard cap on a frame's payload; a decoded length above this is a protocol
/// violation, not a large allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 20;

/// The FlatMsg-shaped frame header (see file comment for the field map).
struct FrameHeader {
  std::uint16_t type = 0;
  std::uint8_t channel = 0;
  std::uint8_t flags = 0;
  std::uint32_t length = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;

  bool operator==(const FrameHeader&) const = default;
};

struct Frame {
  FrameHeader header;
  std::string payload;

  bool operator==(const Frame&) const = default;
};

/// True iff `t` is a known FrameType discriminator.
bool known_frame_type(std::uint16_t t);
const char* to_string(FrameType t);

/// Serialize header + payload (header.length is taken from payload.size();
/// throws std::invalid_argument when the payload exceeds kMaxPayload).
std::string encode_frame(FrameType type, std::uint8_t channel,
                         std::uint8_t flags, std::uint64_t a, std::uint64_t b,
                         std::uint64_t c, std::string_view payload);
inline std::string encode_frame(const Frame& f) {
  return encode_frame(static_cast<FrameType>(f.header.type), f.header.channel,
                      f.header.flags, f.header.a, f.header.b, f.header.c,
                      f.payload);
}

/// Incremental, allocation-bounded frame decoder (see file comment).
class FrameDecoder {
 public:
  enum class Status {
    Frame,     ///< `out` holds the next complete frame
    NeedMore,  ///< no complete frame buffered yet
    Bad,       ///< protocol violation; the stream is dead
  };

  /// Append raw socket bytes.  Once Bad, further input is ignored.
  void feed(const char* data, std::size_t len);

  /// Extract the next complete frame.  On Bad, `error` (when non-null)
  /// receives a one-line reason; every later call stays Bad.
  Status next(Frame& out, std::string* error);

  bool bad() const { return bad_; }
  /// Bytes buffered but not yet consumed (bounded by header + kMaxPayload
  /// plus the size of the last feed() call).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  bool bad_ = false;
  std::string bad_reason_;
};

}  // namespace ule::serve
