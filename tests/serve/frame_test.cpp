// The serve wire protocol's framing and payload grammars: encode/decode
// round trips, byte-at-a-time reassembly, and the decoder's behavior under
// hostile input — truncated, oversized, unknown-type and plain-garbage
// frames must yield Bad with a diagnostic (never a crash, hang, or large
// allocation), and a deterministic fuzz sweep pins that for thousands of
// random byte streams.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "net/rng.hpp"
#include "scenario/scenario.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace ule::serve {
namespace {

Frame decode_one(const std::string& bytes) {
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  std::string err;
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::Frame) << err;
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::NeedMore);
  return f;
}

TEST(FrameCodec, RoundTripsEveryTypeWithAndWithoutPayload) {
  const std::vector<FrameType> types = {
      FrameType::SubmitJob, FrameType::JobAccepted, FrameType::JobReject,
      FrameType::StreamChunk, FrameType::JobResult, FrameType::JobError};
  for (const FrameType t : types) {
    for (const std::string& payload :
         {std::string(), std::string("ule1:ring{n=8}:flood_max:k=none"),
          std::string(4096, 'x')}) {
      const std::string bytes =
          encode_frame(t, /*channel=*/3, /*flags=*/1, 0x0123456789ABCDEFULL,
                       42, 7, payload);
      ASSERT_EQ(bytes.size(), kHeaderBytes + payload.size());
      const Frame f = decode_one(bytes);
      EXPECT_EQ(f.header.type, static_cast<std::uint16_t>(t));
      EXPECT_EQ(f.header.channel, 3);
      EXPECT_EQ(f.header.flags, 1);
      EXPECT_EQ(f.header.length, payload.size());
      EXPECT_EQ(f.header.a, 0x0123456789ABCDEFULL);
      EXPECT_EQ(f.header.b, 42u);
      EXPECT_EQ(f.header.c, 7u);
      EXPECT_EQ(f.payload, payload);
    }
  }
}

TEST(FrameCodec, HeaderIsLittleEndianAtDocumentedOffsets) {
  const std::string bytes = encode_frame(FrameType::JobResult, 0xAB, 0xCD,
                                         0x1122334455667788ULL, 0x99, 0, "");
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 5);  // type lo
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0);  // type hi
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0xAB);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0xCD);
  EXPECT_EQ(static_cast<unsigned char>(bytes[8]), 0x88);   // a LSB
  EXPECT_EQ(static_cast<unsigned char>(bytes[15]), 0x11);  // a MSB
  EXPECT_EQ(static_cast<unsigned char>(bytes[16]), 0x99);  // b LSB
}

TEST(FrameDecoderTest, ReassemblesFromSingleByteFeeds) {
  const std::string payload = "ule1:ring{n=16}:flood_max:k=none:w=sim:s=9:t=1";
  const std::string bytes =
      encode_frame(FrameType::SubmitJob, 0, 0, 0, 77, 0, payload);
  FrameDecoder dec;
  Frame f;
  std::string err;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::NeedMore)
        << "complete frame after only " << i << " bytes";
    dec.feed(&bytes[i], 1);
  }
  ASSERT_EQ(dec.next(f, &err), FrameDecoder::Status::Frame) << err;
  EXPECT_EQ(f.payload, payload);
  EXPECT_EQ(f.header.b, 77u);
  EXPECT_EQ(dec.buffered(), 0u);
}

TEST(FrameDecoderTest, YieldsBackToBackFramesFromOneFeed) {
  std::string bytes;
  for (int i = 0; i < 5; ++i)
    bytes += encode_frame(FrameType::StreamChunk, 0, i == 4 ? kLastChunk : 0,
                          9, 0, static_cast<std::uint64_t>(i),
                          "chunk" + std::to_string(i));
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  std::string err;
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(dec.next(f, &err), FrameDecoder::Status::Frame) << err;
    EXPECT_EQ(f.header.c, static_cast<std::uint64_t>(i));
    EXPECT_EQ(f.payload, "chunk" + std::to_string(i));
  }
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::NeedMore);
}

TEST(FrameDecoderTest, UnknownTypeIsBadAndStaysBad) {
  std::string bytes = encode_frame(FrameType::SubmitJob, 0, 0, 0, 0, 0, "x");
  bytes[0] = 0x7F;  // not a FrameType
  bytes[1] = 0x00;
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  std::string err;
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::Bad);
  EXPECT_NE(err.find("type"), std::string::npos) << err;
  EXPECT_TRUE(dec.bad());
  // Later perfectly-valid input cannot resurrect a poisoned stream.
  const std::string good =
      encode_frame(FrameType::SubmitJob, 0, 0, 0, 0, 0, "ule1:...");
  dec.feed(good.data(), good.size());
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::Bad);
}

TEST(FrameDecoderTest, ZeroTypeIsBad) {
  std::string bytes(kHeaderBytes, '\0');
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  std::string err;
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::Bad);
}

TEST(FrameDecoderTest, OversizedLengthIsBadBeforeThePayloadArrives) {
  // A hostile length field must be rejected from the header alone — the
  // decoder may never wait for (or allocate) 4 GiB of payload.
  std::string bytes = encode_frame(FrameType::SubmitJob, 0, 0, 0, 0, 0, "");
  bytes[4] = static_cast<char>(0xFF);
  bytes[5] = static_cast<char>(0xFF);
  bytes[6] = static_cast<char>(0xFF);
  bytes[7] = static_cast<char>(0xFF);
  FrameDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  Frame f;
  std::string err;
  EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::Bad);
  EXPECT_NE(err.find("length"), std::string::npos) << err;
}

TEST(FrameDecoderTest, EncodeRefusesOversizedPayload) {
  EXPECT_THROW(encode_frame(FrameType::SubmitJob, 0, 0, 0, 0, 0,
                            std::string(kMaxPayload + 1, 'x')),
               std::invalid_argument);
}

TEST(FrameDecoderTest, TruncatedStreamNeverYieldsAFrame) {
  const std::string bytes =
      encode_frame(FrameType::JobResult, 0, 0, 1, 2, 3, "rounds=10\n");
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameDecoder dec;
    dec.feed(bytes.data(), cut);
    Frame f;
    std::string err;
    EXPECT_EQ(dec.next(f, &err), FrameDecoder::Status::NeedMore)
        << "frame from a " << cut << "-byte prefix";
  }
}

TEST(FrameDecoderFuzz, GarbageBytesNeverCrashAndBadIsSticky) {
  // Deterministic garbage: random byte streams fed in random-sized slices.
  // The decoder must only ever answer Frame / NeedMore / Bad, stay Bad once
  // poisoned, and keep its buffer bounded.
  Rng rng(0xF4A3E);
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.below(200);
    std::string bytes(len, '\0');
    for (auto& ch : bytes) ch = static_cast<char>(rng.below(256));
    // Half the rounds get a valid frame spliced in front so the fuzz also
    // exercises the valid-then-garbage transition.
    if (rng.below(2) == 0)
      bytes = encode_frame(FrameType::SubmitJob, 0, 0, 0, round, 0, "tok") +
              bytes;
    FrameDecoder dec;
    std::size_t fed = 0;
    bool was_bad = false;
    while (fed < bytes.size()) {
      const std::size_t n =
          std::min(bytes.size() - fed, 1 + rng.below(37));
      dec.feed(bytes.data() + fed, n);
      fed += n;
      Frame f;
      std::string err;
      for (;;) {
        const FrameDecoder::Status st = dec.next(f, &err);
        if (st == FrameDecoder::Status::Frame) {
          ASSERT_FALSE(was_bad) << "frame after Bad";
          ASSERT_LE(f.payload.size(), kMaxPayload);
          continue;
        }
        if (st == FrameDecoder::Status::Bad) {
          ASSERT_FALSE(err.empty());
          was_bad = true;
        }
        break;
      }
      ASSERT_LE(dec.buffered(), kHeaderBytes + kMaxPayload + 256u);
    }
    ASSERT_EQ(dec.bad(), was_bad);
  }
}

TEST(ResultGrammar, RoundTripsAndRejectsMalformedLines) {
  const ResultCounters counters = {
      {"rounds", 12}, {"messages", 340}, {"outcome_digest", ~0ULL}};
  EXPECT_EQ(parse_result(encode_result(counters)), counters);
  EXPECT_EQ(parse_result(""), ResultCounters{});
  EXPECT_THROW(parse_result("rounds\n"), std::invalid_argument);
  EXPECT_THROW(parse_result("rounds=ten\n"), std::invalid_argument);
  EXPECT_THROW(parse_result("=5\n"), std::invalid_argument);
  // 2^64 - 1 is the largest value; anything past it must not wrap.
  EXPECT_EQ(parse_result("rounds=18446744073709551615\n"),
            (ResultCounters{{"rounds", ~0ULL}}));
  EXPECT_THROW(parse_result("rounds=18446744073709551616\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_result("rounds=18446744073709551617\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_result("rounds=100000000000000000000\n"),
               std::invalid_argument);
}

TEST(SubmitGrammar, TokenIsTheOnlyPayloadForm) {
  const std::string token =
      "ule1:gnm{n=20,m=40}:least_el_all:k=n:w=rand.10:s=77:t=2";
  EXPECT_EQ(parse_submit(token, 0).encode(), token);
  EXPECT_THROW(parse_submit("not a token", 0), std::invalid_argument);
  // SubmitJob defines no flag bits: a set one is a malformed submit, never
  // another payload grammar.
  EXPECT_THROW(parse_submit(token, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ule::serve
