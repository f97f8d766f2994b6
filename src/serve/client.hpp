// Blocking client for the election daemon (serve/server.hpp): connect,
// submit `ule1:` tokens, collect streamed telemetry and results.  One
// ServeClient is one frame session; it is not thread-safe — the loadgen
// opens one client per concurrent session thread, which is also the
// daemon-side unit of multiplexing.
//
// All socket calls retry EINTR and sends carry MSG_NOSIGNAL (the same
// signal/errno hygiene contract as the server side).

#pragma once

#include <cstdint>
#include <deque>
#include <string>

#include "serve/frame.hpp"
#include "serve/protocol.hpp"

namespace ule::serve {

class ServeClient {
 public:
  ServeClient() = default;
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// Connect to the daemon's frame port.  Throws std::runtime_error.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }

  /// Send any frame (tests use this to inject malformed bytes via
  /// send_raw).  Throws std::runtime_error on a dead socket.
  void send_frame(FrameType type, std::uint8_t channel, std::uint8_t flags,
                  std::uint64_t a, std::uint64_t b, std::uint64_t c,
                  std::string_view payload);
  void send_raw(std::string_view bytes);

  /// Read the next complete frame.  Returns false on EOF (server closed the
  /// session); throws std::runtime_error on socket errors or a frame the
  /// DECODER rejects (a server never sends malformed frames).
  bool read_frame(Frame& out);

  struct Submission {
    bool accepted = false;
    std::uint64_t job_id = 0;   ///< valid when accepted
    std::string reject_reason;  ///< valid when !accepted
  };

  /// Submit a replay token and wait for JobAccepted / JobReject.  A
  /// JobError at this stage (malformed token) throws std::runtime_error
  /// with the server's diagnostic.  Submits may be pipelined: frames
  /// belonging to earlier accepted jobs that arrive while waiting for the
  /// accept are buffered for a later await_result().
  Submission submit_token(const std::string& token, std::uint64_t tag = 0,
                          std::uint8_t channel = 0);

  struct JobReply {
    bool ok = false;            ///< JobResult received (vs JobError)
    ResultCounters counters;    ///< the result grammar, parsed
    std::uint64_t violations = 0;
    std::string metrics_doc;    ///< reassembled StreamChunk payloads
    std::string error;          ///< JobError payload when !ok
  };

  /// Read frames (buffered first, then the socket) until `job_id`'s
  /// JobResult or JobError arrives, reassembling its StreamChunks.  Frames
  /// for OTHER jobs are buffered, so pipelined jobs can be awaited in any
  /// order.
  JobReply await_result(std::uint64_t job_id);

 private:
  int fd_ = -1;
  FrameDecoder decoder_;
  std::deque<Frame> pending_;  ///< frames read while waiting for another
};

/// One-shot HTTP GET against the daemon's metrics port (no external tools
/// in tests).  Returns the status code and fills `body`; throws
/// std::runtime_error on connection failure.
int http_get(const std::string& host, std::uint16_t port,
             const std::string& path, std::string* body);

}  // namespace ule::serve
