// The election-as-a-service daemon: a POSIX-socket server that accepts
// election/simulation jobs over the FlatMsg-shaped frame protocol
// (serve/frame.hpp), executes them on the existing WorkerPool, and streams
// results back — plus a minimal HTTP side-port serving GET /metrics (strict
// engine_metrics JSON aggregated across completed jobs) and GET /health.
//
// Architecture (docs/SERVER.md is the operator-facing reference):
//
//   IO thread          one poll() loop multiplexing the two listen sockets,
//                      every session socket (non-blocking, per-session
//                      FrameDecoder + outbound buffer), a completion pipe
//                      and a shutdown pipe.  All session and HTTP state is
//                      owned by this thread — no locks on the wire path.
//   executor thread    parks inside WorkerPool::run(worker_loop): every
//                      worker pops jobs from the bounded queue and runs
//                      them through the scenario runner (threads=1 engine
//                      per job — job-level parallelism, not round-level).
//                      Completions post to a mutex-guarded list and wake
//                      the IO thread via the completion pipe.
//
// Contracts:
//   * Results are bit-for-bit what an in-process run of the same token
//     produces: a job is exactly run_scenario(token) with the determinism
//     cross-check off, and the JobResult payload is result_counters() of
//     that run (tests/serve/soak_test.cpp pins this under concurrency).
//   * Backpressure is explicit: a full queue answers JobReject, never a
//     stalled or dropped session (serve/queue.hpp).
//   * Signal hygiene: all socket IO retries EINTR, sends carry MSG_NOSIGNAL
//     (no SIGPIPE from a dead peer), and install_signal_handlers() maps
//     SIGTERM/SIGINT onto request_shutdown() — a DRAIN: accepted jobs
//     finish, results flush, then the loop exits (tests kill a daemon
//     mid-job and still collect the result).
//   * A malformed frame gets JobError and a session close; a malformed
//     token inside a valid frame gets JobError with the parser diagnostic
//     and the session stays open.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <thread>

namespace ule::serve {

struct ServeConfig {
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;       ///< frame port (0 = ephemeral, see port())
  std::uint16_t http_port = 0;  ///< /metrics + /health port (0 = ephemeral)
  unsigned workers = 2;         ///< WorkerPool size executing jobs
  std::size_t queue_capacity = 256;  ///< bounded job queue (backpressure)
  bool metrics = true;  ///< per-job engine telemetry, streamed + aggregated
};

struct ServeStats {
  std::uint64_t accepted = 0;   ///< jobs enqueued (JobAccepted sent)
  std::uint64_t completed = 0;  ///< jobs finished (JobResult/JobError sent)
  std::uint64_t rejected = 0;   ///< backpressure rejections (JobReject sent)
  std::uint64_t errors = 0;     ///< JobError frames sent
  std::uint64_t sessions = 0;   ///< frame sessions ever accepted
  bool draining = false;
};

class ElectionServer {
 public:
  explicit ElectionServer(ServeConfig cfg = {});
  ~ElectionServer();

  ElectionServer(const ElectionServer&) = delete;
  ElectionServer& operator=(const ElectionServer&) = delete;

  /// Bind + listen on both ports and spawn the IO and executor threads.
  /// Throws std::runtime_error on any socket failure.
  void start();

  /// Actual bound ports (resolves port 0), valid after start().
  std::uint16_t port() const;
  std::uint16_t http_port() const;

  /// Begin a graceful drain: stop accepting, finish in-flight jobs, flush
  /// results, exit the IO loop.  Safe from any thread; the signal handlers
  /// installed by install_signal_handlers() call the async-signal-safe core
  /// of this (one write to a pipe).
  void request_shutdown();

  /// Block until the IO loop has exited and every thread is joined.
  void wait();

  ServeStats stats() const;

  /// Ignore SIGPIPE and route SIGTERM/SIGINT to request_shutdown() of this
  /// server (one live instance at a time).  Called by the daemon binary and
  /// the drain tests.
  void install_signal_handlers();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ule::serve
