#include "serve/server.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "net/metrics.hpp"
#include "net/worker_pool.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/queue.hpp"

namespace ule::serve {

namespace {

// --- EINTR-hardened POSIX wrappers (the signal/errno hygiene satellite:
// a handled SIGTERM mid-syscall must never surface as a phantom IO error) --

int accept_retry(int fd) {
  for (;;) {
    const int c = ::accept(fd, nullptr, nullptr);
    if (c >= 0 || errno != EINTR) return c;
  }
}

ssize_t recv_retry(int fd, char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::recv(fd, buf, len, 0);
    if (n >= 0 || errno != EINTR) return n;
  }
}

// MSG_NOSIGNAL: a peer that closed mid-write yields EPIPE, never a
// process-killing SIGPIPE — even before install_signal_handlers() ran.
ssize_t send_retry(int fd, const char* buf, std::size_t len) {
  for (;;) {
    const ssize_t n = ::send(fd, buf, len, MSG_NOSIGNAL);
    if (n >= 0 || errno != EINTR) return n;
  }
}

int poll_retry(pollfd* fds, nfds_t n, int timeout_ms) {
  for (;;) {
    const int r = ::poll(fds, n, timeout_ms);
    if (r >= 0 || errno != EINTR) return r;
  }
}

void write_byte(int fd) {
  const char b = 1;
  for (;;) {
    const ssize_t n = ::write(fd, &b, 1);
    if (n >= 0 || errno != EINTR) return;  // EAGAIN: pipe already signaled
  }
}

void drain_pipe(int fd) {
  char buf[256];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) continue;
    if (n < 0 && errno == EINTR) continue;
    return;  // EAGAIN or EOF: drained
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

int listen_on(const std::string& bind_addr, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad bind address \"" + bind_addr + "\"");
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("bind(" + bind_addr + ":" +
                             std::to_string(port) + "): " + err);
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("listen(): " + err);
  }
  set_nonblocking(fd);
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0)
    return 0;
  return ntohs(addr.sin_port);
}

constexpr std::size_t kMaxHttpRequest = 8192;
constexpr std::size_t kMaxSessionOutbuf = 8u << 20;
constexpr std::size_t kStreamChunk = 512;  ///< StreamChunk payload bytes

struct Job {
  std::uint64_t id = 0;
  std::uint64_t sid = 0;
  std::uint8_t channel = 0;
  std::uint64_t tag = 0;
  Scenario scenario;
};

struct Completion {
  std::uint64_t id = 0;
  std::uint64_t sid = 0;
  std::uint8_t channel = 0;
  std::uint64_t tag = 0;
  bool ok = false;
  ResultCounters counters;
  std::uint64_t violations = 0;
  std::string error;
  bool have_snapshot = false;
  MetricsSnapshot snapshot;
};

struct Session {
  std::uint64_t sid = 0;
  int fd = -1;
  bool http = false;
  FrameDecoder decoder;
  std::string http_in;
  std::string out;
  bool close_after_flush = false;
  bool dead = false;
};

void merge_gauge(GaugeStats& into, const GaugeStats& g) {
  into.samples += g.samples;
  into.total += g.total;
  if (g.max > into.max) into.max = g.max;
  into.last = g.last;
}

}  // namespace

struct ElectionServer::Impl {
  ServeConfig cfg;

  int listen_fd = -1;
  int http_fd = -1;
  std::uint16_t frame_port = 0;
  std::uint16_t metrics_port = 0;
  int shutdown_rd = -1, shutdown_wr = -1;
  int completion_rd = -1, completion_wr = -1;

  std::thread io_thread;
  std::thread executor;
  bool started = false;
  bool joined = false;

  BoundedQueue<Job> queue;
  std::mutex completion_mu;
  std::vector<Completion> completions;  // guarded by completion_mu

  // --- IO-thread-owned state (no locks) ---
  std::map<int, Session> sessions;  // fd -> session
  std::uint64_t next_sid = 1;
  std::uint64_t next_job = 1;
  std::uint64_t jobs_inflight = 0;
  bool draining = false;
  // Aggregated telemetry across completed jobs (GET /metrics).
  MetricsSnapshot aggregate;
  std::map<std::string, std::uint64_t> aggregate_counters;

  mutable std::mutex stats_mu;
  ServeStats stats_v;  // guarded by stats_mu

  explicit Impl(ServeConfig c) : cfg(std::move(c)), queue(cfg.queue_capacity) {}

  // ----- worker side ---------------------------------------------------
  Completion run_job(const Job& job) const {
    Completion c;
    c.id = job.id;
    c.sid = job.sid;
    c.channel = job.channel;
    c.tag = job.tag;
    try {
      ScenarioRunConfig rc;
      rc.check_determinism = false;
      rc.metrics.enabled = cfg.metrics;
      const ScenarioOutcome oc =
          run_scenario(default_protocols(), default_families(), job.scenario, rc);
      c.ok = true;
      c.counters = result_counters(oc.report);
      c.violations = oc.violations.size();
      if (oc.report.run.metrics.has_value()) {
        c.snapshot = *oc.report.run.metrics;
        c.have_snapshot = true;
      }
    } catch (const std::exception& e) {
      c.error = e.what();
    } catch (...) {
      c.error = "unknown execution error";
    }
    return c;
  }

  void worker_loop() {
    for (;;) {
      std::optional<Job> job = queue.pop();
      if (!job.has_value()) return;  // closed and drained
      Completion c = run_job(*job);
      {
        std::lock_guard<std::mutex> lk(completion_mu);
        completions.push_back(std::move(c));
      }
      write_byte(completion_wr);
    }
  }

  // ----- IO-thread helpers ---------------------------------------------
  void bump(std::uint64_t ServeStats::* field) {
    std::lock_guard<std::mutex> lk(stats_mu);
    ++(stats_v.*field);
  }

  void queue_frame(Session& s, FrameType type, std::uint8_t channel,
                   std::uint8_t flags, std::uint64_t a, std::uint64_t b,
                   std::uint64_t c, std::string_view payload) {
    s.out += encode_frame(type, channel, flags, a, b, c, payload);
    if (s.out.size() > kMaxSessionOutbuf) s.dead = true;  // reader gone AWOL
  }

  void flush(Session& s) {
    while (!s.out.empty() && !s.dead) {
      const ssize_t n = send_retry(s.fd, s.out.data(), s.out.size());
      if (n > 0) {
        s.out.erase(0, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      s.dead = true;  // EPIPE / ECONNRESET / anything else
      return;
    }
    if (s.out.empty() && s.close_after_flush) s.dead = true;
  }

  void handle_submit(Session& s, const Frame& f) {
    Scenario scenario;
    try {
      scenario = parse_submit(f.payload, f.header.flags);
    } catch (const std::exception& e) {
      bump(&ServeStats::errors);
      queue_frame(s, FrameType::JobError, f.header.channel, 0, 0, f.header.b,
                  0, e.what());
      return;
    }
    if (draining) {
      bump(&ServeStats::rejected);
      queue_frame(s, FrameType::JobReject, f.header.channel, 0, 0, f.header.b,
                  queue.capacity(), "daemon is draining");
      return;
    }
    Job job;
    job.id = next_job;
    job.sid = s.sid;
    job.channel = f.header.channel;
    job.tag = f.header.b;
    job.scenario = std::move(scenario);
    if (!queue.try_push(std::move(job))) {
      bump(&ServeStats::rejected);
      queue_frame(s, FrameType::JobReject, f.header.channel, 0, 0, f.header.b,
                  queue.capacity(),
                  "job queue full (capacity " +
                      std::to_string(queue.capacity()) + ")");
      return;
    }
    ++next_job;
    ++jobs_inflight;
    bump(&ServeStats::accepted);
    queue_frame(s, FrameType::JobAccepted, f.header.channel, 0, job.id,
                f.header.b, queue.depth(), {});
  }

  void handle_frames(Session& s) {
    Frame f;
    std::string err;
    for (;;) {
      const FrameDecoder::Status st = s.decoder.next(f, &err);
      if (st == FrameDecoder::Status::NeedMore) return;
      if (st == FrameDecoder::Status::Bad) {
        // The stream is unrecoverable: one diagnostic, then close.
        bump(&ServeStats::errors);
        queue_frame(s, FrameType::JobError, 0, 0, 0, 0, 0,
                    "malformed frame: " + err);
        s.close_after_flush = true;
        return;
      }
      if (f.header.type == static_cast<std::uint16_t>(FrameType::SubmitJob)) {
        handle_submit(s, f);
      } else {
        // Well-formed but server-bound-invalid (a client echoing response
        // types): same terminal treatment as a malformed frame.
        bump(&ServeStats::errors);
        queue_frame(
            s, FrameType::JobError, f.header.channel, 0, 0, f.header.b, 0,
            std::string("unexpected client frame ") +
                to_string(static_cast<FrameType>(f.header.type)));
        s.close_after_flush = true;
        return;
      }
    }
  }

  // ----- HTTP ------------------------------------------------------------
  std::string metrics_document() {
    MetricsSnapshot snap = aggregate;
    std::map<std::string, std::uint64_t> counters = aggregate_counters;
    ServeStats st = stats();
    counters["serve.jobs_accepted"] += st.accepted;
    counters["serve.jobs_completed"] += st.completed;
    counters["serve.jobs_rejected"] += st.rejected;
    counters["serve.job_errors"] += st.errors;
    counters["serve.sessions"] += st.sessions;
    snap.counters.assign(counters.begin(), counters.end());
    return metrics_json(snap);
  }

  std::string health_document() {
    const ServeStats st = stats();
    std::string out = "{\"status\": \"";
    out += draining ? "draining" : "ok";
    out += "\", \"accepted\": " + std::to_string(st.accepted);
    out += ", \"completed\": " + std::to_string(st.completed);
    out += ", \"rejected\": " + std::to_string(st.rejected);
    out += ", \"errors\": " + std::to_string(st.errors);
    out += ", \"queue_depth\": " + std::to_string(queue.depth());
    out += ", \"queue_capacity\": " + std::to_string(queue.capacity());
    out += ", \"workers\": " + std::to_string(cfg.workers);
    out += "}\n";
    return out;
  }

  void http_respond(Session& s, int code, const char* reason,
                    const std::string& body) {
    std::string resp = "HTTP/1.1 " + std::to_string(code) + " " + reason +
                       "\r\nContent-Type: application/json\r\n"
                       "Content-Length: " + std::to_string(body.size()) +
                       "\r\nConnection: close\r\n\r\n";
    resp += body;
    s.out += resp;
    s.close_after_flush = true;
  }

  void handle_http(Session& s) {
    if (s.http_in.size() > kMaxHttpRequest) {
      http_respond(s, 431, "Request Header Fields Too Large", "{}\n");
      return;
    }
    if (s.http_in.find("\r\n\r\n") == std::string::npos) return;  // need more
    const std::size_t eol = s.http_in.find("\r\n");
    const std::string line = s.http_in.substr(0, eol);
    // "METHOD SP PATH SP VERSION"
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 = sp1 == std::string::npos
                                ? std::string::npos
                                : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      http_respond(s, 400, "Bad Request", "{}\n");
      return;
    }
    const std::string method = line.substr(0, sp1);
    const std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
    if (method != "GET") {
      http_respond(s, 405, "Method Not Allowed", "{}\n");
      return;
    }
    if (path == "/health") {
      http_respond(s, 200, "OK", health_document());
    } else if (path == "/metrics") {
      http_respond(s, 200, "OK", metrics_document());
    } else {
      http_respond(s, 404, "Not Found", "{}\n");
    }
  }

  // ----- completions -----------------------------------------------------
  void deliver_completion(const Completion& c) {
    --jobs_inflight;
    if (c.ok) bump(&ServeStats::completed);
    else { bump(&ServeStats::completed); bump(&ServeStats::errors); }
    if (c.have_snapshot) {
      merge_gauge(aggregate.active_set, c.snapshot.active_set);
      merge_gauge(aggregate.wake_heap, c.snapshot.wake_heap);
      merge_gauge(aggregate.inbox_csr, c.snapshot.inbox_csr);
      merge_gauge(aggregate.outbox_arena, c.snapshot.outbox_arena);
      for (const auto& [name, value] : c.snapshot.counters)
        aggregate_counters[name] += value;
    }
    // The session may be gone; results for a dead session are dropped.
    Session* s = nullptr;
    for (auto& [fd, sess] : sessions)
      if (sess.sid == c.sid && !sess.http) { s = &sess; break; }
    if (s == nullptr) return;
    if (!c.ok) {
      queue_frame(*s, FrameType::JobError, c.channel, 0, c.id, c.tag, 0,
                  c.error);
      flush(*s);
      return;
    }
    if (c.have_snapshot) {
      const std::string doc = metrics_json(c.snapshot);
      std::uint64_t index = 0;
      for (std::size_t pos = 0; pos < doc.size();
           pos += kStreamChunk, ++index) {
        const std::size_t len = std::min(kStreamChunk, doc.size() - pos);
        const bool last = pos + len >= doc.size();
        queue_frame(*s, FrameType::StreamChunk, c.channel,
                    last ? kLastChunk : 0, c.id, c.tag, index,
                    std::string_view(doc).substr(pos, len));
      }
    }
    queue_frame(*s, FrameType::JobResult, c.channel, 0, c.id, c.tag,
                c.violations, encode_result(c.counters));
    flush(*s);
  }

  void process_completions() {
    std::vector<Completion> batch;
    {
      std::lock_guard<std::mutex> lk(completion_mu);
      batch.swap(completions);
    }
    for (const Completion& c : batch) deliver_completion(c);
  }

  // ----- the loop --------------------------------------------------------
  void begin_drain() {
    if (draining) return;
    draining = true;
    {
      std::lock_guard<std::mutex> lk(stats_mu);
      stats_v.draining = true;
    }
    if (listen_fd >= 0) { ::close(listen_fd); listen_fd = -1; }
    if (http_fd >= 0) { ::close(http_fd); http_fd = -1; }
    queue.close();  // workers drain what was accepted, then exit
  }

  void accept_on(int lfd, bool http) {
    for (;;) {
      const int fd = accept_retry(lfd);
      if (fd < 0) return;  // EAGAIN (or a transient error): done for now
      set_nonblocking(fd);
      Session s;
      s.sid = next_sid++;
      s.fd = fd;
      s.http = http;
      sessions.emplace(fd, std::move(s));
      if (!http) bump(&ServeStats::sessions);
    }
  }

  void read_session(Session& s) {
    char buf[65536];
    for (;;) {
      const ssize_t n = recv_retry(s.fd, buf, sizeof(buf));
      if (n > 0) {
        if (s.http) {
          s.http_in.append(buf, static_cast<std::size_t>(n));
          handle_http(s);
        } else if (!s.close_after_flush) {
          s.decoder.feed(buf, static_cast<std::size_t>(n));
          handle_frames(s);
        }
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      // EOF or a hard error: the peer is done.  Anything still buffered
      // outbound is unreachable — drop the session.
      s.dead = true;
      return;
    }
  }

  void io_loop() {
    std::vector<pollfd> fds;
    std::vector<int> session_fds;
    for (;;) {
      fds.clear();
      session_fds.clear();
      fds.push_back({shutdown_rd, POLLIN, 0});
      fds.push_back({completion_rd, POLLIN, 0});
      if (listen_fd >= 0) fds.push_back({listen_fd, POLLIN, 0});
      if (http_fd >= 0) fds.push_back({http_fd, POLLIN, 0});
      const std::size_t first_session = fds.size();
      for (auto& [fd, s] : sessions) {
        short ev = POLLIN;
        if (!s.out.empty()) ev |= POLLOUT;
        fds.push_back({fd, ev, 0});
        session_fds.push_back(fd);
      }

      poll_retry(fds.data(), fds.size(), draining ? 100 : -1);

      if ((fds[0].revents & POLLIN) != 0) {
        drain_pipe(shutdown_rd);
        begin_drain();
      }
      if ((fds[1].revents & POLLIN) != 0) {
        drain_pipe(completion_rd);
        process_completions();
      }
      std::size_t idx = 2;
      if (listen_fd >= 0) {
        if ((fds[idx].revents & POLLIN) != 0) accept_on(listen_fd, false);
        ++idx;
      }
      if (http_fd >= 0) {
        if ((fds[idx].revents & POLLIN) != 0) accept_on(http_fd, true);
        ++idx;
      }
      for (std::size_t i = 0; i < session_fds.size(); ++i) {
        const auto it = sessions.find(session_fds[i]);
        if (it == sessions.end()) continue;
        Session& s = it->second;
        const short rev = fds[first_session + i].revents;
        if ((rev & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
            (rev & POLLIN) == 0)
          s.dead = true;
        if (!s.dead && (rev & POLLIN) != 0) read_session(s);
        if (!s.dead && (rev & POLLOUT) != 0) flush(s);
        if (!s.dead && !s.out.empty()) flush(s);  // opportunistic
        if (s.dead) {
          ::close(s.fd);
          sessions.erase(it);
        }
      }

      if (draining && jobs_inflight == 0) {
        bool flushing = false;
        for (auto& [fd, s] : sessions)
          if (!s.out.empty()) flushing = true;
        if (!flushing) break;
      }
    }
    for (auto& [fd, s] : sessions) ::close(fd);
    sessions.clear();
  }

  ServeStats stats() const {
    std::lock_guard<std::mutex> lk(stats_mu);
    return stats_v;
  }
};

namespace {
/// The one server the signal handlers target; handlers only touch the
/// shutdown pipe fd (async-signal-safe single write).
std::atomic<int> g_signal_fd{-1};

extern "C" void serve_signal_handler(int) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char b = 1;
    [[maybe_unused]] const ssize_t n = ::write(fd, &b, 1);
  }
}
}  // namespace

ElectionServer::ElectionServer(ServeConfig cfg)
    : impl_(std::make_unique<Impl>(std::move(cfg))) {}

ElectionServer::~ElectionServer() {
  if (impl_->started && !impl_->joined) {
    request_shutdown();
    wait();
  }
  if (g_signal_fd.load(std::memory_order_relaxed) == impl_->shutdown_wr)
    g_signal_fd.store(-1, std::memory_order_relaxed);
  for (const int fd : {impl_->shutdown_rd, impl_->shutdown_wr,
                       impl_->completion_rd, impl_->completion_wr})
    if (fd >= 0) ::close(fd);
}

void ElectionServer::start() {
  Impl& im = *impl_;
  if (im.started) throw std::runtime_error("server already started");
  int sp[2], cp[2];
  if (::pipe(sp) != 0 || ::pipe(cp) != 0)
    throw std::runtime_error("pipe(): " + std::string(std::strerror(errno)));
  im.shutdown_rd = sp[0];
  im.shutdown_wr = sp[1];
  im.completion_rd = cp[0];
  im.completion_wr = cp[1];
  for (const int fd : {sp[0], sp[1], cp[0], cp[1]}) set_nonblocking(fd);

  im.listen_fd = listen_on(im.cfg.bind, im.cfg.port);
  im.http_fd = listen_on(im.cfg.bind, im.cfg.http_port);
  im.frame_port = bound_port(im.listen_fd);
  im.metrics_port = bound_port(im.http_fd);

  im.started = true;
  im.executor = std::thread([&im] {
    WorkerPool pool(im.cfg.workers);
    pool.run([&im](unsigned) { im.worker_loop(); });
  });
  im.io_thread = std::thread([&im] { im.io_loop(); });
}

std::uint16_t ElectionServer::port() const { return impl_->frame_port; }
std::uint16_t ElectionServer::http_port() const { return impl_->metrics_port; }

void ElectionServer::request_shutdown() {
  if (impl_->shutdown_wr >= 0) write_byte(impl_->shutdown_wr);
}

void ElectionServer::wait() {
  Impl& im = *impl_;
  if (!im.started || im.joined) return;
  if (im.io_thread.joinable()) im.io_thread.join();
  if (im.executor.joinable()) im.executor.join();
  im.joined = true;
}

ServeStats ElectionServer::stats() const { return impl_->stats(); }

void ElectionServer::install_signal_handlers() {
  g_signal_fd.store(impl_->shutdown_wr, std::memory_order_relaxed);
  struct sigaction sa{};
  sa.sa_handler = serve_signal_handler;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction ign{};
  ign.sa_handler = SIG_IGN;
  ::sigemptyset(&ign.sa_mask);
  ::sigaction(SIGPIPE, &ign, nullptr);
}

}  // namespace ule::serve
