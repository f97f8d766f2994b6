#include "serve/client.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <stdexcept>

namespace ule::serve {

namespace {

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw std::runtime_error("socket(): " + std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw std::runtime_error("bad host \"" + host + "\"");
  }
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0)
      return fd;
    if (errno == EINTR) continue;
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect(" + host + ":" + std::to_string(port) +
                             "): " + err);
  }
}

void send_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("send(): " + std::string(std::strerror(errno)));
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
}

}  // namespace

ServeClient::~ServeClient() { close(); }

void ServeClient::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = connect_to(host, port);
}

void ServeClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ServeClient::send_frame(FrameType type, std::uint8_t channel,
                             std::uint8_t flags, std::uint64_t a,
                             std::uint64_t b, std::uint64_t c,
                             std::string_view payload) {
  send_raw(encode_frame(type, channel, flags, a, b, c, payload));
}

void ServeClient::send_raw(std::string_view bytes) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  send_all(fd_, bytes.data(), bytes.size());
}

bool ServeClient::read_frame(Frame& out) {
  if (fd_ < 0) throw std::runtime_error("client not connected");
  std::string err;
  for (;;) {
    const FrameDecoder::Status st = decoder_.next(out, &err);
    if (st == FrameDecoder::Status::Frame) return true;
    if (st == FrameDecoder::Status::Bad)
      throw std::runtime_error("bad frame from server: " + err);
    char buf[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        decoder_.feed(buf, static_cast<std::size_t>(n));
        break;
      }
      if (n == 0) return false;  // EOF
      if (errno == EINTR) continue;
      throw std::runtime_error("recv(): " + std::string(std::strerror(errno)));
    }
  }
}

ServeClient::Submission ServeClient::submit_token(const std::string& token,
                                                  std::uint64_t tag,
                                                  std::uint8_t channel) {
  send_frame(FrameType::SubmitJob, channel, 0, 0, tag, 0, token);
  Frame f;
  for (;;) {
    if (!read_frame(f))
      throw std::runtime_error("server closed the session before answering");
    Submission sub;
    switch (static_cast<FrameType>(f.header.type)) {
      case FrameType::JobAccepted:
        sub.accepted = true;
        sub.job_id = f.header.a;
        return sub;
      case FrameType::JobReject:
        sub.accepted = false;
        sub.reject_reason = f.payload;
        return sub;
      case FrameType::JobError:
        // a == 0 means "this submit" (the job never existed); a JobError
        // carrying a job id belongs to an earlier pipelined job.
        if (f.header.a == 0)
          throw std::runtime_error("submit rejected: " + f.payload);
        pending_.push_back(std::move(f));
        continue;
      case FrameType::StreamChunk:
      case FrameType::JobResult:
        // An earlier pipelined job finishing; park it for await_result().
        pending_.push_back(std::move(f));
        continue;
      default:
        throw std::runtime_error(
            std::string("unexpected reply to SubmitJob: ") +
            to_string(static_cast<FrameType>(f.header.type)));
    }
  }
}

ServeClient::JobReply ServeClient::await_result(std::uint64_t job_id) {
  JobReply reply;
  Frame f;
  std::size_t scanned = 0;  // pending_ frames already inspected this call
  for (;;) {
    bool from_pending = false;
    if (scanned < pending_.size()) {
      f = std::move(pending_[scanned]);
      pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(scanned));
      from_pending = true;
    } else if (!read_frame(f)) {
      throw std::runtime_error("server closed the session mid-job");
    }
    const auto type = static_cast<FrameType>(f.header.type);
    if (type == FrameType::StreamChunk && f.header.a == job_id) {
      reply.metrics_doc += f.payload;
      continue;
    }
    if (type == FrameType::JobResult && f.header.a == job_id) {
      reply.ok = true;
      reply.violations = f.header.c;
      reply.counters = parse_result(f.payload);
      return reply;
    }
    if (type == FrameType::JobError && f.header.a == job_id) {
      reply.ok = false;
      reply.error = f.payload;
      return reply;
    }
    // A frame for some other pipelined job: keep it (in order) for its own
    // await_result().
    if (type == FrameType::StreamChunk || type == FrameType::JobResult ||
        type == FrameType::JobError) {
      if (from_pending) {
        pending_.insert(pending_.begin() + static_cast<std::ptrdiff_t>(scanned),
                        std::move(f));
        ++scanned;
      } else {
        pending_.push_back(std::move(f));
        ++scanned;  // == pending_.size(); don't re-inspect it this call
      }
      continue;
    }
    throw std::runtime_error(std::string("unexpected frame ") +
                             to_string(type) + " while awaiting job " +
                             std::to_string(job_id));
  }
}

int http_get(const std::string& host, std::uint16_t port,
             const std::string& path, std::string* body) {
  const int fd = connect_to(host, port);
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                          "\r\nConnection: close\r\n\r\n";
  try {
    send_all(fd, req.data(), req.size());
  } catch (...) {
    ::close(fd);
    throw;
  }
  std::string resp;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      resp.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF or error: response complete (Connection: close)
  }
  ::close(fd);
  const std::size_t sp = resp.find(' ');
  if (resp.rfind("HTTP/", 0) != 0 || sp == std::string::npos)
    throw std::runtime_error("malformed HTTP response");
  const int code = std::atoi(resp.c_str() + sp + 1);
  if (body != nullptr) {
    const std::size_t sep = resp.find("\r\n\r\n");
    *body = sep == std::string::npos ? "" : resp.substr(sep + 4);
  }
  return code;
}

}  // namespace ule::serve
