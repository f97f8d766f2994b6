// The election-as-a-service daemon binary (src/serve/server.hpp).
//
//   election_served                         serve on ephemeral loopback ports
//   election_served --port P --http-port H pin the frame / metrics ports
//   election_served --bind ADDR            bind address (default 127.0.0.1)
//   election_served --workers W            job-executing WorkerPool size
//   election_served --queue N              bounded job queue capacity
//   election_served --no-metrics           skip per-job engine telemetry
//   election_served --port-file FILE       write "FRAME_PORT HTTP_PORT\n"
//                                          once listening (CI discovers the
//                                          ephemeral ports from this)
//
// The daemon serves until SIGTERM/SIGINT, then DRAINS: accepted jobs finish
// on the WorkerPool, results flush to their sessions, and only then does the
// process exit 0.  SIGPIPE is ignored; a dead client costs one session,
// never the daemon.  An unknown flag or a malformed number exits 2 before
// anything binds.  Frame grammar and endpoint schemas: docs/SERVER.md.

#include <cstdio>
#include <string>

#include "cli_args.hpp"
#include "serve/server.hpp"

using namespace ule;

int main(int argc, char** argv) {
  serve::ServeConfig cfg;
  std::string port_file;

  cli::ArgReader args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (arg == "--port") {
      cfg.port = args.number<std::uint16_t>();
    } else if (arg == "--http-port") {
      cfg.http_port = args.number<std::uint16_t>();
    } else if (arg == "--bind") {
      cfg.bind = args.value();
    } else if (arg == "--workers") {
      cfg.workers = args.number<unsigned>();
    } else if (arg == "--queue") {
      cfg.queue_capacity = args.number<std::size_t>();
    } else if (arg == "--no-metrics") {
      cfg.metrics = false;
    } else if (arg == "--port-file") {
      port_file = args.value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }

  serve::ElectionServer server(cfg);
  try {
    server.start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "election_served: %s\n", e.what());
    return 1;
  }
  server.install_signal_handlers();

  std::printf("election_served: frames on %s:%u, /metrics + /health on "
              "%s:%u (workers %u, queue %zu)\n",
              cfg.bind.c_str(), server.port(), cfg.bind.c_str(),
              server.http_port(), cfg.workers, cfg.queue_capacity);
  std::fflush(stdout);
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u %u\n", server.port(), server.http_port());
    std::fclose(f);
  }

  server.wait();  // returns after the SIGTERM/SIGINT drain completes
  const serve::ServeStats st = server.stats();
  std::printf("election_served: drained — %llu accepted, %llu completed, "
              "%llu rejected, %llu errors\n",
              static_cast<unsigned long long>(st.accepted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.errors));
  return 0;
}
