// Load generator + determinism checker for the election daemon.
//
// Spins up S concurrent sessions (one ServeClient + thread each), each
// submitting registry-drawn scenarios (scenario/fuzzer.hpp's draw_scenario,
// so adversary / churn / reliable tokens are in the mix) and waiting for the
// streamed result.  Every JobResult is diffed counter-for-counter against a
// local in-process run_scenario of the same token — the daemon must be
// bit-for-bit a remote run_election.  Any mismatch is printed and fails the
// run.
//
//   election_loadgen --port P [--http-port H]   target an external daemon
//   election_loadgen                            self-host an in-process server
//   election_loadgen --quick                    8 sessions x 125 jobs (CI)
//   election_loadgen --sessions S --jobs J      explicit load shape
//   election_loadgen --seed N                   master draw seed
//   election_loadgen --no-check                 skip the local replay diff
//   election_loadgen --json FILE                report path (BENCH_serve.json)
//
// Writes sustained jobs/sec and p50/p95/p99 submit->result latency to
// BENCH_serve.json (a json/bench_doc.hpp bench document).  Exits 1 on any
// counter mismatch, job error, transport failure, or report write error, and
// 2 on a usage error (an unknown flag or a malformed number).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cli_args.hpp"
#include "json/bench_doc.hpp"
#include "net/rng.hpp"
#include "scenario/fuzzer.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace ule;

namespace {

struct SessionResult {
  std::size_t jobs_done = 0;
  std::size_t mismatches = 0;
  std::size_t errors = 0;
  std::vector<double> latencies_ms;
  std::string first_failure;  // one diagnostic is enough to act on
};

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

std::string diff_counters(const serve::ResultCounters& remote,
                          const serve::ResultCounters& local) {
  if (remote.size() != local.size())
    return "counter count " + std::to_string(remote.size()) + " vs local " +
           std::to_string(local.size());
  for (std::size_t i = 0; i < remote.size(); ++i) {
    if (remote[i].first != local[i].first)
      return "counter #" + std::to_string(i) + " named \"" +
             remote[i].first + "\" vs local \"" + local[i].first + "\"";
    if (remote[i].second != local[i].second)
      return remote[i].first + "=" + std::to_string(remote[i].second) +
             " vs local " + std::to_string(local[i].second);
  }
  return "";
}

void run_session(const std::string& host, std::uint16_t port,
                 std::uint64_t session_seed, std::size_t jobs, bool check,
                 const ProtocolRegistry& protocols,
                 const FamilyRegistry& families, SessionResult& out) {
  Rng rng(session_seed);
  serve::ServeClient client;
  try {
    client.connect(host, port);
  } catch (const std::exception& e) {
    out.errors = jobs;
    out.first_failure = e.what();
    return;
  }
  // Keep engine threads at 1: the determinism axis is the soak test's job;
  // here the daemon itself is the system under load.
  constexpr double kThreadsFraction = 0.0;
  constexpr double kAdversaryFraction = 0.35;
  constexpr double kChurnFraction = 0.35;
  for (std::size_t j = 0; j < jobs; ++j) {
    const Scenario s =
        draw_scenario(rng, protocols, families, /*max_n=*/24, kThreadsFraction,
                      kAdversaryFraction, "", kChurnFraction);
    const std::string token = s.encode();
    try {
      const auto t0 = std::chrono::steady_clock::now();
      const auto sub = client.submit_token(token, /*tag=*/j);
      if (!sub.accepted) {
        // Backpressure: the daemon said "come back later".  Count it and
        // retry the same token once the queue has drained a little.
        --j;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      const auto reply = client.await_result(sub.job_id);
      const double ms = ms_since(t0);
      if (!reply.ok) {
        ++out.errors;
        if (out.first_failure.empty())
          out.first_failure = token + ": JobError: " + reply.error;
        continue;
      }
      out.latencies_ms.push_back(ms);
      ++out.jobs_done;
      if (check) {
        ScenarioRunConfig rc;
        rc.check_determinism = false;
        const ScenarioOutcome local =
            run_scenario(protocols, families, s, rc);
        const std::string diff = diff_counters(
            reply.counters, serve::result_counters(local.report));
        if (!diff.empty() || reply.violations != local.violations.size()) {
          ++out.mismatches;
          if (out.first_failure.empty())
            out.first_failure =
                token + ": " +
                (diff.empty() ? "violations " +
                                    std::to_string(reply.violations) +
                                    " vs local " +
                                    std::to_string(local.violations.size())
                              : diff);
        }
      }
    } catch (const std::exception& e) {
      ++out.errors;
      if (out.first_failure.empty())
        out.first_failure = token + ": " + e.what();
      return;  // the session socket is gone; no point continuing
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::uint16_t http_port = 0;
  std::size_t sessions = 8;
  std::size_t jobs_per_session = 125;
  std::uint64_t seed = 0x10ADULL;
  bool check = true;
  std::string json_path = "BENCH_serve.json";

  cli::ArgReader args(argc, argv);
  while (args.next()) {
    const std::string arg = args.flag();
    if (arg == "--quick") {
      sessions = 8;
      jobs_per_session = 125;
    } else if (arg == "--host") {
      host = args.value();
    } else if (arg == "--port") {
      port = args.number<std::uint16_t>();
    } else if (arg == "--http-port") {
      http_port = args.number<std::uint16_t>();
    } else if (arg == "--sessions") {
      sessions = args.number<std::size_t>();
    } else if (arg == "--jobs") {
      jobs_per_session = args.number<std::size_t>();
    } else if (arg == "--seed") {
      seed = args.number<std::uint64_t>();
    } else if (arg == "--no-check") {
      check = false;
    } else if (arg == "--json") {
      json_path = args.value();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (sessions == 0 || jobs_per_session == 0) {
    std::fprintf(stderr, "--sessions and --jobs must be positive\n");
    return 2;
  }

  // Self-host when no --port was given: the loadgen then measures the daemon
  // code in-process (same sockets, same IO loop) without orchestration.
  std::unique_ptr<serve::ElectionServer> self_hosted;
  if (port == 0) {
    serve::ServeConfig cfg;
    cfg.workers = std::max(2u, std::thread::hardware_concurrency() / 2);
    self_hosted = std::make_unique<serve::ElectionServer>(cfg);
    self_hosted->start();
    port = self_hosted->port();
    http_port = self_hosted->http_port();
    std::printf("self-hosted daemon on 127.0.0.1:%u (workers %u)\n", port,
                cfg.workers);
  }

  const ProtocolRegistry& protocols = default_protocols();
  const FamilyRegistry& families = default_families();

  std::printf("loadgen: %zu sessions x %zu jobs against %s:%u%s\n", sessions,
              jobs_per_session, host.c_str(), port,
              check ? " (with local replay diff)" : "");

  std::vector<SessionResult> results(sessions);
  std::vector<std::thread> threads;
  threads.reserve(sessions);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    threads.emplace_back([&, i] {
      run_session(host, port, seed + 0x9E3779B9ULL * (i + 1), jobs_per_session,
                  check, protocols, families, results[i]);
    });
  }
  for (auto& t : threads) t.join();
  const double wall_ms = ms_since(t0);

  std::size_t done = 0, mismatches = 0, errors = 0;
  std::vector<double> latencies;
  for (const auto& r : results) {
    done += r.jobs_done;
    mismatches += r.mismatches;
    errors += r.errors;
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
    if (!r.first_failure.empty())
      std::fprintf(stderr, "FAIL: %s\n", r.first_failure.c_str());
  }
  std::sort(latencies.begin(), latencies.end());
  const double p50 = percentile(latencies, 0.50);
  const double p95 = percentile(latencies, 0.95);
  const double p99 = percentile(latencies, 0.99);
  const double jobs_per_sec =
      wall_ms > 0 ? static_cast<double>(done) / (wall_ms / 1000.0) : 0;

  std::printf("%zu jobs done in %.1f ms: %.1f jobs/sec, latency p50 %.2f ms, "
              "p95 %.2f ms, p99 %.2f ms\n",
              done, wall_ms, jobs_per_sec, p50, p95, p99);
  std::printf("mismatches %zu, errors %zu\n", mismatches, errors);

  // Health + metrics probe when we know the HTTP port: the smoke should fail
  // here, not in a separate curl step, if the endpoints regress.
  if (http_port != 0) {
    std::string body;
    const int health = serve::http_get(host, http_port, "/health", &body);
    std::printf("/health -> %d %s\n", health, body.c_str());
    if (health != 200) ++errors;
  }

  json::JsonReport report("serve_loadgen");
  report.add_row()
      .set("sessions", static_cast<std::uint64_t>(sessions))
      .set("jobs_per_session", static_cast<std::uint64_t>(jobs_per_session))
      .set("jobs_done", static_cast<std::uint64_t>(done))
      .set("wall_ms", wall_ms)
      .set("jobs_per_sec", jobs_per_sec)
      .set("latency_p50_ms", p50)
      .set("latency_p95_ms", p95)
      .set("latency_p99_ms", p99)
      .set("replay_checked", check)
      .set("mismatches", static_cast<std::uint64_t>(mismatches))
      .set("errors", static_cast<std::uint64_t>(errors));
  try {
    report.write(json_path);
    std::printf("wrote %s\n", json_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    ++errors;
  }

  if (self_hosted) {
    self_hosted->request_shutdown();
    self_hosted->wait();
  }
  return (mismatches == 0 && errors == 0 && done == sessions * jobs_per_session)
             ? 0
             : 1;
}
