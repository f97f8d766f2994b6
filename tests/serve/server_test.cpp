// End-to-end contracts of the election daemon (serve/server.hpp), driven
// through real loopback sockets: result parity with in-process runs,
// telemetry streaming, malformed-frame and malformed-token handling,
// explicit backpressure, the SIGTERM drain (killed mid-job, the daemon
// still delivers every accepted result), and the /health + /metrics HTTP
// endpoints.

#include <gtest/gtest.h>
#include <signal.h>
#include <unistd.h>

#include <string>
#include <thread>
#include <vector>

#include "net/metrics.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/scenario.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace ule::serve {
namespace {

constexpr const char* kToken = "ule1:ring{n=16}:flood_max:k=none:w=sim:s=9:t=1";

ResultCounters local_counters(const std::string& token) {
  ScenarioRunConfig rc;
  rc.check_determinism = false;
  const ScenarioOutcome out = run_scenario(
      default_protocols(), default_families(), Scenario::parse(token), rc);
  EXPECT_TRUE(out.ok());
  return result_counters(out.report);
}

TEST(ElectionServerTest, ResultMatchesInProcessRunBitForBit) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  const auto sub = client.submit_token(kToken, /*tag=*/55);
  ASSERT_TRUE(sub.accepted);
  const auto reply = client.await_result(sub.job_id);
  ASSERT_TRUE(reply.ok) << reply.error;
  EXPECT_EQ(reply.violations, 0u);
  EXPECT_EQ(reply.counters, local_counters(kToken));

  // The streamed telemetry reassembles into a schema-clean engine_metrics
  // document (the same gate CI's validate-metrics runs).
  std::string err;
  EXPECT_TRUE(validate_metrics_json(reply.metrics_doc, &err)) << err;

  server.request_shutdown();
  server.wait();
  const ServeStats st = server.stats();
  EXPECT_EQ(st.accepted, 1u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.errors, 0u);
}

TEST(ElectionServerTest, AdversarialAndChurnTokensMatchToo) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const std::vector<std::string> tokens = {
      "ule1:ring{n=12}:flood_max:k=none:w=sim:s=3:t=1:a=0.0.0.500.7",
      "ule1:ring{n=12}:dfs:k=none:w=sim:s=3:t=1:a=2.100.0.100.7",
      "ule1:complete{n=10}:kingdom_reliable:k=n:w=sim:s=11:t=1"
      ":a=1.150.0.0.5:r=4.16",
      "ule1:complete{n=10}:kingdom_reliable:k=n:w=sim:s=11:t=1:f=3@2",
  };
  for (const auto& token : tokens) {
    const auto sub = client.submit_token(token);
    ASSERT_TRUE(sub.accepted) << token;
    const auto reply = client.await_result(sub.job_id);
    ASSERT_TRUE(reply.ok) << token << ": " << reply.error;
    EXPECT_EQ(reply.counters, local_counters(token)) << token;
  }
  server.request_shutdown();
  server.wait();
}

TEST(ElectionServerTest, MalformedTokenGetsJobErrorAndSessionStaysOpen) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  client.send_frame(FrameType::SubmitJob, 0, 0, 0, /*tag=*/7, 0,
                    "ule1:this-is-not-a-token");
  Frame f;
  ASSERT_TRUE(client.read_frame(f));
  EXPECT_EQ(f.header.type, static_cast<std::uint16_t>(FrameType::JobError));
  EXPECT_EQ(f.header.b, 7u);
  EXPECT_FALSE(f.payload.empty());

  // Same session, next submit: still serviced.
  const auto sub = client.submit_token(kToken);
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(client.await_result(sub.job_id).ok);

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ElectionServerTest, UnknownSubmitFlagsGetJobErrorAndSessionStaysOpen) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  // A valid token, but with a flag bit SubmitJob does not define.
  client.send_frame(FrameType::SubmitJob, 0, /*flags=*/1, 0, /*tag=*/8, 0,
                    kToken);
  Frame f;
  ASSERT_TRUE(client.read_frame(f));
  EXPECT_EQ(f.header.type, static_cast<std::uint16_t>(FrameType::JobError));
  EXPECT_EQ(f.header.a, 0u);
  EXPECT_EQ(f.header.b, 8u);
  EXPECT_NE(f.payload.find("unknown SubmitJob flags"), std::string::npos)
      << f.payload;

  const auto sub = client.submit_token(kToken);
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(client.await_result(sub.job_id).ok);

  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.stats().accepted, 1u);
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ElectionServerTest, MalformedFrameGetsJobErrorThenClose) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  std::string garbage(kHeaderBytes, '\0');
  garbage[0] = 0x66;  // unknown type
  client.send_raw(garbage);

  Frame f;
  ASSERT_TRUE(client.read_frame(f));
  EXPECT_EQ(f.header.type, static_cast<std::uint16_t>(FrameType::JobError));
  EXPECT_NE(f.payload.find("malformed frame"), std::string::npos)
      << f.payload;
  EXPECT_FALSE(client.read_frame(f));  // server closed the session

  // The daemon itself survives: a fresh session works.
  ServeClient again;
  again.connect("127.0.0.1", server.port());
  const auto sub = again.submit_token(kToken);
  ASSERT_TRUE(sub.accepted);
  EXPECT_TRUE(again.await_result(sub.job_id).ok);

  server.request_shutdown();
  server.wait();
}

TEST(ElectionServerTest, NonSubmitClientFrameIsRejectedAndClosed) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  client.send_frame(FrameType::JobResult, 0, 0, 1, 2, 3, "rounds=1\n");
  Frame f;
  ASSERT_TRUE(client.read_frame(f));
  EXPECT_EQ(f.header.type, static_cast<std::uint16_t>(FrameType::JobError));
  EXPECT_FALSE(client.read_frame(f));
  server.request_shutdown();
  server.wait();
}

TEST(ElectionServerTest, FullQueueAnswersJobReject) {
  ServeConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 2;
  ElectionServer server(cfg);
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  // A pipelined burst: 16 SubmitJob frames land on the IO thread back to
  // back, far faster than worker 1 can drain them through a queue of 2.
  // Most of the burst MUST bounce with an explicit JobReject — never a
  // stall, never a dropped session — while every accepted job still
  // completes correctly.
  const std::string slow = "ule1:torus{rows=14,cols=14}:dfs:k=n:w=sim:s=2:t=1";
  constexpr int kBurst = 16;
  std::string burst;
  for (int i = 0; i < kBurst; ++i)
    burst += encode_frame(FrameType::SubmitJob, 0, 0, 0, /*tag=*/i, 0, slow);
  client.send_raw(burst);

  std::size_t accepted = 0, rejected = 0, completed = 0;
  std::vector<std::uint64_t> ids;
  Frame f;
  while (completed < accepted ||
         accepted + rejected < static_cast<std::size_t>(kBurst)) {
    ASSERT_TRUE(client.read_frame(f));
    switch (static_cast<FrameType>(f.header.type)) {
      case FrameType::JobAccepted:
        ++accepted;
        ids.push_back(f.header.a);
        break;
      case FrameType::JobReject:
        ++rejected;
        EXPECT_FALSE(f.payload.empty());
        EXPECT_EQ(f.header.c, 2u);  // the queue capacity, for the operator
        break;
      case FrameType::JobResult:
        ++completed;
        EXPECT_EQ(parse_result(f.payload), local_counters(slow));
        break;
      case FrameType::StreamChunk:
        break;
      default:
        FAIL() << "unexpected frame " << f.header.type;
    }
  }
  // Worker 1 + queue 2 can hold at most a handful of the burst in flight;
  // the rest must have been shed explicitly.
  EXPECT_GT(accepted, 0u);
  EXPECT_GE(rejected, static_cast<std::size_t>(kBurst) - 8);
  EXPECT_EQ(completed, ids.size());
  server.request_shutdown();
  server.wait();
  EXPECT_EQ(server.stats().rejected, rejected);
  EXPECT_EQ(server.stats().completed, accepted);
}

TEST(ElectionServerTest, SigtermMidJobDrainsAndStillDeliversResults) {
  ServeConfig cfg;
  cfg.workers = 1;
  ElectionServer server(cfg);
  server.start();
  server.install_signal_handlers();  // also ignores SIGPIPE
  ServeClient client;
  client.connect("127.0.0.1", server.port());

  // Accept a queue of real jobs, then SIGTERM the process mid-execution.
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto sub = client.submit_token(kToken, /*tag=*/i);
    ASSERT_TRUE(sub.accepted);
    ids.push_back(sub.job_id);
  }
  ASSERT_EQ(::kill(::getpid(), SIGTERM), 0);

  // The drain contract: every accepted job still produces its JobResult,
  // bit-for-bit correct, before the daemon exits.
  const ResultCounters expect = local_counters(kToken);
  for (const std::uint64_t id : ids) {
    const auto reply = client.await_result(id);
    ASSERT_TRUE(reply.ok) << reply.error;
    EXPECT_EQ(reply.counters, expect);
  }
  server.wait();  // returns only because the signal started the drain
  const ServeStats st = server.stats();
  EXPECT_TRUE(st.draining);
  EXPECT_EQ(st.completed, ids.size());

  // Draining daemons refuse new sessions' jobs; the listen socket is gone.
  ServeClient late;
  EXPECT_THROW(late.connect("127.0.0.1", server.port()), std::runtime_error);
}

TEST(ElectionServerTest, HealthAndMetricsEndpoints) {
  ElectionServer server;
  server.start();
  ServeClient client;
  client.connect("127.0.0.1", server.port());
  const auto sub = client.submit_token(kToken);
  ASSERT_TRUE(sub.accepted);
  ASSERT_TRUE(client.await_result(sub.job_id).ok);

  std::string body;
  EXPECT_EQ(http_get("127.0.0.1", server.http_port(), "/health", &body), 200);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"completed\": 1"), std::string::npos) << body;

  EXPECT_EQ(http_get("127.0.0.1", server.http_port(), "/metrics", &body), 200);
  std::string err;
  EXPECT_TRUE(validate_metrics_json(body, &err)) << err << "\n" << body;
  // The serve-layer counters ride inside the same strict schema.
  EXPECT_NE(body.find("serve.jobs_completed"), std::string::npos);

  EXPECT_EQ(http_get("127.0.0.1", server.http_port(), "/nope", &body), 404);
  server.request_shutdown();
  server.wait();
}

TEST(ElectionServerTest, HttpGarbageGetsAnErrorNotACrash) {
  ElectionServer server;
  server.start();
  // Raw socket talking junk at the HTTP port.
  ServeClient raw;
  raw.connect("127.0.0.1", server.http_port());
  raw.send_raw("NOT HTTP AT ALL\r\n\r\n");
  // The daemon answers 4xx/5xx or closes; either way it keeps serving.
  std::string body;
  EXPECT_EQ(http_get("127.0.0.1", server.http_port(), "/health", &body), 200);
  server.request_shutdown();
  server.wait();
}

}  // namespace
}  // namespace ule::serve
