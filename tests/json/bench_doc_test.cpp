// The bench-document module (json/bench_doc.hpp): the writer's framing is
// pinned byte for byte, JsonReport::str() round-trips through parse(), the
// reader's strict grammar rejects what it must (a repeated key, trailing
// content, a misordered header) and keeps scalars as raw text, and the file
// helpers fail loudly instead of reporting a write that never happened.

#include "json/bench_doc.hpp"

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

namespace ule::json {
namespace {

JsonReport two_row_report() {
  JsonReport report("demo");
  report.add_row()
      .set("name", "engine.messages")
      .set("n", std::uint64_t{42})
      .set("ratio", 0.5)
      .set("big", 1234567.0)
      .set("ok", true);
  report.add_row().set("kind", std::string("meta")).set("done", false);
  return report;
}

TEST(BenchDoc, FramingIsPinnedByteForByte) {
  EXPECT_EQ(two_row_report().str(),
            "{\n"
            "  \"bench\": \"demo\",\n"
            "  \"rows\": [\n"
            "    {\"name\": \"engine.messages\", \"n\": 42, \"ratio\": 0.5, "
            "\"big\": 1.23457e+06, \"ok\": true},\n"
            "    {\"kind\": \"meta\", \"done\": false}\n"
            "  ]\n"
            "}\n");
  EXPECT_EQ(JsonReport("empty").str(),
            "{\n  \"bench\": \"empty\",\n  \"rows\": [\n  ]\n}\n");
}

TEST(BenchDoc, ReportRoundTripsThroughParse) {
  const Document doc = parse(two_row_report().str());
  EXPECT_EQ(doc.bench, "demo");
  ASSERT_EQ(doc.rows.size(), 2u);
  const Row& row = doc.rows[0];
  ASSERT_EQ(row.fields.size(), 5u);
  EXPECT_EQ(row.fields[0].first, "name");  // document order is kept
  EXPECT_EQ(row.fields[4].first, "ok");
  ASSERT_NE(row.find("name"), nullptr);
  EXPECT_TRUE(row.find("name")->quoted);
  EXPECT_EQ(row.find("name")->text, "engine.messages");
  EXPECT_FALSE(row.find("n")->quoted);
  EXPECT_EQ(row.find("n")->text, "42");
  EXPECT_EQ(row.find("big")->text, "1.23457e+06");  // raw scalar text
  EXPECT_EQ(row.find("ok")->text, "true");
  EXPECT_EQ(row.find("missing"), nullptr);
  EXPECT_EQ(doc.rows[1].find("done")->text, "false");
  EXPECT_TRUE(parse(JsonReport("empty").str()).rows.empty());
}

TEST(BenchDoc, ReaderKeepsTheFlatGrammar) {
  // Any isspace byte separates tokens; strings get no escape processing.
  const Document doc = parse(
      "\f{\v\"bench\":\t\"x\",\r\n\"rows\":[{\"name\": \"a\\b\", "
      "\"v\": 4-7}]}\n");
  EXPECT_EQ(doc.bench, "x");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0].find("name")->text, "a\\b");
  // A scalar is a lexeme, not a number: converting it is the caller's job.
  EXPECT_EQ(doc.rows[0].find("v")->text, "4-7");
}

TEST(BenchDoc, ReaderRejectsWithTheByteOffset) {
  const std::string ok = "{\"bench\": \"x\", \"rows\": [{\"a\": 1}]}";
  EXPECT_NO_THROW(parse(ok));
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      parse(text);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  // A row that repeats a key, reported at the second occurrence.
  const std::string dup = "{\"bench\": \"x\", \"rows\": [{\"a\": 1, \"a\": 2}]}";
  const std::string dup_error = error_of(dup);
  EXPECT_NE(dup_error.find("offset " + std::to_string(dup.rfind("\"a\""))),
            std::string::npos)
      << dup_error;
  EXPECT_NE(dup_error.find("duplicate key"), std::string::npos) << dup_error;
  // The same key in two different rows is fine.
  EXPECT_NO_THROW(parse("{\"bench\": \"x\", \"rows\": [{\"a\": 1}, {\"a\": 2}]}"));

  const std::string trailing_error = error_of(ok + " x");
  EXPECT_NE(trailing_error.find("offset " + std::to_string(ok.size() + 1)),
            std::string::npos)
      << trailing_error;
  for (const std::string& bad : {
           std::string(""),
           ok + "}",                                         // trailing brace
           std::string("{\"rows\": [], \"bench\": \"x\"}"),  // header order
           std::string("{\"bench\": \"x\"}"),                // no rows
           std::string("{\"bench\": 1, \"rows\": []}"),      // untagged
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": 1},]}"),
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": 1,}]}"),
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": null}]}"),
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": {}}]}"),
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": \"open}]}"),
           std::string("{\"bench\": \"x\", \"rows\": [{\"a\": 1}], \"n\": 1}"),
       })
    EXPECT_THROW(parse(bad), std::invalid_argument) << bad;
}

TEST(BenchDoc, TextFilesRoundTrip) {
  const std::string path = ::testing::TempDir() + "bench_doc_test.json";
  const std::string doc = two_row_report().str();
  write_text_file(path, doc);
  EXPECT_EQ(read_text_file(path), doc);
  two_row_report().write(path);
  EXPECT_EQ(read_text_file(path), doc);
  std::remove(path.c_str());
  EXPECT_THROW(read_text_file(path), std::runtime_error);  // gone
  // A directory opens but cannot be read: the read error surfaces.
  EXPECT_THROW(read_text_file(::testing::TempDir()), std::runtime_error);
}

TEST(BenchDoc, WritingToAFullDeviceThrows) {
  if (::access("/dev/full", W_OK) != 0)
    GTEST_SKIP() << "/dev/full is not available";
  // The bytes fit the stdio buffer, so the failure arrives at fclose: a
  // writer that ignored it would report success for an empty file.
  EXPECT_THROW(write_text_file("/dev/full", "{}\n"), std::runtime_error);
  EXPECT_THROW(JsonReport("demo").write("/dev/full"), std::runtime_error);
}

}  // namespace
}  // namespace ule::json
