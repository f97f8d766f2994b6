// PortOutbox unit tests: the CONGEST pacing queue must deliver one message
// per port per round, in FIFO order per port, and report backlog correctly.

#include "net/outbox.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "net/knowledge.hpp"

namespace ule {
namespace {

FlatMsg tag(int t) {
  FlatMsg m;
  m.type = 1;
  m.bits = wire::kTypeTag;
  m.a = static_cast<std::uint64_t>(t);
  return m;
}

/// Minimal Context: records sends, stubs everything else.
class RecorderCtx final : public Context {
 public:
  explicit RecorderCtx(std::size_t degree) : degree_(degree) {}

  std::vector<std::pair<PortId, int>> sent;
  std::vector<LinkHeader> links;

  NodeId slot() const override { return 0; }
  std::size_t degree() const override { return degree_; }
  bool anonymous() const override { return true; }
  Uid uid() const override { throw std::logic_error("anonymous"); }
  Round round() const override { return 0; }
  Rng& rng() override { return rng_; }
  const Knowledge& knowledge() const override { return knowledge_; }
  void send(PortId port, const FlatMsg& msg, const LinkHeader& link) override {
    sent.emplace_back(port, static_cast<int>(msg.a));
    links.push_back(link);
  }
  void set_status(Status) override {}
  Status status() const override { return Status::Undecided; }
  void idle() override {}
  void sleep_until(Round) override {}
  void halt() override {}

 private:
  std::size_t degree_;
  Rng rng_{1};
  Knowledge knowledge_;
};

TEST(PortOutbox, EmptyFlushSendsNothing) {
  PortOutbox ob;
  RecorderCtx ctx(3);
  EXPECT_TRUE(ob.empty());
  EXPECT_FALSE(ob.flush(ctx));
  EXPECT_TRUE(ctx.sent.empty());
}

TEST(PortOutbox, OneMessagePerPortPerFlush) {
  PortOutbox ob;
  RecorderCtx ctx(2);
  ob.queue(0, tag(1));
  ob.queue(0, tag(2));
  ob.queue(1, tag(3));

  EXPECT_EQ(ob.backlog(), 3u);
  EXPECT_TRUE(ob.flush(ctx));  // one left on port 0
  ASSERT_EQ(ctx.sent.size(), 2u);
  EXPECT_EQ(ctx.sent[0], (std::pair<PortId, int>{0, 1}));
  EXPECT_EQ(ctx.sent[1], (std::pair<PortId, int>{1, 3}));

  EXPECT_FALSE(ob.flush(ctx));  // drains the rest
  ASSERT_EQ(ctx.sent.size(), 3u);
  EXPECT_EQ(ctx.sent[2], (std::pair<PortId, int>{0, 2}));
  EXPECT_TRUE(ob.empty());
}

TEST(PortOutbox, FifoPerPortAcrossManyFlushes) {
  PortOutbox ob;
  RecorderCtx ctx(1);
  for (int i = 0; i < 10; ++i) ob.queue(0, tag(i));
  int flushes = 0;
  while (ob.flush(ctx)) ++flushes;
  EXPECT_EQ(flushes, 9);  // 10th flush returns false (queue emptied)
  ASSERT_EQ(ctx.sent.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ctx.sent[i].second, i);
}

TEST(PortOutbox, QueueBroadcastHitsEveryPort) {
  PortOutbox ob;
  RecorderCtx ctx(4);
  ob.queue_broadcast(ctx, tag(9));
  EXPECT_EQ(ob.backlog(), 4u);
  EXPECT_FALSE(ob.flush(ctx));
  ASSERT_EQ(ctx.sent.size(), 4u);
  for (PortId p = 0; p < 4; ++p) {
    EXPECT_EQ(ctx.sent[p].first, p);
    EXPECT_EQ(ctx.sent[p].second, 9);
  }
}

TEST(PortOutbox, InterleavesPortsIndependently) {
  PortOutbox ob;
  RecorderCtx ctx(2);
  ob.queue(1, tag(10));
  ob.queue(1, tag(11));
  EXPECT_TRUE(ob.flush(ctx));  // port1: 10
  ob.queue(0, tag(20));
  EXPECT_FALSE(ob.flush(ctx));  // port0: 20, port1: 11 — both drained
  ASSERT_EQ(ctx.sent.size(), 3u);
  EXPECT_EQ(ctx.sent[0], (std::pair<PortId, int>{1, 10}));
  EXPECT_EQ(ctx.sent[1], (std::pair<PortId, int>{0, 20}));
  EXPECT_EQ(ctx.sent[2], (std::pair<PortId, int>{1, 11}));
}

TEST(PortOutbox, FlushSendsAZeroLinkHeader) {
  PortOutbox ob;
  RecorderCtx ctx(2);
  ob.queue(0, tag(1));
  ob.queue(0, tag(2));
  ob.queue(1, tag(3));
  while (ob.flush(ctx)) {
  }
  ASSERT_EQ(ctx.links.size(), 3u);
  for (const LinkHeader& h : ctx.links) {
    EXPECT_EQ(h.seq, 0u);
    EXPECT_EQ(h.epoch, 0u);
    EXPECT_EQ(h.ack, 0u);
    EXPECT_EQ(h.ack_epoch, 0u);
  }
}

TEST(PortOutbox, BacklogCountsExactly) {
  PortOutbox ob;
  RecorderCtx ctx(3);
  EXPECT_EQ(ob.backlog(), 0u);
  ob.queue(2, tag(1));
  ob.queue(2, tag(2));
  ob.queue(0, tag(3));
  EXPECT_EQ(ob.backlog(), 3u);
  ob.flush(ctx);
  EXPECT_EQ(ob.backlog(), 1u);
  ob.flush(ctx);
  EXPECT_EQ(ob.backlog(), 0u);
}

}  // namespace
}  // namespace ule
