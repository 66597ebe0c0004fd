// Direct unit tests for the compute/service rendezvous primitives in
// tmk/rpc.h.  These classes carry every blocking protocol interaction (page
// fetches, lock grants, fork/join) and, since crash injection, the poison
// path that unwinds a compute thread when a peer dies — worth pinning at
// this level because the integration tests only ever see the happy orderings
// their schedules happen to produce.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "tmk/rpc.h"

namespace now::tmk {
namespace {

sim::Message msg(std::uint16_t type, std::uint64_t tag) {
  sim::Message m;
  m.type = type;
  m.send_ts_ns = tag;  // payload-free marker for assertions
  return m;
}

TEST(RpcClient, SeveralOutstandingFulfilledOutOfOrder) {
  RpcClient rpc;
  const std::uint64_t a = rpc.begin();
  const std::uint64_t b = rpc.begin();
  const std::uint64_t c = rpc.begin();
  EXPECT_NE(a, b);
  EXPECT_NE(b, c);
  // A page fetch requests diffs from every writer in parallel; replies land
  // in whatever order the wire produces.
  rpc.fulfill(c, msg(7, 300));
  rpc.fulfill(a, msg(7, 100));
  rpc.fulfill(b, msg(7, 200));
  EXPECT_EQ(rpc.wait(b).send_ts_ns, 200u);
  EXPECT_EQ(rpc.wait(a).send_ts_ns, 100u);
  EXPECT_EQ(rpc.wait(c).send_ts_ns, 300u);
}

TEST(RpcClient, WaitBlocksUntilFulfilled) {
  RpcClient rpc;
  const std::uint64_t seq = rpc.begin();
  std::thread service([&] { rpc.fulfill(seq, msg(3, 42)); });
  EXPECT_EQ(rpc.wait(seq).send_ts_ns, 42u);
  service.join();
}

TEST(RpcClient, PoisonWakesBlockedWaiterWithVictim) {
  RpcClient rpc;
  const std::uint64_t seq = rpc.begin();
  std::thread service([&] { rpc.poison(5); });
  try {
    rpc.wait(seq);
    FAIL() << "poisoned wait returned";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.victim, 5u);
  }
  service.join();
}

TEST(RpcClient, PoisonBeforeWaitAndBeforeBegin) {
  RpcClient rpc;
  const std::uint64_t seq = rpc.begin();
  rpc.poison(2);
  // The pending request fails...
  EXPECT_THROW(rpc.wait(seq), NodeDownError);
  // ...and no new rendezvous can start: the reply could never arrive.
  EXPECT_THROW(rpc.begin(), NodeDownError);
}

TEST(RpcClient, FulfilledReplySurvivesPoison) {
  // A reply that already landed is valid data; delivering it (instead of
  // discarding and throwing) keeps the survivor's state closer to the
  // crash-free schedule during the unwind.
  RpcClient rpc;
  const std::uint64_t seq = rpc.begin();
  rpc.fulfill(seq, msg(9, 77));
  rpc.poison(1);
  EXPECT_EQ(rpc.wait(seq).send_ts_ns, 77u);
}

TEST(RpcClient, LateReplyAfterPoisonedWaitIsDroppedAndCounted) {
  // The node-down verdict races the wire: a reply can arrive after its
  // waiter has thrown and erased the slot.  Once poisoned, that reply is
  // dropped and counted rather than aborting the process.
  RpcClient rpc;
  const std::uint64_t seq = rpc.begin();
  rpc.poison(4);
  EXPECT_THROW(rpc.wait(seq), NodeDownError);
  rpc.fulfill(seq, msg(8, 99));
  EXPECT_EQ(rpc.late_replies(), 1u);
  EXPECT_THROW(rpc.begin(), NodeDownError);
}

TEST(RpcClientDeathTest, UnmatchedReplyWithoutPoisonAborts) {
  // Without a node-down verdict an unmatched reply is a protocol bug.
  RpcClient rpc;
  EXPECT_DEATH(rpc.fulfill(12345, msg(8, 1)), "unmatched rpc reply seq 12345");
}

TEST(WaitSlot, DeliversInFifoOrder) {
  WaitSlot slot;
  slot.post(msg(1, 10));
  slot.post(msg(1, 20));
  slot.post(msg(1, 30));
  EXPECT_EQ(slot.take().send_ts_ns, 10u);
  EXPECT_EQ(slot.take().send_ts_ns, 20u);
  EXPECT_EQ(slot.take().send_ts_ns, 30u);
}

TEST(WaitSlot, TakeBlocksUntilPosted) {
  WaitSlot slot;
  std::thread service([&] { slot.post(msg(2, 55)); });
  EXPECT_EQ(slot.take().send_ts_ns, 55u);
  service.join();
}

TEST(WaitSlot, PoisonWakesBlockedTaker) {
  WaitSlot slot;
  std::thread service([&] { slot.poison(3); });
  try {
    slot.take();
    FAIL() << "poisoned take returned";
  } catch (const NodeDownError& e) {
    EXPECT_EQ(e.victim, 3u);
  }
  service.join();
}

TEST(WaitSlot, QueuedMessagesDrainBeforePoisonThrows) {
  WaitSlot slot;
  slot.post(msg(4, 1));
  slot.post(msg(4, 2));
  slot.poison(0);
  EXPECT_EQ(slot.take().send_ts_ns, 1u);
  EXPECT_EQ(slot.take().send_ts_ns, 2u);
  EXPECT_THROW(slot.take(), NodeDownError);
}

TEST(RpcClient, ManyThreadsEachGetTheirOwnReply) {
  RpcClient rpc;
  constexpr int kN = 16;
  std::vector<std::uint64_t> seqs(kN);
  for (int i = 0; i < kN; ++i) seqs[i] = rpc.begin();
  std::vector<std::thread> waiters;
  std::vector<std::uint64_t> got(kN, 0);
  for (int i = 0; i < kN; ++i)
    waiters.emplace_back([&, i] { got[i] = rpc.wait(seqs[i]).send_ts_ns; });
  // Reverse order: every waiter must match on seq, not arrival order.
  for (int i = kN - 1; i >= 0; --i) rpc.fulfill(seqs[i], msg(6, 1000 + i));
  for (auto& t : waiters) t.join();
  for (int i = 0; i < kN; ++i) EXPECT_EQ(got[i], 1000u + i);
}

}  // namespace
}  // namespace now::tmk
