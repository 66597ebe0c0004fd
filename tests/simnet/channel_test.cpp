// Unit tests for the reliability channel and the fault injector, driven
// through Network so the send/recv plumbing under test is the real one.
// Single-threaded where possible: one thread alternates try_recv on both
// endpoints, which is exactly what drives each side's maintenance
// (retransmits, standalone acks) in the absence of a service thread.
#include "simnet/channel.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "simnet/network.h"

namespace now::sim {
namespace {

Message make(NodeId src, NodeId dst, std::uint16_t type, std::size_t payload,
             std::uint64_t send_ts = 0) {
  Message m;
  m.src = src;
  m.dst = dst;
  m.type = type;
  m.send_ts_ns = send_ts;
  m.payload.resize(payload);
  return m;
}

void breathe() { std::this_thread::sleep_for(std::chrono::microseconds(200)); }

// Sequencing on a clean wire: surfaced messages carry consecutive per-link
// sequence numbers, and a reverse message's piggybacked cumulative ack
// drains the sender's retransmit queue with no standalone ack ever sent.
TEST(Channel, SequencesAndPiggybacksAcksOnReverseTraffic) {
  ChannelConfig chan;
  chan.reliable = true;
  // Pushed far out so neither fires during the test: the drain below must
  // come from the piggyback alone.
  chan.rto_host_us = 10'000'000;
  chan.ack_flush_host_us = 10'000'000;
  Network net(2, NetworkModel{}, chan);

  for (int i = 0; i < 3; ++i) net.send(make(0, 1, 1, 8));
  EXPECT_EQ(net.channel_unacked(0), 3u);
  for (std::uint64_t want = 1; want <= 3; ++want) {
    auto m = net.recv(1);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->ch_seq, want);
  }
  // The reverse message carries ack=3 for free.
  net.send(make(1, 0, 2, 8));
  ASSERT_TRUE(net.recv(0).has_value());
  EXPECT_EQ(net.channel_unacked(0), 0u);
  EXPECT_EQ(net.traffic().chan.acks_sent, 0u);
}

// An idle reverse link: the receiver owes an ack with nothing to piggyback
// it on, so after the flush timeout its maintenance emits a standalone ack
// message, which the sender's channel consumes — it must never surface.
TEST(Channel, StandaloneAckFlushedOnIdleReverseLink) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.ack_type = 5;
  chan.num_msg_types = 6;
  chan.rto_host_us = 10'000'000;  // no retransmits: the ack must do it
  chan.ack_flush_host_us = 500;
  Network net(2, NetworkModel{}, chan);

  net.send(make(0, 1, 1, 8));
  ASSERT_TRUE(net.recv(1).has_value());
  EXPECT_EQ(net.channel_unacked(0), 1u);
  while (net.channel_unacked(0) != 0) {
    net.try_recv(1);  // receiver-side maintenance flushes the ack
    EXPECT_FALSE(net.try_recv(0).has_value());  // consumed, never surfaced
    breathe();
  }
  const auto t = net.traffic();
  EXPECT_GE(t.chan.acks_sent, 1u);
  EXPECT_EQ(t.chan.retransmits, 0u);
  EXPECT_EQ(t.messages_by_type[5], t.chan.acks_sent);  // attributed on the wire
}

// A lossy link: ~20% of transmissions vanish, and the retransmission
// protocol still surfaces every message exactly once, in order.
TEST(Channel, DropsRecoveredExactlyOnceInOrder) {
  ChannelConfig chan;
  chan.fault.drop_ppm = 200000;
  chan.fault.seed = 7;
  Network net(2, NetworkModel{}, chan);

  constexpr std::uint64_t kCount = 100;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);  // sender-side maintenance: retransmit overdue entries
    breathe();
  }
  EXPECT_FALSE(net.try_recv(1).has_value());  // exactly once: nothing extra
  const auto t = net.traffic();
  EXPECT_GT(t.chan.drops_injected, 0u);
  EXPECT_GT(t.chan.retransmits, 0u);
  // Wire accounting counts every attempt: original sends + retransmits +
  // acks, minus nothing for the drops (they were real transmissions).
  EXPECT_EQ(t.messages,
            kCount + t.chan.retransmits + t.chan.acks_sent);
}

// The first seed whose drop stream at 50% drops exactly the transmissions
// marked true among the first few on each direction of link 0 <-> 1 (the
// n-th entry is the n-th transmission, probes and acks included).  Pins a
// loss scenario by construction, so the loss-recovery tests below assert
// counts rather than host timing.
std::uint64_t seed_dropping(const std::vector<bool>& fwd,
                            const std::vector<bool>& rev) {
  for (std::uint64_t seed = 1;; ++seed) {
    FaultConfig f;
    f.drop_ppm = 500000;
    f.seed = seed;
    bool match = true;
    for (std::size_t n = 0; n < fwd.size(); ++n)
      match = match && f.drops(0, 1, n + 1) == fwd[n];
    for (std::size_t n = 0; n < rev.size(); ++n)
      match = match && f.drops(1, 0, n + 1) == rev[n];
    if (match) return seed;
  }
}

// A long RTO (400 ms, so PTO = 100 ms) keeps the timer out of the tests
// below: whatever recovers a loss within the test is the report path.
ChannelConfig lossy_with_seed(std::uint64_t seed) {
  ChannelConfig chan;
  chan.fault.drop_ppm = 500000;
  chan.fault.seed = seed;
  chan.ack_type = 5;
  chan.num_msg_types = 6;
  chan.rto_host_us = 400'000;
  return chan;
}

// Pumps both endpoints' maintenance until node 1 has surfaced `count`
// messages and node 0's retransmit queue is empty; returns their seqs.
std::vector<std::uint64_t> pump(Network& net, std::size_t count) {
  std::vector<std::uint64_t> got;
  while (got.size() < count || net.channel_unacked(0) != 0) {
    if (auto m = net.try_recv(1)) got.push_back(m->seq);
    EXPECT_FALSE(net.try_recv(0).has_value());  // acks never surface
    breathe();
  }
  return got;
}

// A lone message lost at the tail: nothing sent after it exposes the gap,
// so the sender's tail-loss probe asks for a report, and the report
// triggers one fast retransmit — long before the RTO timer would fire.
TEST(Channel, LoneTailLossRecoveredByProbeAndReport) {
  // data dropped; request, fast retransmit pass / report, ack pass.
  Network net(2, NetworkModel{},
              lossy_with_seed(seed_dropping({true, false, false, false},
                                            {false, false, false})));
  auto m = make(0, 1, 1, 8);
  m.seq = 42;
  net.send(std::move(m));
  EXPECT_EQ(pump(net, 1), std::vector<std::uint64_t>{42});
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.drops_injected, 1u);
  EXPECT_EQ(t.chan.fast_retransmits, 1u);
  EXPECT_EQ(t.chan.retransmits, 1u);  // zero timer retransmits
  EXPECT_GE(t.chan.acks_sent, 2u);    // at least the request and the report
  EXPECT_EQ(t.messages_by_type[5], t.chan.acks_sent);
  EXPECT_EQ(t.messages, 1 + t.chan.retransmits + t.chan.acks_sent);
}

// The first of two messages lost: the second opens a gap, the receiver
// reports at once, and exactly one fast retransmit fills the gap.
TEST(Channel, GapReportTriggersOneFastRetransmit) {
  // first dropped; second, fast retransmit pass / gap report, ack pass.
  ChannelConfig chan = lossy_with_seed(
      seed_dropping({true, false, false, false}, {false, false, false}));
  chan.rto_host_us = 4'000'000;  // PTO 1 s: no tail-loss probe in the way
  Network net(2, NetworkModel{}, chan);
  for (std::uint64_t i = 1; i <= 2; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  EXPECT_EQ(pump(net, 2), (std::vector<std::uint64_t>{1, 2}));
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.reorder_holds, 1u);
  EXPECT_EQ(t.chan.fast_retransmits, 1u);
  EXPECT_EQ(t.chan.retransmits, 1u);
  EXPECT_EQ(t.chan.dup_drops, 0u);
  EXPECT_EQ(t.chan.acks_sent, 2u);  // the gap report and the final ack
}

// A delivered message whose ack was lost: the tail-loss probe's report
// carries the cumulative ack and drains the queue, with no payload re-sent.
TEST(Channel, LostAckDrainedByReportWithoutPayloadRetransmit) {
  // data, request pass / ack dropped; report passes.
  Network net(2, NetworkModel{},
              lossy_with_seed(seed_dropping({false, false, false},
                                            {true, false, false})));
  net.send(make(0, 1, 1, 8));
  EXPECT_EQ(pump(net, 1).size(), 1u);
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.drops_injected, 1u);
  EXPECT_EQ(t.chan.retransmits, 0u);
  EXPECT_EQ(t.chan.retransmit_wire_bytes, 0u);
  EXPECT_EQ(t.chan.acks_sent, 3u);  // the lost ack, the request, the report
  EXPECT_EQ(t.messages, 1 + t.chan.acks_sent);
}

// Toward a failed peer nothing answers a probe, so no report ever comes:
// the node-down verdict still takes the full budget of timer expiries.
TEST(Channel, NodeDownVerdictNeedsTheFullTimerBudget) {
  ChannelConfig chan;
  chan.reliable = true;
  chan.ack_type = 5;
  chan.num_msg_types = 6;
  chan.rto_host_us = 2000;  // backoff 2 + 4 + 8 + 16 ms, then the verdict
  chan.max_retries = 3;
  Network net(2, NetworkModel{}, chan);
  std::vector<NodeId> down;
  net.set_node_down([&](NodeId n) { down.push_back(n); });
  net.fail_node(1);

  net.send(make(0, 1, 1, 8));
  while (down.empty()) {
    EXPECT_FALSE(net.try_recv(0).has_value());
    breathe();
  }
  EXPECT_EQ(down, std::vector<NodeId>{1});
  const auto t = net.traffic();
  EXPECT_EQ(t.chan.retransmits, chan.max_retries);
  EXPECT_EQ(t.chan.fast_retransmits, 0u);
  EXPECT_GE(t.chan.acks_sent, 1u);  // tail-loss probes, never answered
  EXPECT_EQ(t.chan.down_links, 1u);
}

// Every transmission duplicated: the receiver dedups, surfacing each
// message once, and counts the discarded copies.
TEST(Channel, DuplicatesDiscardedBySequenceDedup) {
  ChannelConfig chan;
  chan.fault.dup_ppm = 1000000;  // 100%: every packet arrives twice
  chan.fault.seed = 7;
  Network net(2, NetworkModel{}, chan);

  constexpr std::uint64_t kCount = 10;
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);
    breathe();
  }
  EXPECT_FALSE(net.try_recv(1).has_value());
  const auto t = net.traffic();
  EXPECT_GE(t.chan.dups_injected, kCount);
  EXPECT_GE(t.chan.dup_drops, kCount);
}

// Every transmission reordered: each packet parks until the link's next
// transmission overtakes it, so the raw wire delivers pairwise swapped.
// The receiver's gap hold restores FIFO, and the final parked packet is
// recovered by its own retransmission (the liveness edge: a retransmitted
// packet is the "next transmission" that flushes the limbo).
TEST(Channel, ReordersHeldAndReleasedInOrder) {
  ChannelConfig chan;
  chan.fault.reorder_ppm = 1000000;
  chan.fault.seed = 7;
  Network net(2, NetworkModel{}, chan);

  constexpr std::uint64_t kCount = 9;  // odd: the last packet parks alone
  for (std::uint64_t i = 0; i < kCount; ++i) {
    auto m = make(0, 1, 1, 8);
    m.seq = i;
    net.send(std::move(m));
  }
  std::uint64_t got = 0;
  while (got < kCount) {
    if (auto m = net.try_recv(1)) {
      ASSERT_EQ(m->seq, got);
      ++got;
    }
    net.try_recv(0);
    breathe();
  }
  const auto t = net.traffic();
  EXPECT_GT(t.chan.reorders_injected, 0u);
  EXPECT_GT(t.chan.reorder_holds, 0u);
  EXPECT_GE(t.chan.retransmits, 1u);  // the lone parked tail needed one
}

// Jitter delays arrivals within [0, jitter_ns), deterministically from the
// seed: two networks with identical knobs time-stamp identically.
TEST(Channel, JitterIsBoundedAndDeterministic) {
  ChannelConfig chan;
  chan.fault.jitter_ns = 5000;
  chan.fault.seed = 11;
  NetworkModel model;

  auto arrival = [&] {
    Network net(2, model, chan);
    net.send(make(0, 1, 1, 64, /*send_ts=*/1000));
    auto m = net.recv(1);
    EXPECT_TRUE(m.has_value());
    return m->arrive_ts_ns;
  };
  const std::uint64_t base = 1000 + model.transit_ns(64);
  const std::uint64_t a = arrival();
  EXPECT_GE(a, base);
  EXPECT_LT(a, base + chan.fault.jitter_ns);
  EXPECT_EQ(a, arrival());  // same seed, same draw, same wire
}

// Different seeds draw different fault schedules — the knob the chaos CI
// leg and the fuzzer turn to explore distinct loss patterns.
TEST(Channel, FaultStreamVariesWithSeed) {
  std::vector<bool> pattern[2];
  for (int s = 0; s < 2; ++s) {
    ChannelConfig chan;
    chan.fault.drop_ppm = 300000;
    chan.fault.seed = 100 + static_cast<std::uint64_t>(s);
    Network net(2, NetworkModel{}, chan);
    std::uint64_t dropped = 0;
    for (int i = 0; i < 64; ++i) {
      net.send(make(0, 1, 1, 8));
      const std::uint64_t now_dropped = net.traffic().chan.drops_injected;
      pattern[s].push_back(now_dropped != dropped);
      dropped = now_dropped;
    }
  }
  EXPECT_NE(pattern[0], pattern[1]);
}

// All knobs off: the channel is never constructed.  Messages travel the
// legacy path unsequenced and the channel counters stay zero — the
// pre-chaos wire, byte for byte.
TEST(Channel, DisabledChannelIsZeroCost) {
  ChannelConfig chan;  // reliable=false, no faults
  ASSERT_FALSE(chan.enabled());
  Network net(2, NetworkModel{}, chan);
  net.send(make(0, 1, 1, 100));
  auto m = net.recv(1);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->ch_seq, 0u);
  EXPECT_EQ(m->ch_ack, 0u);
  EXPECT_EQ(net.channel_unacked(0), 0u);
  const auto t = net.traffic();
  EXPECT_EQ(t.messages, 1u);
  EXPECT_EQ(t.chan.retransmits, 0u);
  EXPECT_EQ(t.chan.acks_sent, 0u);
  EXPECT_EQ(t.chan.drops_injected, 0u);
}

}  // namespace
}  // namespace now::sim
