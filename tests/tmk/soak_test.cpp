// Run-forever hardening: deterministic long-run suites driving thousands of
// simulated consistency epochs through barrier-free phases, asserting that
// with the on-demand GC ceiling set (TMK_META_CEILING_BYTES) every node's
// consistency-metadata footprint plateaus at ceiling + one exchange's
// in-flight slack, that it grows without bound with the ceiling off, and
// that final shared memory is byte-identical either way — the exchange may
// only change *when* metadata is reclaimed, never what the pages contain.
//
// Three workload shapes, matching the phases a long-running DSM program
// cycles through:
//  - a barrier-free lock loop (the TSP branch-and-bound shape): every
//    critical section closes one interval and nothing but the ceiling-
//    triggered exchange can ever reclaim it;
//  - the same chain with the migratory lock push on: pushed chunks are
//    retained for relaying, so the plateau additionally proves the
//    exchange floors prune the relay backlog;
//  - mixed lock / semaphore / condvar phases with no interior barrier:
//    the exchange must fold floors across nodes parked in every kind of
//    sync wait, not just lock chains.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

constexpr std::size_t kWpp = kPageSize / sizeof(std::uint64_t);

DsmConfig soak_cfg(std::uint32_t nodes, std::size_t ceiling,
                   std::size_t lock_push = 0) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.meta_ceiling_bytes = ceiling;
  // The loops below are barrier-free: only the on-demand exchange may
  // reclaim, so the plateau cannot be barrier-GC in disguise.
  c.gc_at_barriers = false;
  c.lock_push_bytes = lock_push;
  c.time.cpu_scale = 0.0;
  // The plateau slacks below are calibrated for a perfect wire: injected
  // faults stretch the GC exchange (retransmit timeouts) while the loop
  // keeps allocating, legitimately raising the in-flight peak.  Pin the
  // wire here; LossyWire* below turns faults back on with its own slack.
  c.net_fault = {};
  c.net_reliable = false;
  return c;
}

// Per-node footprint curve, probed by the node itself (the compute thread
// owns its diff caches, so the probe needs no cross-thread choreography).
struct NodeCurve {
  std::size_t early = 0;  // max over the first two probes
  std::size_t late = 0;   // max over the last two probes
  std::size_t peak = 0;   // max over the whole run
  std::size_t relay_peak = 0;
};

// The canonical run-forever workload: every node loops on the same lock,
// bumping the shared counter and rewriting a sliding window of a second
// page.  Each critical section closes one interval — one epoch of
// consistency metadata — and with nodes * iters in the thousands the log
// and diff store grow linearly unless something reclaims them mid-chain.
void soak_lock_loop(Tmk& tmk, std::size_t iters, std::size_t probe_stride,
                    std::vector<NodeCurve>* curves,
                    std::vector<std::uint64_t>* out) {
  gptr<std::uint64_t> state(kPageSize);
  if (tmk.id() == 0) {
    tmk.lock_acquire(0);
    state[0] = 1;
    state[kWpp] = 1;
    tmk.lock_release(0);
  }
  tmk.barrier();
  NodeCurve curve;
  const std::size_t total_probes = iters / probe_stride;
  std::size_t probes = 0;
  for (std::size_t i = 0; i < iters; ++i) {
    tmk.lock_acquire(0);
    const std::uint64_t v = state[0];
    state[0] = v + 1;
    for (std::size_t k = 0; k < 16; ++k)
      state[kWpp + 1 + (v + k) % 96] = v * 100 + k;
    tmk.lock_release(0);
    if (probe_stride != 0 && i % probe_stride == probe_stride - 1) {
      const auto f = tmk.node.meta_footprint();
      const std::size_t t = f.total_bytes();
      curve.peak = std::max(curve.peak, t);
      curve.relay_peak = std::max(curve.relay_peak, f.relay_bytes);
      if (probes < 2) curve.early = std::max(curve.early, t);
      if (probes + 2 >= total_probes) curve.late = std::max(curve.late, t);
      ++probes;
    }
    std::this_thread::yield();
  }
  tmk.barrier();
  if (curves != nullptr) (*curves)[tmk.id()] = curve;
  if (out != nullptr && tmk.id() == 0) {
    out->push_back(state[0]);
    for (std::size_t k = 0; k < 97; ++k) out->push_back(state[kWpp + k]);
  }
}

// The plateau, the growth and the bytes, on the plain pull path.
// ~1000 simulated epochs (4 nodes x 256 critical sections), all of them in
// one barrier-free stretch: without the ceiling nothing reclaims anything.
TEST(Soak, BarrierFreeLockLoopPlateausUnderCeiling) {
  constexpr std::size_t kIters = 256;
  constexpr std::size_t kStride = 16;
  constexpr std::size_t kCeiling = 12 * 1024;
  // One exchange's in-flight slack: the footprint keeps growing between the
  // initiation and the compute thread applying the departed floor (a few
  // critical sections' worth of records and diffs, bounded well under the
  // ceiling itself).
  constexpr std::size_t kSlack = 12 * 1024;

  auto run = [&](std::size_t ceiling, std::vector<NodeCurve>& curves,
                 std::vector<std::uint64_t>& mem) {
    curves.assign(4, {});
    DsmRuntime rt(soak_cfg(4, ceiling));
    rt.run_spmd(
        [&](Tmk& tmk) { soak_lock_loop(tmk, kIters, kStride, &curves, &mem); });
    return rt.total_stats();
  };

  std::vector<NodeCurve> on, off;
  std::vector<std::uint64_t> on_mem, off_mem;
  const auto s_on = run(kCeiling, on, on_mem);
  const auto s_off = run(0, off, off_mem);

  // Byte-identical final memory, and the counter's deterministic total.
  ASSERT_EQ(on_mem.size(), off_mem.size());
  EXPECT_EQ(on_mem, off_mem);
  EXPECT_EQ(on_mem[0], 1u + 4 * kIters);

  // The exchange machinery actually ran — and only with the ceiling set.
  EXPECT_GT(s_on.gc_exchanges, 0u);
  EXPECT_GT(s_on.gc_records_reclaimed, 0u);
  EXPECT_GT(s_on.gc_diff_bytes_reclaimed, 0u);
  EXPECT_EQ(s_off.gc_exchanges, 0u);
  EXPECT_EQ(s_off.gc_records_reclaimed, 0u);
  EXPECT_EQ(s_off.gc_diff_bytes_reclaimed, 0u);

  std::size_t on_peak = 0, off_peak = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    // Plateau: every probe on every node, over the whole run, stays under
    // ceiling + slack — the curve is flat, not merely slowly growing.
    EXPECT_LE(on[i].peak, kCeiling + kSlack) << "node " << i;
    // Unbounded off: the same probes keep climbing.
    EXPECT_GT(off[i].late, off[i].early) << "node " << i;
    on_peak = std::max(on_peak, on[i].peak);
    off_peak = std::max(off_peak, off[i].peak);
  }
  // And the separation is gross, not marginal: the ceiling-off run's
  // busiest node holds multiples of the ceiling-on bound.
  EXPECT_GT(off_peak, 2 * (kCeiling + kSlack));
  EXPECT_GT(off_peak, 2 * on_peak);
}

// The same chain as a migratory-push relay: with lock_push on, consumed
// chunks are retained (droppable) to relay down the chain, so the footprint
// includes a relay backlog only the exchange floors can prune mid-chain.
TEST(Soak, MigratoryChainWithLockPushPlateausAndPrunes) {
  constexpr std::size_t kIters = 192;
  constexpr std::size_t kStride = 16;
  constexpr std::size_t kCeiling = 16 * 1024;
  constexpr std::size_t kSlack = 16 * 1024;

  auto run = [&](std::size_t ceiling, std::vector<NodeCurve>& curves,
                 std::vector<std::uint64_t>& mem) {
    curves.assign(4, {});
    DsmRuntime rt(soak_cfg(4, ceiling, /*lock_push=*/16 * 1024));
    rt.run_spmd(
        [&](Tmk& tmk) { soak_lock_loop(tmk, kIters, kStride, &curves, &mem); });
    return rt.total_stats();
  };

  std::vector<NodeCurve> on, off;
  std::vector<std::uint64_t> on_mem, off_mem;
  const auto s_on = run(kCeiling, on, on_mem);
  const auto s_off = run(0, off, off_mem);

  ASSERT_EQ(on_mem.size(), off_mem.size());
  EXPECT_EQ(on_mem, off_mem);
  EXPECT_EQ(on_mem[0], 1u + 4 * kIters);

  // The chain kept pushing while the exchange reclaimed under it, and the
  // floors pruned retained relay chunks instead of letting them ride the
  // cache forever.
  EXPECT_GT(s_on.lock_pushes_sent, 0u);
  EXPECT_GT(s_on.gc_exchanges, 0u);
  EXPECT_GT(s_on.relay_chunks_pruned, 0u);
  EXPECT_GT(s_on.relay_bytes_pruned, 0u);
  EXPECT_EQ(s_off.gc_exchanges, 0u);

  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_LE(on[i].peak, kCeiling + kSlack) << "node " << i;
    EXPECT_GT(off[i].late, off[i].early) << "node " << i;
  }
}

// A node that has finished its share and parked at the closing barrier
// learns no more records, while the exchange's floor is the minimum of every
// node's knowledge and its ack the minimum of every validated floor.  Unless
// the exchange hands the parked node the others' records, and the node keeps
// applying departures while it waits, the busy nodes' footprint grows for
// the rest of the run.  Here node 3 parks at once, by construction.
TEST(Soak, NodeParkedAtABarrierKeepsTheCeiling) {
  constexpr std::size_t kIters = 512;
  constexpr std::size_t kStride = 16;
  constexpr std::size_t kCeiling = 12 * 1024;
  // Peaks sit near 12 KB; a busy node descheduled by the host stalls the
  // ack for a while, and under heavy host load a rare peak reaches ~39 KB.
  // Without the hand-off, or without the barrier-wait apply, every run
  // ends above 65 KB.
  constexpr std::size_t kSlack = 36 * 1024;

  std::vector<NodeCurve> curves(4);
  std::vector<std::uint64_t> mem;
  DsmRuntime rt(soak_cfg(4, kCeiling));
  rt.run_spmd([&](Tmk& tmk) {
    soak_lock_loop(tmk, tmk.id() == 3 ? 0 : kIters, kStride, &curves, &mem);
  });
  ASSERT_FALSE(mem.empty());
  EXPECT_EQ(mem[0], 1u + 3 * kIters);
  EXPECT_GT(rt.total_stats().gc_exchanges, 0u);
  for (std::uint32_t i = 0; i < 3; ++i)
    EXPECT_LE(curves[i].peak, kCeiling + kSlack) << "node " << i;
}

// Mixed sync phases with no interior barrier: rotating lock critical
// sections, a semaphore producer/consumer handoff and a periodic condvar
// gate.  Floors must fold across nodes parked in sema_wait and cond_wait —
// the stale-vt hazard the manager-delta cut exists for — while the ceiling
// keeps the footprint flat across hundreds of phases.
TEST(Soak, MixedSemaCondPhasesPlateauUnderCeiling) {
  constexpr std::size_t kPhases = 96;
  // The mixed workload dirties few words per phase (~13KB unbounded meta at
  // 96 phases), so the ceiling sits lower than the lock-loop tests'.
  constexpr std::size_t kCeiling = 6 * 1024;
  constexpr std::size_t kSlack = 6 * 1024;
  constexpr std::uint32_t kNodes = 4;

  auto run = [&](std::size_t ceiling, std::vector<NodeCurve>& curves,
                 std::vector<std::uint64_t>& mem) {
    curves.assign(kNodes, {});
    DsmRuntime rt(soak_cfg(kNodes, ceiling));
    rt.run_spmd([&](Tmk& tmk) {
      gptr<std::uint64_t> state(kPageSize);
      const std::uint32_t id = tmk.id();
      if (id == 0) {
        tmk.lock_acquire(0);
        state[0] = 1;
        tmk.lock_release(0);
      }
      tmk.barrier();
      NodeCurve curve;
      for (std::size_t p = 0; p < kPhases; ++p) {
        // Lock phase: every node's critical section closes an interval.
        tmk.lock_acquire(0);
        const std::uint64_t v = state[0];
        state[0] = v + 1;
        state[1 + (v % 32)] = v;
        tmk.lock_release(0);

        // Semaphore phase: a rotating producer writes a word and releases
        // the consumers; the sema's release->acquire edge must carry the
        // write even after exchange floors truncated the manager's log.
        // One sema per consumer: a shared counting sema would let a slow
        // consumer's phase-p wait eat a token an *earlier* phase's producer
        // posted, and that token's acquire edge predates phase p's write.
        // Per-consumer tokens are posted in phase order (phase p+1's
        // producer first consumed a phase-p token), so the p-th wait always
        // pairs with the p-th post.
        const std::uint32_t producer = static_cast<std::uint32_t>(p % kNodes);
        if (id == producer) {
          state[64 + p % 32] = 1000 + p;
          for (std::uint32_t i = 0; i < kNodes; ++i)
            if (i != producer) tmk.sema_signal(10 + i);
        } else {
          tmk.sema_wait(10 + id);
          EXPECT_EQ(state[64 + p % 32], 1000 + p) << "phase " << p;
        }

        // Condvar gate every 8th phase: a rotating leader flips the phase
        // flag under the lock and broadcasts; the waiters' parked vector
        // times are exactly what the exchange floor may overtake.
        if (p % 8 == 7) {
          const std::uint32_t leader =
              static_cast<std::uint32_t>((p / 8) % kNodes);
          const std::size_t slot = 128 + (p / 8);
          if (id == leader) {
            tmk.lock_acquire(2);
            state[slot] = p + 1;
            tmk.cond_broadcast(2, 0);
            tmk.lock_release(2);
          } else {
            tmk.lock_acquire(2);
            while (state[slot] == 0) tmk.cond_wait(2, 0);
            tmk.lock_release(2);
          }
        }

        const auto f = tmk.node.meta_footprint();
        const std::size_t t = f.total_bytes();
        curve.peak = std::max(curve.peak, t);
        if (p < 8) curve.early = std::max(curve.early, t);
        if (p + 8 >= kPhases) curve.late = std::max(curve.late, t);
        std::this_thread::yield();
      }
      tmk.barrier();
      curves[id] = curve;
      if (id == 0) {
        mem.push_back(state[0]);
        for (std::size_t k = 1; k < 256; ++k) mem.push_back(state[k]);
      }
    });
    return rt.total_stats();
  };

  std::vector<NodeCurve> on, off;
  std::vector<std::uint64_t> on_mem, off_mem;
  const auto s_on = run(kCeiling, on, on_mem);
  const auto s_off = run(0, off, off_mem);

  ASSERT_EQ(on_mem.size(), off_mem.size());
  EXPECT_EQ(on_mem, off_mem);
  EXPECT_EQ(on_mem[0], 1u + kNodes * kPhases);

  EXPECT_GT(s_on.gc_exchanges, 0u);
  EXPECT_GT(s_on.sema_ops, 0u);
  EXPECT_GT(s_on.cond_ops, 0u);
  EXPECT_EQ(s_off.gc_exchanges, 0u);

  for (std::uint32_t i = 0; i < kNodes; ++i) {
    EXPECT_LE(on[i].peak, kCeiling + kSlack) << "node " << i;
    EXPECT_GT(off[i].late, off[i].early) << "node " << i;
  }
}

// The ceiling and the lossy wire together: the migratory relay chain runs
// over a link dropping 1% / duplicating 0.5% / reordering 1% of packets,
// with the retransmission channel underneath.  Final memory must stay
// byte-identical to a perfect-wire run, the exchange must still fire, and
// the footprint must still plateau — with wider slack, because a dropped
// exchange message stalls reclamation for a retransmit timeout while the
// loop keeps allocating (that stretch is the protocol working, not a leak).
TEST(Soak, LossyWireMigratoryChainPlateausByteIdentical) {
  constexpr std::size_t kIters = 192;
  constexpr std::size_t kStride = 16;
  constexpr std::size_t kCeiling = 16 * 1024;
  // Perfect-wire peaks sit near 2x ceiling; the observed lossy-wire peak is
  // ~2.5x (retransmit-stretched exchanges).  4x still separates grossly
  // from the unbounded run, which climbs past 8x by the end of the chain.
  constexpr std::size_t kChaosSlack = 3 * kCeiling;

  auto run = [&](const sim::FaultConfig& fault, std::vector<NodeCurve>& curves,
                 std::vector<std::uint64_t>& mem, sim::TrafficSnapshot& traffic) {
    curves.assign(4, {});
    DsmConfig c = soak_cfg(4, kCeiling, /*lock_push=*/16 * 1024);
    c.net_fault = fault;
    DsmRuntime rt(c);
    rt.run_spmd(
        [&](Tmk& tmk) { soak_lock_loop(tmk, kIters, kStride, &curves, &mem); });
    traffic = rt.traffic();
    return rt.total_stats();
  };

  sim::FaultConfig chaos;
  chaos.drop_ppm = 10000;
  chaos.dup_ppm = 5000;
  chaos.reorder_ppm = 10000;
  chaos.jitter_ns = 200'000;
  chaos.seed = 0x50a4u;

  std::vector<NodeCurve> lossy, clean;
  std::vector<std::uint64_t> lossy_mem, clean_mem;
  sim::TrafficSnapshot lossy_t, clean_t;
  const auto s_lossy = run(chaos, lossy, lossy_mem, lossy_t);
  const auto s_clean = run({}, clean, clean_mem, clean_t);

  // The wire really was lossy, and the channel really recovered it.
  EXPECT_GT(lossy_t.chan.drops_injected, 0u);
  EXPECT_GT(lossy_t.chan.dup_drops, 0u);
  EXPECT_GT(lossy_t.chan.retransmits, 0u);
  EXPECT_EQ(clean_t.chan.drops_injected, 0u);
  EXPECT_EQ(clean_t.chan.retransmits, 0u);

  // Exactly-once delivery restored: byte-identical final memory and the
  // deterministic counter total, same as the perfect wire.
  ASSERT_EQ(lossy_mem.size(), clean_mem.size());
  EXPECT_EQ(lossy_mem, clean_mem);
  EXPECT_EQ(lossy_mem[0], 1u + 4 * kIters);

  // The exchange still fired and still pruned the relay backlog.
  EXPECT_GT(s_lossy.gc_exchanges, 0u);
  EXPECT_GT(s_lossy.relay_chunks_pruned, 0u);
  EXPECT_GT(s_clean.gc_exchanges, 0u);

  for (std::uint32_t i = 0; i < 4; ++i)
    EXPECT_LE(lossy[i].peak, kCeiling + kChaosSlack) << "node " << i;
}

}  // namespace
}  // namespace now::tmk
