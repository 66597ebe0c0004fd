// The requester-side diff cache: structure-level behavior (hit/miss, FIFO
// eviction under the byte budget, GC pinning) and the protocol-level
// invariant that with barrier-time GC disabled the cache never changes what
// the simulation computes or transmits — without GC every (writer, seq)
// notice is learned and fetched at most once, so the hit counter must read
// zero and traffic must be identical to a run with the cache disabled.
// (With GC enabled the cache is load-bearing; tmk_gc_test covers that.)
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <vector>

#include "tmk/arena.h"
#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DiffBytes chunk(std::size_t n, std::uint8_t fill) { return DiffBytes(n, fill); }

TEST(PageDiffCache, MissThenHit) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  EXPECT_EQ(c.find(1, 1), nullptr);
  c.insert(1, 1, {chunk(10, 0xaa)}, 1024, total);
  const auto* got = c.find(1, 1);
  ASSERT_NE(got, nullptr);
  ASSERT_EQ(got->size(), 1u);
  EXPECT_EQ((*got)[0], chunk(10, 0xaa));
  EXPECT_EQ(c.bytes(), 10u);
  EXPECT_EQ(c.entries(), 1u);
}

TEST(PageDiffCache, DistinctWritersAndSeqsAreDistinctKeys) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(4, 1)}, 1024, total);
  c.insert(1, 2, {chunk(4, 2)}, 1024, total);
  c.insert(2, 1, {chunk(4, 3)}, 1024, total);
  EXPECT_EQ((*c.find(1, 1))[0][0], 1);
  EXPECT_EQ((*c.find(1, 2))[0][0], 2);
  EXPECT_EQ((*c.find(2, 1))[0][0], 3);
}

TEST(PageDiffCache, InsertIsIdempotent) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(8, 1)}, 1024, total);
  c.insert(1, 1, {chunk(8, 9)}, 1024, total);  // duplicate key: first copy wins
  EXPECT_EQ((*c.find(1, 1))[0][0], 1);
  EXPECT_EQ(c.bytes(), 8u);
}

TEST(PageDiffCache, FifoEvictionUnderBudget) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(40, 1)}, 100, total);
  c.insert(1, 2, {chunk(40, 2)}, 100, total);
  EXPECT_EQ(c.bytes(), 80u);
  c.insert(1, 3, {chunk(40, 3)}, 100, total);  // evicts the oldest, (1,1)
  EXPECT_EQ(c.find(1, 1), nullptr);
  ASSERT_NE(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 3), nullptr);
  EXPECT_EQ(c.bytes(), 80u);
}

TEST(PageDiffCache, OversizedEntryIsNotCached) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(50, 1)}, 100, total);
  c.insert(1, 2, {chunk(200, 2)}, 100, total);  // bigger than the whole budget
  EXPECT_EQ(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 1), nullptr);  // and nothing was evicted for it
  EXPECT_EQ(c.bytes(), 50u);
}

TEST(PageDiffCache, MultiChunkEntryCountsAllBytes) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(3, 7, {chunk(10, 1), chunk(20, 2)}, 1024, total);
  EXPECT_EQ(c.bytes(), 30u);
  ASSERT_EQ(c.find(3, 7)->size(), 2u);
}

TEST(PageDiffCache, GcInsertIgnoresBudgetAndEviction) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert_gc(1, 1, {chunk(500, 1)}, total);  // far beyond any budget given below
  ASSERT_NE(c.find(1, 1), nullptr);
  EXPECT_EQ(c.bytes(), 500u);
  // FIFO inserts under a budget the pinned entry already exceeds must not
  // evict it: only FIFO-ordered entries are eviction victims.
  c.insert(2, 1, {chunk(40, 2)}, 100, total);
  c.insert(2, 2, {chunk(40, 3)}, 100, total);
  c.insert(2, 3, {chunk(40, 4)}, 100, total);
  ASSERT_NE(c.find(1, 1), nullptr);  // pin survived
  EXPECT_EQ(c.find(2, 1), nullptr);  // FIFO entries evicted among themselves
}

TEST(PageDiffCache, GcInsertPromotesFifoEntryToPinned) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(40, 1)}, 100, total);   // budgeted, evictable
  c.insert_gc(1, 1, {chunk(40, 1)}, total);     // same key: must become a pin
  // Enough FIFO churn to evict anything still in eviction order.
  c.insert(2, 1, {chunk(40, 2)}, 100, total);
  c.insert(2, 2, {chunk(40, 3)}, 100, total);
  c.insert(2, 3, {chunk(40, 4)}, 100, total);
  ASSERT_NE(c.find(1, 1), nullptr);  // survived: promotion exempted it
}

TEST(PageDiffCache, EraseReleasesEntry) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert_gc(1, 1, {chunk(100, 1)}, total);
  c.insert(2, 1, {chunk(10, 2)}, 1024, total);
  c.erase(1, 1, total);
  c.erase(9, 9, total);  // absent: no-op
  EXPECT_EQ(c.find(1, 1), nullptr);
  EXPECT_EQ(c.bytes(), 10u);
  EXPECT_EQ(c.entries(), 1u);
  c.erase(2, 1, total);
  EXPECT_EQ(c.bytes(), 0u);
  EXPECT_EQ(total.load(), 0u);
}

TEST(PageDiffCache, EraseThenReinsertEvictsInTrueInsertionOrder) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(40, 1)}, 120, total);
  c.insert(1, 2, {chunk(40, 2)}, 120, total);
  c.erase(1, 1, total);
  c.insert(1, 1, {chunk(40, 1)}, 120, total);  // now younger than (1,2)
  c.insert(1, 3, {chunk(40, 3)}, 120, total);  // fills the budget exactly
  c.insert(1, 4, {chunk(40, 4)}, 120, total);  // one victim: the oldest
  EXPECT_EQ(c.find(1, 2), nullptr);
  ASSERT_NE(c.find(1, 1), nullptr);  // its first insertion no longer counts
  ASSERT_NE(c.find(1, 3), nullptr);
  ASSERT_NE(c.find(1, 4), nullptr);
  EXPECT_EQ(c.bytes(), 120u);
  EXPECT_EQ(total.load(), 120u);
}

TEST(PageDiffCache, PinsAndGcEntriesAreNeverEvicted) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(30, 1)}, 100, total);  // oldest, then pinned in place
  ASSERT_TRUE(c.pin_existing(1, 1));
  c.insert_gc(2, 1, {chunk(30, 2)}, total);    // pinned from the start
  // Churn far past the budget: only the budgeted entries may be victims.
  for (std::uint32_t s = 1; s <= 20; ++s) {
    c.insert(3, s, {chunk(20, 3)}, 100, total);
    ASSERT_NE(c.find(1, 1), nullptr) << "pin evicted at insert " << s;
    ASSERT_NE(c.find(2, 1), nullptr) << "gc entry evicted at insert " << s;
    ASSERT_LE(c.bytes(), 100u);
  }
  EXPECT_EQ(c.pinned_bytes(), 60u);
  // 40 budgeted bytes remain beside the 60 pinned: (3,19) and (3,20).
  EXPECT_EQ(c.entries(), 4u);
  EXPECT_NE(c.find(3, 20), nullptr);
  EXPECT_NE(c.find(3, 19), nullptr);
  EXPECT_EQ(total.load(), c.bytes());
}

TEST(PageDiffCache, PromoteToPinKeepsByteAccounting) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  c.insert(1, 1, {chunk(40, 1), chunk(8, 1)}, 100, total);
  c.insert(1, 2, {chunk(10, 2)}, 100, total);
  c.mark_relay(1, 1);
  EXPECT_EQ(c.relay_bytes(), 48u);
  ASSERT_TRUE(c.pin_existing(1, 1));
  ASSERT_TRUE(c.pin_existing(1, 1));  // a second promotion counts nothing
  c.insert_gc(1, 1, {chunk(40, 1), chunk(8, 1)}, total);  // held: no copy
  EXPECT_EQ(c.entries(), 2u);
  EXPECT_EQ(c.bytes(), 58u);
  EXPECT_EQ(c.pinned_bytes(), 48u);
  EXPECT_EQ(total.load(), 58u);
  // Pins survive a prune whose floor covers them; the droppable entry not.
  std::size_t pruned = 0;
  EXPECT_EQ(c.prune_below(VectorTime{0, 5}, total, &pruned), 1u);
  EXPECT_EQ(pruned, 10u);
  EXPECT_EQ(c.bytes(), 48u);
  EXPECT_EQ(total.load(), 48u);
  c.erase(1, 1, total);
  EXPECT_EQ(c.bytes(), 0u);
  EXPECT_EQ(c.pinned_bytes(), 0u);
  EXPECT_EQ(c.relay_bytes(), 0u);
  EXPECT_EQ(total.load(), 0u);
}

// The lock-push relay retains a chain's history: dsm-irregular with
// TMK_LOCK_PUSH_BYTES=16384 peaks at 1450 entries on one page.  Ordering,
// pins and accounting must hold at that size too.
TEST(PageDiffCache, RelayScaleCacheKeepsOrderPinsAndAccounting) {
  PageDiffCache c;
  PageDiffCache::Total total{0};
  constexpr std::size_t kBudget = 16384;
  for (std::uint32_t s = 1; s <= 1500; ++s)
    ASSERT_TRUE(c.insert(1, s, {chunk(8, 1)}, kBudget, total));
  for (std::uint32_t s = 10; s <= 1500; s += 10) ASSERT_TRUE(c.pin_existing(1, s));
  for (std::uint32_t s = 7; s <= 1500; s += 7)
    if (s % 10 != 0) c.erase(1, s, total);
  // 1500 - 193 erased entries of 8 B, 150 of them pinned.
  EXPECT_EQ(c.entries(), 1307u);
  EXPECT_EQ(c.bytes(), 1307u * 8);
  EXPECT_EQ(c.pinned_bytes(), 150u * 8);
  // Room for this entry takes exactly the three oldest droppable ones.
  const std::size_t big = kBudget - c.bytes() + 3 * 8;
  ASSERT_TRUE(c.insert(2, 1, {chunk(big, 2)}, kBudget, total));
  for (std::uint32_t s : {1u, 2u, 3u}) EXPECT_EQ(c.find(1, s), nullptr) << s;
  EXPECT_NE(c.find(1, 4), nullptr);
  ASSERT_TRUE(c.insert(2, 2, {chunk(8, 2)}, kBudget, total));
  EXPECT_EQ(c.find(1, 4), nullptr);
  EXPECT_NE(c.find(1, 5), nullptr);
  for (std::uint32_t s = 10; s <= 1500; s += 10) ASSERT_NE(c.find(1, s), nullptr) << s;
  // A floor covering writer 1 drops every droppable entry of it, no pin.
  std::size_t pruned = 0;
  EXPECT_EQ(c.prune_below(VectorTime{0, 1500, 0}, total, &pruned), 1307u - 150 - 4);
  EXPECT_EQ(c.entries(), 152u);
  EXPECT_EQ(c.bytes(), 150u * 8 + big + 8);
  EXPECT_EQ(total.load(), c.bytes());
}

// A release write-protects the interval's dirty pages; N contiguous pages
// are one run and so one mprotect, not N.
TEST(PageRuns, CloseIntervalProtectsContiguousDirtyPagesInOneCall) {
  constexpr std::size_t kPages = 16;
  DsmConfig c;
  c.num_nodes = 1;
  c.heap_bytes = 4 << 20;
  c.time.cpu_scale = 0.0;
  DsmRuntime rt(c);
  std::uint64_t calls = 0;
  std::uint64_t twins = 0;
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint8_t> buf = tmk.alloc_array<std::uint8_t>((kPages + 1) * kPageSize);
    const std::size_t first = (buf.offset() + kPageSize - 1) / kPageSize * kPageSize;
    gptr<std::uint8_t> base(first);
    tmk.barrier();  // closes whatever interval the allocation opened
    tmk.lock_acquire(0);
    for (std::size_t p = 0; p < kPages; ++p) base[p * kPageSize] = 1;
    const std::uint64_t twins0 = tmk.node.stats().twins_created.load();
    const std::uint64_t before = tmk.rt.arena().mprotect_calls();
    tmk.lock_release(0);
    calls = tmk.rt.arena().mprotect_calls() - before;
    twins = twins0;
  });
  EXPECT_GE(twins, kPages);  // every page really was dirty
  EXPECT_EQ(calls, 1u);
}

// The mprotect budget of validating a page.  Page protection guards only the
// application's accesses; the protocol patches a page through the arena's
// backing file while the page stays PROT_NONE.  So bringing a page up to
// date costs one call (none -> read), whether a read fault fetches the
// diffs, a push lands them or a checkpoint stages the page, and a page the
// protocol patches but leaves invalid costs none.  Every knob that could
// add protocol activity to these runs is pinned off.
DsmConfig budget_cfg() {
  DsmConfig c;
  c.num_nodes = 2;
  c.heap_bytes = 4 << 20;
  c.time.cpu_scale = 0.0;
  c.gc_at_barriers = false;
  c.prefetch_pages = 0;
  c.update_mode = false;
  c.lock_push_bytes = 0;
  c.meta_ceiling_bytes = 0;
  c.ckpt_every = 0;
  return c;
}

TEST(PageRuns, DiffFetchingReadFaultMakesOneMprotectCall) {
  constexpr std::size_t kWords = kPageSize / sizeof(std::uint64_t);
  DsmRuntime rt(budget_cfg());
  std::uint64_t calls = 0, fetches = 0, wrong = 0;
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> page(kPageSize);
    if (tmk.id() == 0)
      for (std::size_t k = 0; k < kWords; k += 3) page[k] = k * 7 + 1;
    tmk.barrier();
    if (tmk.id() == 1) {  // node 0 idles in the barrier below meanwhile
      const std::uint64_t fetches0 = tmk.node.stats().diff_fetches.load();
      const std::uint64_t before = tmk.rt.arena().mprotect_calls();
      volatile std::uint64_t first = page[0];  // the fault
      (void)first;
      calls = tmk.rt.arena().mprotect_calls() - before;
      fetches = tmk.node.stats().diff_fetches.load() - fetches0;
      for (std::size_t k = 0; k < kWords; ++k)
        wrong += page[k] != (k % 3 == 0 ? k * 7 + 1 : 0);
    }
    tmk.barrier();
  });
  EXPECT_EQ(fetches, 1u);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(wrong, 0u);
}

// Node 0 rewrites a page every epoch that node 1 never reads, so node 1's
// GC pins pile up until the pass applies the backlog to the invalid page.
// With a budget the pins never exceed, nothing is applied early; both runs
// must make the same calls, since the early apply makes none.
struct NeverReadRun {
  std::uint64_t calls = 0;
  std::uint64_t gc_applied = 0;  // diffs node 1 applied before its read
  std::uint64_t wrong = 0;       // bytes of node 1's copy off the writer's
};

NeverReadRun never_read_run(std::size_t cache_budget) {
  constexpr int kEpochs = 20;
  DsmConfig c = budget_cfg();
  c.gc_at_barriers = true;
  c.diff_cache_bytes_per_page = cache_budget;
  DsmRuntime rt(c);
  std::vector<std::uint8_t> want(kPageSize, 0);
  NeverReadRun r;
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint8_t> p(kPageSize);
    for (int e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0)
        for (std::size_t i = 0; i < 700; ++i) {
          const std::size_t at = (static_cast<std::size_t>(e) * 97 + i * 5) % kPageSize;
          p[at] = static_cast<std::uint8_t>(e + i);
          want[at] = static_cast<std::uint8_t>(e + i);
        }
      tmk.barrier();
    }
    if (tmk.id() == 1) {
      r.gc_applied = tmk.node.stats().diffs_applied.load();
      for (std::size_t i = 0; i < kPageSize; ++i) r.wrong += p[i] != want[i];
    }
    tmk.barrier();
  });
  r.calls = rt.arena().mprotect_calls();
  return r;
}

TEST(PageRuns, OverBudgetGcApplyMakesNoMprotectCall) {
  const NeverReadRun tight = never_read_run(2048);
  const NeverReadRun roomy = never_read_run(1 << 20);
  EXPECT_GT(tight.gc_applied, 0u);  // the over-budget apply really ran
  EXPECT_EQ(roomy.gc_applied, 0u);
  EXPECT_EQ(tight.calls, roomy.calls);
  EXPECT_EQ(tight.wrong, 0u);
  EXPECT_EQ(roomy.wrong, 0u);
}

// Producer-consumer under the update protocol: node 0 rewrites a page every
// epoch and node 1 reads it.  An epoch's calls are node 0's write upgrade
// and interval close, node 1's invalidation, and the one validation of
// node 1's copy — by its read fault (a pull, or the probe fault of an armed
// landing) or by a landing that validates outright.  An armed landing, and
// a checkpoint staging an armed page, add nothing, so every epoch after the
// first makes exactly 4 calls.  Node 1 samples the counter after its read,
// while node 0 idles in the barrier.
struct PushEpoch {
  std::uint64_t calls = 0;       // counter after node 1's read
  std::uint64_t read_calls = 0;  // calls made by node 1's read
  std::uint64_t faults = 0;      // node 1's read faults so far
  std::uint64_t push_hits = 0;   // node 1's update-push hits so far
};

std::vector<PushEpoch> producer_consumer_epochs(std::uint32_t ckpt_every,
                                                std::uint64_t* wrong) {
  constexpr std::size_t kEpochs = 16;
  DsmConfig c = budget_cfg();
  c.update_mode = true;
  c.ckpt_every = ckpt_every;
  DsmRuntime rt(c);
  std::vector<PushEpoch> out;
  rt.run_spmd([&](Tmk& tmk) {
    gptr<std::uint64_t> page(kPageSize);
    for (std::size_t e = 0; e < kEpochs; ++e) {
      if (tmk.id() == 0)
        for (std::size_t k = 0; k < 32; ++k) page[k] = e * 1000 + k;
      tmk.barrier();
      if (tmk.id() == 1) {
        PushEpoch p;
        const std::uint64_t before = tmk.rt.arena().mprotect_calls();
        for (std::size_t k = 0; k < 32; ++k) *wrong += page[k] != e * 1000 + k;
        p.calls = tmk.rt.arena().mprotect_calls();
        p.read_calls = p.calls - before;
        p.faults = tmk.node.stats().read_faults.load();
        p.push_hits = tmk.node.stats().update_push_hits.load();
        out.push_back(p);
      }
      tmk.barrier();
    }
  });
  return out;
}

// Counts each kind of epoch after the first and checks its calls.
struct EpochKinds {
  int pulled = 0, validated = 0, armed = 0, staged = 0;
};

EpochKinds check_push_epochs(const std::vector<PushEpoch>& epochs) {
  EpochKinds k;
  for (std::size_t e = 1; e < epochs.size(); ++e) {
    const bool fault = epochs[e].faults > epochs[e - 1].faults;
    const bool hit = epochs[e].push_hits > epochs[e - 1].push_hits;
    EXPECT_EQ(epochs[e].calls - epochs[e - 1].calls, 4u) << "epoch " << e;
    EXPECT_EQ(epochs[e].read_calls, fault ? 1u : 0u) << "epoch " << e;
    if (fault && hit) ++k.armed;   // landed armed; the read is the probe
    else if (fault) ++k.pulled;    // the read fault fetched the diff
    else if (hit) ++k.validated;   // the landing validated the page
    else ++k.staged;               // the checkpoint fetched the diff
  }
  return k;
}

TEST(PageRuns, UpdatePushLandingsMakeNoExtraMprotectCall) {
  std::uint64_t wrong = 0;
  const EpochKinds k = check_push_epochs(producer_consumer_epochs(0, &wrong));
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(k.pulled, 0);
  EXPECT_GT(k.validated, 0);
  EXPECT_GT(k.armed, 0);
  EXPECT_EQ(k.staged, 0);
}

// Checkpoint staging at every barrier: an armed page is staged through the
// arena's file, without mapping it.
TEST(PageRuns, CheckpointStagingMakesNoMprotectCall) {
  std::uint64_t wrong = 0;
  const EpochKinds k = check_push_epochs(producer_consumer_epochs(1, &wrong));
  EXPECT_EQ(wrong, 0u);
  EXPECT_GT(k.armed, 0);
}

// A failed mprotect names the node, the page range and errno, and on ENOMEM
// (a run crossing unmapped pages here; in practice the per-process VMA
// limit) points at vm.max_map_count.
TEST(PageRuns, MprotectFailureReportsRangeAndMapCountHint) {
  EXPECT_DEATH(
      {
        Arena arena(1, 16 * kPageSize);
        ::munmap(arena.page_ptr(0, 8), kPageSize);
        arena.protect_range(0, 4, 8, Arena::Prot::kRead);
      },
      "node 0 pages \\[4, 12\\) failed: .*vm\\.max_map_count");
}

// ---------------------------------------------------------------------------
// Protocol level: the cache must be invisible with barrier GC off AND
// multi-page prefetch off (each of those is a deliberate consumer; see
// tmk_gc_test and tmk_prefetch_test).  With prefetch on, the cache is
// load-bearing even without GC: neighbor faults hit the prefetched entries.
// ---------------------------------------------------------------------------

DsmConfig cfg(std::uint32_t nodes, std::size_t cache_bytes,
              std::size_t prefetch = 0) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  c.diff_cache_bytes_per_page = cache_bytes;
  c.prefetch_pages = prefetch;
  c.gc_at_barriers = false;  // GC makes the cache load-bearing; see tmk_gc_test
  c.update_mode = false;     // so does the update protocol; see tmk_update_test
  c.time.cpu_scale = 0.0;  // measured host time out; virtual time deterministic
  return c;
}

void multi_writer_workload(Tmk& tmk) {
  gptr<std::uint64_t> page(kPageSize);  // 512 slots, one page, all writers
  const std::size_t base = tmk.id() * 32;
  for (std::uint32_t round = 0; round < 3; ++round) {
    for (std::size_t k = 0; k < 32; ++k)
      page[base + k] = tmk.id() * 1000 + round * 100 + k;
    tmk.barrier();
    for (std::uint32_t n = 0; n < tmk.nprocs(); ++n)
      for (std::size_t k = 0; k < 32; ++k)
        ASSERT_EQ(page[static_cast<std::size_t>(n) * 32 + k],
                  n * 1000 + round * 100 + k);
    tmk.barrier();
  }
}

TEST(DiffCacheProtocol, SimulatedMetricsUnchangedByCache) {
  sim::TrafficSnapshot traffic_on, traffic_off;
  std::uint64_t vtime_on = 0, vtime_off = 0;
  DsmStatsSnapshot stats_on, stats_off;
  // Cross-run traffic identity is a perfect-wire property: injected faults
  // draw from per-link transmission counters, so two runs with different
  // message schedules fault differently and their totals diverge.  Pin the
  // wire; the chaos CI leg's robustness proof lives in the fuzzer matrix.
  {
    DsmConfig c = cfg(4, 16 * 1024);
    c.net_fault = {};
    c.net_reliable = false;
    DsmRuntime rt(c);
    rt.run_spmd(multi_writer_workload);
    traffic_on = rt.traffic();
    vtime_on = rt.virtual_time_ns();
    stats_on = rt.total_stats();
  }
  {
    DsmConfig c = cfg(4, 1);  // a budget no chunk fits in
    c.net_fault = {};
    c.net_reliable = false;
    DsmRuntime rt(c);
    rt.run_spmd(multi_writer_workload);
    traffic_off = rt.traffic();
    vtime_off = rt.virtual_time_ns();
    stats_off = rt.total_stats();
  }
  // No notice is ever learned twice in the current protocol, so with both
  // deliberate consumers (GC, prefetch) off the cache must neither hit nor
  // change a single simulated metric against a cache that can hold nothing.
  EXPECT_EQ(stats_on.diff_cache_hits, 0u);
  EXPECT_EQ(stats_on.diff_cache_bytes_saved, 0u);
  EXPECT_EQ(stats_on.prefetch_hits, 0u);
  EXPECT_EQ(traffic_on.messages, traffic_off.messages);
  EXPECT_EQ(traffic_on.payload_bytes, traffic_off.payload_bytes);
  EXPECT_EQ(traffic_on.wire_bytes, traffic_off.wire_bytes);
  EXPECT_EQ(stats_on.diff_fetches, stats_off.diff_fetches);
  EXPECT_EQ(stats_on.diffs_applied, stats_off.diffs_applied);
  // Virtual clocks are only loosely reproducible run-to-run (the compute and
  // service threads race additive against max-style advances on the same
  // clock), so compare with a tolerance rather than exactly.
  const double hi = static_cast<double>(std::max(vtime_on, vtime_off));
  const double lo = static_cast<double>(std::min(vtime_on, vtime_off));
  EXPECT_LT((hi - lo) / hi, 0.10);
}

// With multi-page prefetch enabled the zero-hit expectation flips even with
// GC off: every node's fault on the shared page cannot prefetch (single
// page), so spread the writers over several pages — neighbor faults must now
// be served from prefetched entries, with fewer messages and the same
// simulated work.
TEST(DiffCacheProtocol, PrefetchMakesTheCacheLoadBearingWithoutGc) {
  auto workload = [](Tmk& tmk) {
    constexpr std::size_t kPages = 8;
    constexpr std::size_t kWordsPerPage = kPageSize / sizeof(std::uint64_t);
    gptr<std::uint64_t> base(kPageSize);
    if (tmk.id() == 0)
      for (std::size_t pg = 0; pg < kPages; ++pg)
        for (std::size_t k = 0; k < 8; ++k)
          base[pg * kWordsPerPage + k] = pg * 100 + k;
    tmk.barrier();
    if (tmk.id() == 1)
      for (std::size_t pg = 0; pg < kPages; ++pg)
        for (std::size_t k = 0; k < 8; ++k)
          ASSERT_EQ(base[pg * kWordsPerPage + k], pg * 100 + k);
    tmk.barrier();
  };
  sim::TrafficSnapshot traffic_pf, traffic_off;
  DsmStatsSnapshot stats_pf;
  {
    DsmRuntime rt(cfg(2, 16 * 1024, /*prefetch=*/4));
    rt.run_spmd(workload);
    traffic_pf = rt.traffic();
    stats_pf = rt.total_stats();
  }
  {
    DsmRuntime rt(cfg(2, 16 * 1024, /*prefetch=*/0));
    rt.run_spmd(workload);
    traffic_off = rt.traffic();
  }
  EXPECT_GT(stats_pf.diff_cache_hits, 0u);
  EXPECT_EQ(stats_pf.diff_cache_hits, stats_pf.prefetch_hits);
  EXPECT_GT(stats_pf.diff_cache_bytes_saved, 0u);
  EXPECT_LT(traffic_pf.messages, traffic_off.messages);
}

// Budget eviction end to end: prefetched entries beyond
// diff_cache_bytes_per_page are FIFO-dropped and transparently refetched on
// the real fault — the counters prove both the drop and the refetch.  Node 0
// dirties page B across four intervals (~800 bytes each); a budget of 2000
// bytes keeps only the last two prefetched entries, so B's fault hits twice
// and refetches the two evicted intervals in one extra message.
TEST(DiffCacheProtocol, PrefetchedEntriesBeyondBudgetAreDroppedAndRefetched) {
  constexpr std::size_t kDirtyBytes = 800;
  constexpr int kIntervals = 4;
  DsmRuntime rt(cfg(2, /*cache_bytes=*/2000, /*prefetch=*/4));
  rt.run_spmd([](Tmk& tmk) {
    gptr<std::uint8_t> a(kPageSize);              // page A: the faulting page
    gptr<std::uint8_t> b(kPageSize + kPageSize);  // page B: its neighbor
    for (int e = 0; e < kIntervals; ++e) {
      if (tmk.id() == 0) {
        if (e == 0) a[0] = 7;
        for (std::size_t i = 0; i < kDirtyBytes; ++i)
          b[i] = static_cast<std::uint8_t>(100 + e + i);
      }
      tmk.barrier();  // each epoch closes one interval with a ~800-byte diff
    }
    if (tmk.id() == 1) {
      EXPECT_EQ(a[0], 7);  // fault on A prefetches B's four intervals
      for (std::size_t i = 0; i < kDirtyBytes; ++i)
        EXPECT_EQ(b[i], static_cast<std::uint8_t>(100 + (kIntervals - 1) + i));
    }
    tmk.barrier();
  });
  const auto s = rt.total_stats();
  // All four intervals were folded into A's request (one batched page)...
  EXPECT_EQ(s.prefetch_requests_batched, 1u);
  EXPECT_EQ(s.prefetch_pages_filled, 1u);
  // ...but only the last two fit the budget: B's fault hit those two and
  // refetched the evicted two with one more kDiffRequest.
  EXPECT_EQ(s.prefetch_hits, 2u);
  EXPECT_EQ(s.diff_cache_hits, 2u);
  EXPECT_EQ(rt.traffic().messages_by_type[kDiffRequest], 2u);
}

}  // namespace
}  // namespace now::tmk
