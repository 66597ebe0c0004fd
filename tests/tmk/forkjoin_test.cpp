// Tmk_fork / Tmk_join tests: the OpenMP-style master/slave execution model,
// firstprivate argument blobs, and visibility across fork and join.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <utility>

#include "tmk/tmk.h"

namespace now::tmk {
namespace {

DsmConfig cfg(std::uint32_t nodes) {
  DsmConfig c;
  c.num_nodes = nodes;
  c.heap_bytes = 4 << 20;
  return c;
}

struct RegionArg {
  gptr<std::uint64_t> out;
  std::uint64_t scale;  // a "firstprivate" value
};

void region_fill(Tmk& tmk, const void* raw, std::size_t size) {
  ASSERT_EQ(size, sizeof(RegionArg));
  RegionArg arg;
  std::memcpy(&arg, raw, sizeof arg);
  arg.out[tmk.id()] = (tmk.id() + 1) * arg.scale;
}

TEST(ForkJoin, MasterSeesSlaveWritesAfterJoin) {
  for (std::uint32_t n : {2u, 4u, 8u}) {
    DsmRuntime rt(cfg(n));
    rt.run_master([n](Tmk& tmk) {
      auto out = tmk.alloc_array<std::uint64_t>(n);
      RegionArg arg{out, 10};
      tmk.fork(&region_fill, &arg, sizeof arg);
      region_fill(tmk, &arg, sizeof arg);  // master participates
      tmk.join();
      for (std::uint32_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], (i + 1) * 10u) << "nodes=" << n;
    });
  }
}

void region_read_master_data(Tmk& tmk, const void* raw, std::size_t size) {
  ASSERT_EQ(size, sizeof(gptr<std::uint64_t>));
  gptr<std::uint64_t> data;
  std::memcpy(&data, raw, sizeof data);
  // The master initialized this before the fork; the fork's consistency
  // records make it visible here.
  EXPECT_EQ(data[0], 777u);
  data[1 + tmk.id()] = data[0] + tmk.id();
}

TEST(ForkJoin, SequentialInitVisibleInParallelRegion) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(16);
    data[0] = 777;  // sequential-phase write by the master
    tmk.fork(&region_read_master_data, &data, sizeof data);
    region_read_master_data(tmk, &data, sizeof data);
    tmk.join();
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(data[1 + i], 777u + i);
  });
}

void region_step(Tmk& tmk, const void* raw, std::size_t) {
  struct A {
    gptr<std::uint64_t> acc;
    std::uint64_t step;
  } arg;
  std::memcpy(&arg, raw, sizeof arg);
  arg.acc[tmk.id()] = arg.acc[tmk.id()] + arg.step;
}

TEST(ForkJoin, RepeatedRegionsAccumulate) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto acc = tmk.alloc_array<std::uint64_t>(4);
    struct A {
      gptr<std::uint64_t> acc;
      std::uint64_t step;
    };
    for (std::uint64_t s = 1; s <= 5; ++s) {
      A arg{acc, s};
      tmk.fork(&region_step, &arg, sizeof arg);
      region_step(tmk, &arg, sizeof arg);
      tmk.join();
    }
    for (std::uint32_t i = 0; i < 4; ++i) EXPECT_EQ(acc[i], 15u);
  });
}

TEST(ForkJoin, ForkJoinMessageCount) {
  // A region costs (n-1) forks + (n-1) joins.
  const std::uint32_t n = 8;
  DsmRuntime rt(cfg(n));
  rt.run_master([](Tmk& tmk) {
    auto out = tmk.alloc_array<std::uint64_t>(8);
    RegionArg arg{out, 3};
    tmk.fork(&region_fill, &arg, sizeof arg);
    region_fill(tmk, &arg, sizeof arg);
    tmk.join();
  });
  const auto t = rt.traffic();
  EXPECT_EQ(t.messages_by_type[kFork], n - 1);
  EXPECT_EQ(t.messages_by_type[kJoin], n - 1);
  EXPECT_EQ(t.messages_by_type[kShutdown], n - 1);
}

void region_rewrite(Tmk& tmk, const void* raw, std::size_t) {
  struct A {
    gptr<std::uint64_t> data;
    std::uint64_t round;
  } arg;
  std::memcpy(&arg, raw, sizeof arg);
  // Each thread rewrites its slab and reads a neighbour's previous-round
  // slab, so every region both creates diffs and learns records.
  constexpr std::size_t kSlab = 256;
  const std::size_t base = tmk.id() * kSlab;
  for (std::size_t k = 0; k < kSlab; ++k)
    arg.data[base + k] = arg.round * 1000 + tmk.id() * 10 + k;
  const std::size_t peer = ((tmk.id() + 1) % tmk.nprocs()) * kSlab;
  volatile std::uint64_t sink = arg.data[peer];
  (void)sink;
}

struct RewriteArg {
  gptr<std::uint64_t> data;
  std::uint64_t round;
};

// Runs `regions` rewrite regions on 4 nodes; returns the cluster's stats and
// its total knowledge-log record count at the end.
std::pair<DsmStatsSnapshot, std::size_t> run_rewrite_regions(
    std::uint64_t regions) {
  DsmRuntime rt(cfg(4));
  rt.run_master([regions](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(4 * 256);
    for (std::uint64_t r = 0; r < regions; ++r) {
      RewriteArg arg{data, r};
      tmk.fork(&region_rewrite, &arg, sizeof arg);
      region_rewrite(tmk, &arg, sizeof arg);
      tmk.join();
    }
    for (std::uint32_t t = 0; t < 4; ++t)
      EXPECT_EQ(data[t * 256 + 5], (regions - 1) * 1000 + t * 10 + 5);
  });
  std::size_t records = 0;
  for (std::uint32_t n = 0; n < 4; ++n)
    records += rt.node(n).meta_footprint().log_records;
  return {rt.total_stats(), records};
}

// The fork after a join is a barrier-equivalent reclamation point: the
// master's post-join vector time rides each kFork as a GC floor, so
// fork/join-only programs (the OpenMP execution model — regions end in a
// kJoin, never a Tmk barrier) reclaim knowledge-log records and diff-store
// bytes instead of growing without bound.
TEST(ForkJoin, ForkAfterJoinReclaims) {
  const auto [short_stats, short_records] = run_rewrite_regions(24);
  const auto [long_stats, long_records] = run_rewrite_regions(48);
  EXPECT_GT(short_stats.gc_records_reclaimed, 0u);
  EXPECT_GT(short_stats.gc_diff_bytes_reclaimed, 0u);
  EXPECT_GT(long_stats.gc_records_reclaimed, short_stats.gc_records_reclaimed);
  // The logs plateau at roughly one region's worth of records, whatever the
  // region count: each region adds at most two intervals per node (fork and
  // join), learned by all 4 nodes, so a bound of three regions' worth holds
  // the plateau after 24 regions and after 48 alike.  Without fork-point
  // GC the counts would grow linearly with the regions.
  constexpr std::size_t kPlateau = 3 * 2 * 4 * 4;
  EXPECT_LE(short_records, kPlateau);
  EXPECT_LE(long_records, kPlateau);
}

void region_with_barrier(Tmk& tmk, const void* raw, std::size_t) {
  gptr<std::uint64_t> data;
  std::memcpy(&data, raw, sizeof data);
  data[tmk.id()] = tmk.id() + 1;
  tmk.barrier();
  // Everyone checks a neighbour's write inside the region.
  const std::uint32_t peer = (tmk.id() + 1) % tmk.nprocs();
  EXPECT_EQ(data[peer], peer + 1);
}

TEST(ForkJoin, BarriersInsideParallelRegion) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc_array<std::uint64_t>(4);
    tmk.fork(&region_with_barrier, &data, sizeof data);
    region_with_barrier(tmk, &data, sizeof data);
    tmk.join();
  });
}

TEST(ForkJoin, VirtualTimeAdvancesMonotonically) {
  DsmRuntime rt(cfg(2));
  rt.run_master([](Tmk& tmk) {
    auto out = tmk.alloc_array<std::uint64_t>(2);
    RegionArg arg{out, 1};
    tmk.fork(&region_fill, &arg, sizeof arg);
    region_fill(tmk, &arg, sizeof arg);
    tmk.join();
  });
  EXPECT_GT(rt.virtual_time_ns(), 0u);
}

// Join merges run on the master's service thread while the master may still
// be writing pages the slaves also wrote (false sharing is legal under
// multiple writers).  The master writes each word of its half of every page
// exactly once, slowly, so the slaves' joins land mid-write; a write that
// lands between the merge's diff of a page and its invalidation would stay
// out of every diff, and a later region would read the stale word.
constexpr std::size_t kRacePages = 32;
constexpr std::size_t kRaceHalf = kPageSize / sizeof(std::uint64_t) / 2;

struct RaceArg {
  gptr<std::uint64_t> data;
  std::uint64_t round;
};

std::uint64_t master_word(std::uint64_t round, std::size_t page, std::size_t k) {
  return (round << 32) | (page * kRaceHalf + k + 1);
}

void region_write_slave_half(Tmk& tmk, const void* raw, std::size_t) {
  RaceArg arg;
  std::memcpy(&arg, raw, sizeof arg);
  const std::size_t slaves = tmk.nprocs() - 1;
  for (std::size_t p = 0; p < kRacePages; ++p)
    for (std::size_t k = tmk.id() - 1; k < kRaceHalf; k += slaves)
      arg.data[p * 2 * kRaceHalf + kRaceHalf + k] = arg.round + 1;
}

void region_check_master_half(Tmk&, const void* raw, std::size_t) {
  RaceArg arg;
  std::memcpy(&arg, raw, sizeof arg);
  std::size_t stale = 0, first = 0;
  for (std::size_t p = 0; p < kRacePages; ++p)
    for (std::size_t k = 0; k < kRaceHalf; ++k)
      if (arg.data[p * 2 * kRaceHalf + k] != master_word(arg.round, p, k) &&
          stale++ == 0)
        first = p * 2 * kRaceHalf + k;
  EXPECT_EQ(stale, 0u) << "round " << arg.round << ", first stale word " << first;
}

TEST(ForkJoin, MasterWritesDuringSlaveJoinsAreNotLost) {
  DsmRuntime rt(cfg(4));
  rt.run_master([](Tmk& tmk) {
    auto data = tmk.alloc(kRacePages * kPageSize, kPageSize).cast<std::uint64_t>();
    for (std::uint64_t round = 0; round < 8; ++round) {
      RaceArg arg{data, round};
      tmk.fork(&region_write_slave_half, &arg, sizeof arg);
      for (std::size_t p = 0; p < kRacePages; ++p)
        for (std::size_t k = 0; k < kRaceHalf; ++k) {
          data[p * 2 * kRaceHalf + k] = master_word(round, p, k);
          const auto until =
              std::chrono::steady_clock::now() + std::chrono::microseconds(1);
          while (std::chrono::steady_clock::now() < until) {
          }
        }
      tmk.join();
      tmk.fork(&region_check_master_half, &arg, sizeof arg);
      tmk.join();
    }
  });
}

}  // namespace
}  // namespace now::tmk
