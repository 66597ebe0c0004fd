// The page table's host footprint: a runtime holds num_nodes × num_pages
// PageEntry records whatever the program touches, so an entry must stay
// small and constructing one must not allocate.  Allocations are counted
// with a replaced global operator new (program-wide, so it sees the
// runtime's own allocations as well as the test's).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "tmk/page.h"
#include "tmk/tmk.h"

namespace {
std::atomic<std::size_t> g_allocs{0};
std::atomic<std::size_t> g_alloc_bytes{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace now::tmk {
namespace {

#if defined(__x86_64__)
TEST(PageFootprint, PageEntryIsPacked) {
  EXPECT_LE(sizeof(PageEntry), 176u);
}
#endif

TEST(PageFootprint, EmptyEntryAllocatesNothing) {
  const std::size_t before = g_allocs.load();
  { PageEntry e; }
  EXPECT_EQ(g_allocs.load() - before, 0u);
}

TEST(PageFootprint, ConstructingTheRuntimeMakesNoPerPageAllocation) {
  DsmConfig c;
  c.num_nodes = 8;
  c.heap_bytes = std::size_t{96} << 20;
  const std::size_t pages_per_node = c.num_pages();
  const std::size_t allocs0 = g_allocs.load();
  const std::size_t bytes0 = g_alloc_bytes.load();
  std::size_t allocs = 0;
  std::size_t bytes = 0;
  {
    DsmRuntime rt(c);
    allocs = g_allocs.load() - allocs0;
    bytes = g_alloc_bytes.load() - bytes0;
  }
  // One allocation per page on any single node would already reach this.
  EXPECT_LT(allocs, pages_per_node) << allocs << " allocations";
  // Heap bytes per simulated page, over every node: the page entry itself
  // plus a small share of the fixed per-node state.
  const std::size_t per_page = bytes / (pages_per_node * c.num_nodes);
  EXPECT_LE(per_page, sizeof(PageEntry) + 16) << bytes << " bytes";
}

}  // namespace
}  // namespace now::tmk
