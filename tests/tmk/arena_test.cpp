// The arena's page I/O through its backing file: read_page/write_page ignore
// page protection, so the protocol can patch a PROT_NONE page without
// mapping it; reset_region returns one node's region to zero without
// touching its neighbours; and a forked child does not share the pages.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tmk/arena.h"

namespace now::tmk {
namespace {

std::vector<std::uint8_t> pattern(std::uint8_t seed) {
  std::vector<std::uint8_t> v(kPageSize);
  for (std::size_t i = 0; i < kPageSize; ++i)
    v[i] = static_cast<std::uint8_t>(seed + i * 13);
  return v;
}

// The permission field ("---s", "r--s", ...) of the mapping that holds
// `addr`, read from /proc/self/maps so that no access can fault.
std::string perms_of(const void* addr) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream in(line);
    std::string range, perms;
    in >> range >> perms;
    const std::size_t dash = range.find('-');
    const std::uintptr_t lo = std::stoull(range.substr(0, dash), nullptr, 16);
    const std::uintptr_t hi = std::stoull(range.substr(dash + 1), nullptr, 16);
    if (a >= lo && a < hi) return perms;
  }
  return "";
}

TEST(Arena, WritePageIntoProtNonePageShowsAfterProtectRead) {
  Arena arena(2, 16 * kPageSize);
  const auto bytes = pattern(7);
  ASSERT_EQ(perms_of(arena.page_ptr(1, 5)).substr(0, 3), "---");
  arena.write_page(1, 5, bytes.data());
  EXPECT_EQ(arena.mprotect_calls(), 0u);
  arena.protect_read(1, 5);
  EXPECT_EQ(arena.mprotect_calls(), 1u);
  EXPECT_EQ(std::vector<std::uint8_t>(arena.page_ptr(1, 5),
                                      arena.page_ptr(1, 5) + kPageSize),
            bytes);
}

TEST(Arena, ReadPageOfProtNonePageReturnsItsBytes) {
  Arena arena(2, 16 * kPageSize);
  const auto bytes = pattern(3);
  arena.protect_rw(0, 2);
  std::copy(bytes.begin(), bytes.end(), arena.page_ptr(0, 2));
  arena.protect_none(0, 2);
  std::vector<std::uint8_t> out(kPageSize);
  arena.read_page(0, 2, out.data());
  EXPECT_EQ(out, bytes);
  // A page never written reads as zeros.
  arena.read_page(0, 3, out.data());
  EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0));
}

TEST(Arena, ResetRegionZeroesOneNodeAndLeavesItProtNone) {
  Arena arena(2, 16 * kPageSize);
  const auto mine = pattern(1), theirs = pattern(2);
  for (PageIndex p : {0u, 9u, 15u}) {
    arena.write_page(0, p, mine.data());
    arena.write_page(1, p, theirs.data());
  }
  arena.protect_range(0, 0, 16, Arena::Prot::kReadWrite);
  arena.reset_region(0);
  EXPECT_EQ(perms_of(arena.page_ptr(0, 0)).substr(0, 3), "---");
  EXPECT_EQ(perms_of(arena.page_ptr(0, 15)).substr(0, 3), "---");
  std::vector<std::uint8_t> out(kPageSize);
  for (PageIndex p : {0u, 9u, 15u}) {
    arena.read_page(0, p, out.data());
    EXPECT_EQ(out, std::vector<std::uint8_t>(kPageSize, 0)) << "node 0 page " << p;
    arena.read_page(1, p, out.data());
    EXPECT_EQ(out, theirs) << "node 1 page " << p;
  }
  arena.protect_read(0, 9);  // the application view is zero too
  EXPECT_EQ(std::vector<std::uint8_t>(arena.page_ptr(0, 9),
                                      arena.page_ptr(0, 9) + kPageSize),
            std::vector<std::uint8_t>(kPageSize, 0));
}

// The mapping is shared, so a forked child (a gtest death test) that kept
// it could write into the parent's pages; it is not inherited at all.
TEST(Arena, ForkedChildDoesNotInheritTheMapping) {
  Arena arena(1, 4 * kPageSize);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) ::_exit(perms_of(arena.page_ptr(0, 0)).empty() ? 0 : 1);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  EXPECT_EQ(perms_of(arena.page_ptr(0, 0)).substr(0, 3), "---");
}

}  // namespace
}  // namespace now::tmk
