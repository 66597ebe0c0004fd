#include "tmk/arena.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "tmk/runtime.h"

namespace now::tmk {

Arena::Arena(std::uint32_t num_nodes, std::size_t heap_bytes)
    : num_nodes_(num_nodes),
      heap_bytes_(heap_bytes),
      total_bytes_(static_cast<std::size_t>(num_nodes) * heap_bytes) {
  NOW_CHECK_GT(num_nodes, 0u);
  NOW_CHECK_EQ(heap_bytes % kPageSize, 0u) << "heap size must be page aligned";
  fd_ = ::memfd_create("now-dsm-arena", MFD_CLOEXEC);
  NOW_CHECK(fd_ >= 0) << "memfd_create of shared arena failed: "
                      << std::strerror(errno);
  NOW_CHECK(::ftruncate(fd_, static_cast<off_t>(total_bytes_)) == 0)
      << "ftruncate of shared arena to " << total_bytes_
      << " bytes failed: " << std::strerror(errno);
  void* p = ::mmap(nullptr, total_bytes_, PROT_NONE,
                   MAP_SHARED | MAP_NORESERVE, fd_, 0);
  NOW_CHECK(p != MAP_FAILED) << "mmap of shared arena failed: "
                             << std::strerror(errno);
  base_ = static_cast<std::uint8_t*>(p);
  NOW_CHECK(::madvise(p, total_bytes_, MADV_DONTFORK) == 0)
      << "madvise(MADV_DONTFORK) of shared arena failed: "
      << std::strerror(errno);
}

Arena::~Arena() {
  ::munmap(base_, total_bytes_);
  ::close(fd_);
}

std::uint32_t Arena::node_of(const void* addr) const {
  const auto off = static_cast<std::size_t>(static_cast<const std::uint8_t*>(addr) - base_);
  return static_cast<std::uint32_t>(off / heap_bytes_);
}

PageIndex Arena::page_of(const void* addr) const {
  const auto off = static_cast<std::size_t>(static_cast<const std::uint8_t*>(addr) - base_);
  return static_cast<PageIndex>((off % heap_bytes_) / kPageSize);
}

namespace {

struct ProtInfo {
  int flags;
  const char* name;
};
// Indexed by Arena::Prot.
constexpr ProtInfo kProtInfo[] = {
    {PROT_NONE, "PROT_NONE"},
    {PROT_READ, "PROT_READ"},
    {PROT_READ | PROT_WRITE, "PROT_READ|PROT_WRITE"},
};
const ProtInfo& prot_info(Arena::Prot prot) {
  return kProtInfo[static_cast<std::size_t>(prot)];
}

// Every run of equal protection inside the arena mapping is its own kernel
// VMA, so a fragmented page table can exhaust the per-process map count
// long before memory runs out; mprotect then fails with ENOMEM.
const char* enomem_hint(int err) {
  return err == ENOMEM
             ? " (each run of equal protection in the arena is its own VMA:"
               " raise vm.max_map_count, default 65530, or shrink heap_bytes)"
             : "";
}

}  // namespace

void Arena::protect_range(std::uint32_t node, PageIndex first,
                          std::size_t count, Prot prot) const {
  mprotect_calls_.fetch_add(1, std::memory_order_relaxed);
  const ProtInfo& info = prot_info(prot);
  if (::mprotect(page_ptr(node, first), count * kPageSize, info.flags) == 0)
    return;
  const int err = errno;
  NOW_CHECK(false) << "mprotect(" << info.name << ") of node " << node
                   << " pages [" << first << ", " << first + count
                   << ") failed: " << std::strerror(err) << enomem_hint(err);
}

void Arena::read_page(std::uint32_t node, PageIndex page,
                      std::uint8_t* out) const {
  const off_t off = static_cast<off_t>(page_ptr(node, page) - base_);
  const ssize_t n = ::pread(fd_, out, kPageSize, off);
  NOW_CHECK(n == static_cast<ssize_t>(kPageSize))
      << "pread of node " << node << " page " << page
      << " failed: " << std::strerror(errno);
}

void Arena::write_page(std::uint32_t node, PageIndex page,
                       const std::uint8_t* data) const {
  const off_t off = static_cast<off_t>(page_ptr(node, page) - base_);
  const ssize_t n = ::pwrite(fd_, data, kPageSize, off);
  NOW_CHECK(n == static_cast<ssize_t>(kPageSize))
      << "pwrite of node " << node << " page " << page
      << " failed: " << std::strerror(errno);
}

void Arena::reset_region(std::uint32_t node) const {
  std::uint8_t* base = region_base(node);
  if (::mprotect(base, heap_bytes_, PROT_NONE) != 0) {
    const int err = errno;
    NOW_CHECK(false) << "region reset mprotect(PROT_NONE) of node " << node
                     << " failed: " << std::strerror(err) << enomem_hint(err);
  }
  if (::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(base - base_),
                  static_cast<off_t>(heap_bytes_)) != 0) {
    const int err = errno;
    NOW_CHECK(false) << "region reset hole punch of node " << node
                     << " failed: " << std::strerror(err);
  }
}

namespace fault {
namespace {

// A small fixed table of live runtimes.  The handler walks it lock-free;
// registration uses a mutex.  Slots are never reused while a fault could be
// in flight for them (runtimes quiesce their compute threads before
// unregistering).
constexpr std::size_t kMaxRuntimes = 16;
std::array<std::atomic<DsmRuntime*>, kMaxRuntimes> g_runtimes{};
std::mutex g_registry_mu;
struct sigaction g_prev_action;
bool g_installed = false;

// Calibration scratch page: the handler just reopens it.
std::atomic<std::uint8_t*> g_calib_page{nullptr};
std::atomic<std::uint64_t> g_fault_delivery_ns{0};

void segv_handler(int signo, siginfo_t* info, void* ucontext) {
  void* addr = info->si_addr;
  std::uint8_t* calib = g_calib_page.load(std::memory_order_acquire);
  if (calib != nullptr && addr >= calib && addr < calib + kPageSize) {
    ::mprotect(calib, kPageSize, PROT_READ | PROT_WRITE);
    return;
  }
  for (auto& slot : g_runtimes) {
    DsmRuntime* rt = slot.load(std::memory_order_acquire);
    if (rt != nullptr && rt->arena().contains(addr)) {
      rt->handle_fault(addr);
      return;
    }
  }
  // Not ours: restore the previous disposition and re-raise so genuine bugs
  // crash loudly instead of looping.
  if (g_prev_action.sa_flags & SA_SIGINFO) {
    if (g_prev_action.sa_sigaction != nullptr) {
      g_prev_action.sa_sigaction(signo, info, ucontext);
      return;
    }
  } else if (g_prev_action.sa_handler != SIG_IGN && g_prev_action.sa_handler != SIG_DFL &&
             g_prev_action.sa_handler != nullptr) {
    g_prev_action.sa_handler(signo);
    return;
  }
  ::signal(SIGSEGV, SIG_DFL);
  ::raise(SIGSEGV);
}

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void calibrate_fault_cost_locked() {
  auto* page = static_cast<std::uint8_t*>(::mmap(
      nullptr, kPageSize, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0));
  NOW_CHECK(page != MAP_FAILED);
  g_calib_page.store(page, std::memory_order_release);
  constexpr int kRounds = 32;
  std::uint64_t total = 0;
  for (int i = 0; i < kRounds; ++i) {
    ::mprotect(page, kPageSize, PROT_NONE);
    const std::uint64_t t0 = monotonic_ns();
    page[128] = 1;  // fault -> handler reopens the page
    total += monotonic_ns() - t0;
  }
  g_calib_page.store(nullptr, std::memory_order_release);
  ::munmap(page, kPageSize);
  // Under concurrent load, delivery runs meaningfully slower than this idle
  // calibration; scale it up rather than bill kernel time as compute.
  g_fault_delivery_ns.store(2 * (total / kRounds), std::memory_order_relaxed);
}

void install_handler_locked() {
  if (g_installed) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = segv_handler;
  sa.sa_flags = SA_SIGINFO;
  sigemptyset(&sa.sa_mask);
  NOW_CHECK_EQ(::sigaction(SIGSEGV, &sa, &g_prev_action), 0);
  g_installed = true;
}

}  // namespace

void register_runtime(DsmRuntime* rt) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  const bool first = !g_installed;
  install_handler_locked();
  if (first) calibrate_fault_cost_locked();
  for (auto& slot : g_runtimes) {
    DsmRuntime* expected = nullptr;
    if (slot.compare_exchange_strong(expected, rt, std::memory_order_release))
      return;
  }
  NOW_CHECK(false) << "too many live DSM runtimes";
}

void unregister_runtime(DsmRuntime* rt) {
  std::lock_guard<std::mutex> lock(g_registry_mu);
  for (auto& slot : g_runtimes)
    if (slot.load(std::memory_order_relaxed) == rt)
      slot.store(nullptr, std::memory_order_release);
}

std::uint64_t fault_delivery_ns() {
  return g_fault_delivery_ns.load(std::memory_order_relaxed);
}

}  // namespace fault

}  // namespace now::tmk
