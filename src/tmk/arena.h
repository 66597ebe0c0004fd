// The shared-memory arena: one memfd-backed mapping carved into per-node
// regions, plus the global registry that lets the process-wide SIGSEGV
// handler map a faulting address back to (runtime, node, page).
//
// Each simulated workstation owns a disjoint region; mprotect on that region
// plays the role of the per-machine page table in real TreadMarks.  Page
// contents start zero-filled on every node, which is exactly the TreadMarks
// initial condition (shared heap starts zeroed everywhere, and consistency
// tracks modifications only).
//
// The arena is one memfd of num_nodes * heap_bytes, mapped once MAP_SHARED.
// Page protection guards only the application's accesses: the protocol's own
// page I/O (diff applies, pushed images, checkpoint staging and
// rehydration) goes through the file with read_page/write_page, which ignore
// the mapping's protection.  So a diff-fetching fault pays one mprotect
// (none -> read) instead of the none -> rw -> read pair, and the invariant
// the protocol keeps is simply: a page is kInvalid exactly when its
// application view is PROT_NONE.  There is deliberately no second,
// always-writable mapping: every mapping of a page counts toward RSS again.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "tmk/config.h"

namespace now::tmk {

class DsmRuntime;

class Arena {
 public:
  // Creates the num_nodes * heap_bytes memfd and maps it PROT_NONE.  The
  // mapping is MADV_DONTFORK: a forked child (a gtest death test) must not
  // write into the parent's shared pages.
  Arena(std::uint32_t num_nodes, std::size_t heap_bytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  std::uint8_t* region_base(std::uint32_t node) const {
    return base_ + static_cast<std::size_t>(node) * heap_bytes_;
  }
  std::size_t heap_bytes() const { return heap_bytes_; }
  std::uint32_t num_nodes() const { return num_nodes_; }

  bool contains(const void* addr) const {
    const auto* p = static_cast<const std::uint8_t*>(addr);
    return p >= base_ && p < base_ + total_bytes_;
  }
  std::uint32_t node_of(const void* addr) const;
  PageIndex page_of(const void* addr) const;

  enum class Prot : std::uint8_t { kNone, kRead, kReadWrite };

  // One mprotect over `count` consecutive pages of one node's region, from
  // `first`.  Every page-state protection change of the protocol goes
  // through here (reset_region aside), so mprotect_calls() counts the
  // simulator's page-table syscalls.  Only application-visible state changes
  // call it; protocol writes into a page use write_page instead.
  void protect_range(std::uint32_t node, PageIndex first, std::size_t count,
                     Prot prot) const;
  void protect_none(std::uint32_t node, PageIndex page) const {
    protect_range(node, page, 1, Prot::kNone);
  }
  void protect_read(std::uint32_t node, PageIndex page) const {
    protect_range(node, page, 1, Prot::kRead);
  }
  void protect_rw(std::uint32_t node, PageIndex page) const {
    protect_range(node, page, 1, Prot::kReadWrite);
  }
  std::uint64_t mprotect_calls() const {
    return mprotect_calls_.load(std::memory_order_relaxed);
  }

  // One page's bytes through the backing file (pread/pwrite of kPageSize at
  // the page's offset), whatever the page's protection.  The caller holds
  // the page's mutex, so no application access races the write: a page the
  // protocol writes is kInvalid, hence PROT_NONE to the application.
  void read_page(std::uint32_t node, PageIndex page, std::uint8_t* out) const;
  void write_page(std::uint32_t node, PageIndex page,
                  const std::uint8_t* data) const;

  // Crash recovery: returns one node's whole region to its initial state —
  // PROT_NONE, contents zero — without committing memory (a hole punched in
  // the file; MADV_DONTNEED would not zero a shared mapping).  Only safe
  // while no thread can fault into the region.
  void reset_region(std::uint32_t node) const;

  std::uint8_t* page_ptr(std::uint32_t node, PageIndex page) const {
    return region_base(node) + static_cast<std::size_t>(page) * kPageSize;
  }

 private:
  std::uint32_t num_nodes_;
  std::size_t heap_bytes_;
  std::size_t total_bytes_;
  int fd_;
  std::uint8_t* base_;
  mutable std::atomic<std::uint64_t> mprotect_calls_{0};
};

// Registry consulted by the SIGSEGV handler.  Installation is process-wide
// and happens once; multiple runtimes (sequential tests) register and
// unregister their arenas.
namespace fault {

// Installs the SIGSEGV handler (idempotent) and registers the runtime.
void register_runtime(DsmRuntime* rt);
void unregister_runtime(DsmRuntime* rt);

// Measured host cost of one SIGSEGV delivery + trivial handling on this
// kernel (sandboxed kernels make this hundreds of microseconds).  The fault
// path subtracts it from the compute meter so kernel artifacts are not
// billed as application time.
std::uint64_t fault_delivery_ns();

}  // namespace fault

}  // namespace now::tmk
