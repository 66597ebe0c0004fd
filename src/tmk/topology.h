// Synchronization topology: where every manager duty lives.
//
// The paper's TreadMarks uses fully static placement — node 0 owns the
// barrier, allocation and fork/join, and lock/sema managers are assigned by
// id.  This object is the single authority for all of it, so no call site
// hardcodes node 0, and it adds one placement the static scheme lacks at
// scale: a static combining tree for barriers (heap-indexed, configurable
// arity).  Node i's children are [arity*i + 1, arity*i + arity], its parent
// (i - 1) / arity.  Arity 0 — or anything >= num_nodes - 1 — degenerates to
// the depth-1 flat tree, which *is* the centralized barrier, byte for byte.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "tmk/config.h"

namespace now::tmk {

class SyncTopology {
 public:
  explicit SyncTopology(const DsmConfig& cfg)
      : num_nodes_(cfg.num_nodes),
        arity_(effective_arity(cfg.num_nodes, cfg.barrier_tree_arity)) {}

  std::uint32_t num_nodes() const { return num_nodes_; }
  std::uint32_t arity() const { return arity_; }

  // ---- barrier combining tree ----
  std::uint32_t barrier_root() const { return 0; }
  std::uint32_t barrier_parent(std::uint32_t node) const {
    return node == 0 ? 0 : (node - 1) / arity_;
  }
  std::uint32_t first_child(std::uint32_t node) const {
    // May be >= num_nodes (leaf); callers compare against num_nodes.
    return arity_ * node + 1;
  }
  bool barrier_interior(std::uint32_t node) const {
    return first_child(node) < num_nodes_;
  }
  std::vector<std::uint32_t> barrier_children(std::uint32_t node) const {
    std::vector<std::uint32_t> kids;
    const std::uint64_t first = first_child(node);
    for (std::uint64_t c = first; c < first + arity_ && c < num_nodes_; ++c)
      kids.push_back(static_cast<std::uint32_t>(c));
    return kids;
  }
  // Where a node's compute thread sends its kBarrierArrive: its own service
  // thread when it is a combining point, its parent when it is a leaf.  In
  // the flat tree this is node 0 for everyone — the centralized manager.
  std::uint32_t barrier_owner(std::uint32_t node) const {
    return barrier_interior(node) ? node : barrier_parent(node);
  }
  // Arrivals a combining point collects before folding upward: one per
  // child subtree plus its own compute thread's.
  std::uint32_t barrier_fanin(std::uint32_t node) const {
    const std::uint64_t first = first_child(node);
    const std::uint64_t last =
        std::min<std::uint64_t>(first + arity_, num_nodes_);
    return static_cast<std::uint32_t>(last > first ? last - first : 0) + 1;
  }
  // Edge-depth of a node below the root (root = 0).
  std::uint32_t barrier_depth(std::uint32_t node) const {
    std::uint32_t d = 0;
    while (node != 0) {
      node = barrier_parent(node);
      ++d;
    }
    return d;
  }
  // Deepest leaf's depth — the one-way hop count of the slowest arrival.
  std::uint32_t barrier_height() const {
    return num_nodes_ <= 1 ? 0 : barrier_depth(num_nodes_ - 1);
  }
  // Wire hops on the barrier's critical path: the deepest arrival folds up
  // through `height` combining points and its departure fans back down the
  // same way.  2 for the flat/centralized tree, 2*ceil(log_arity N) for a
  // populated one.
  std::uint32_t critical_path_hops() const { return 2 * barrier_height(); }

  // ---- static single-owner duties ----
  std::uint32_t master_node() const { return 0; }
  std::uint32_t alloc_server() const { return 0; }

  // ---- lock/sema/cond managers: static, by id ----
  std::uint32_t lock_manager(std::uint32_t lock_id) const {
    return lock_id % num_nodes_;
  }
  std::uint32_t sema_manager(std::uint32_t sema_id) const {
    return sema_id % num_nodes_;
  }

 private:
  static std::uint32_t effective_arity(std::uint32_t n, std::uint32_t arity) {
    // 0 = flat; otherwise clamp so the shape is always a valid tree.  Any
    // arity >= n - 1 is already flat via the heap indexing.
    const std::uint32_t flat = n > 1 ? n - 1 : 1;
    if (arity == 0 || arity > flat) return flat;
    return arity;
  }
  std::uint32_t num_nodes_;
  std::uint32_t arity_;  // effective: in [1, num_nodes - 1], flat when == n-1
};

}  // namespace now::tmk
