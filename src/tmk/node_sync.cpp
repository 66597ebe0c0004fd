// Synchronization: barriers (centralized manager), locks (distributed queue
// with manager forwarding and last-holder caching), semaphores (static
// manager, two messages per operation), condition variables (queued at the
// associated lock's manager), flush (the 2(n-1)-message primitive the paper
// proposes to remove), and the Tmk_fork/Tmk_join pair OpenMP-style execution
// rides on.
#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

namespace {
std::uint64_t cond_key(std::uint32_t lock_id, std::uint32_t cond_id) {
  return (static_cast<std::uint64_t>(lock_id) << 32) | cond_id;
}
}  // namespace

// ---------------------------------------------------------------------------
// Barrier
// ---------------------------------------------------------------------------

void Node::barrier() {
  sync_cpu();
  maybe_crash();  // "at barrier arrival" crash site
  gc_poll();
  // 0-based index of the epoch this barrier ends; kDiffRequests sent after
  // the barrier returns carry epoch_done + 1 and are folded one barrier
  // later (see update_copyset_fold).
  const std::uint64_t epoch_done =
      stats_.barriers.fetch_add(1, std::memory_order_relaxed);
  const bool update_on = rt_.config().update_enabled();

  // Judge last epoch's pushes before anything else: armed pages still
  // untouched demote at their writers (the denies race the writers' push
  // passes at worst into one wasted push).
  if (update_on) update_scan_demote();
  close_interval();
  // Push this epoch's diffs for promoted pages *before* the arrival is
  // sent: mailbox FIFO then guarantees every push is parked at its reader
  // before the manager's departure releases that reader.
  if (update_on) update_push_promoted(epoch_done);

  // Arrive at the tree owner: this node's own service thread when it is a
  // combining point, its parent when it is a leaf.  The flat (centralized)
  // tree makes that node 0 for everyone — today's manager.
  const std::uint32_t owner = rt_.topology().barrier_owner(id_);
  auto delta = take_delta_for(owner, Cache::kMgrLog, nullptr);
  ByteWriter w;
  VectorTime vt;
  VectorTime floor_applied;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    vt = log_.vt();
    floor_applied = gc_floor_applied_;
  }
  KnowledgeLog::serialize_vt(w, vt);
  // The sender's applied GC floor, like every delta bound for a sparse
  // manager log (see sema_signal): a fork-point floor raises the sent-cache
  // past records the barrier manager never saw, so it must raise its own
  // floor before merging or the delta would look non-contiguous.
  KnowledgeLog::serialize_vt(w, floor_applied);
  KnowledgeLog::serialize_records(w, delta);

  stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
  sim::Message reply = rpc_call(owner, kBarrierArrive, w.take());
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(reply.payload);
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
  // With the departure's write notices merged, pages whose pushed chunks
  // fully cover their wanted intervals come out of the barrier valid.
  if (update_on) update_validate_pushed(epoch_done);
  if (rt_.config().gc_at_barriers) gc_at_barrier(floor);
  if (update_on) update_copyset_fold(epoch_done);
  ckpt_at_barrier(epoch_done);
}

void Node::on_barrier_arrive(sim::Message&& m) {
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  BarrierMgrState::Arrival a;
  a.node = m.src;
  a.vt = KnowledgeLog::deserialize_vt(r);
  a.rpc_seq = m.seq;
  a.arrive_ts = m.arrive_ts_ns;
  a.via_tree = false;
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.barrier.arrivals.push_back(std::move(a));
  tree_barrier_advance();
}

void Node::on_tree_arrive(sim::Message&& m) {
  // A child combining point's folded subtree arrival.  Same shape as a
  // direct arrival — (vt, floor, records) — except the vt is the min fold
  // over the subtree and the floor is the child's manager-log floor (the
  // max of everything its subtree announced), so raising ours to it keeps
  // the delta's contiguity exactly as a single sender's floor would.
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  BarrierMgrState::Arrival a;
  a.node = m.src;
  a.vt = KnowledgeLog::deserialize_vt(r);
  a.rpc_seq = 0;
  a.arrive_ts = m.arrive_ts_ns;
  a.via_tree = true;
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.barrier.arrivals.push_back(std::move(a));
  tree_barrier_advance();
}

void Node::tree_barrier_advance() {
  const SyncTopology& topo = rt_.topology();
  if (mgr_.barrier.arrivals.size() < topo.barrier_fanin(id_)) return;

  std::uint64_t fold_ts = 0;
  for (const auto& arr : mgr_.barrier.arrivals)
    fold_ts = std::max(fold_ts, arr.arrive_ts);
  fold_ts += static_cast<std::uint64_t>(rt_.config().barrier_manager_us * 1000.0);

  // The fold: the minimal vector time across this subtree.  At the root
  // that *is* the GC floor — every node's knowledge dominated it when it
  // arrived, so records at or below it can be reclaimed everywhere.
  VectorTime fold = mgr_.barrier.arrivals.front().vt;
  for (const auto& arr : mgr_.barrier.arrivals) fold = vt_min(std::move(fold), arr.vt);

  if (id_ != topo.barrier_root()) {
    // Interior: forward one combined arrival to the parent and keep the
    // subtree parked until its departure wave comes back down.  The
    // announced floor is this manager log's own floor (already the max of
    // every floor the subtree announced, via mgr_gc_to above), and the
    // delta is cut against what the parent already holds of this log.
    VectorTime mgr_floor(num_nodes_, 0);
    for (std::uint32_t i = 0; i < num_nodes_; ++i)
      mgr_floor[i] = mgr_.log.gc_floor(i);
    ByteWriter w;
    KnowledgeLog::serialize_vt(w, fold);
    KnowledgeLog::serialize_vt(w, mgr_floor);
    KnowledgeLog::serialize_records(
        w, mgr_.log.delta_since(vt_max(std::move(mgr_floor), tree_sent_up_vt_)));
    tree_sent_up_vt_ = mgr_.log.vt();
    sim::Message up;
    up.type = kTreeArrive;
    up.src = id_;
    up.dst = topo.barrier_parent(id_);
    up.send_ts_ns = fold_ts;
    up.payload = w.take();
    stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
    rt_.net().send(std::move(up));
    return;
  }

  // Root: the fold over every arrival is the global floor.
  if (rt_.config().gc_at_barriers) {
    const std::size_t dropped = mgr_.log.gc_to(fold);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
  }
  tree_barrier_fan_down(fold, fold_ts);
}

void Node::tree_barrier_fan_down(const VectorTime& floor, std::uint64_t depart_ts) {
  for (const auto& arr : mgr_.barrier.arrivals) {
    // Cut from the arrival's (folded) vector time: a superset of what each
    // subtree member is missing, deduplicated by merge() downstream.
    ByteWriter w;
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_records(w, mgr_delta_since(arr.vt));
    sim::Message depart;
    depart.type = arr.via_tree ? kTreeDepart : kBarrierDepart;
    depart.src = id_;
    depart.dst = arr.node;
    depart.seq = arr.rpc_seq;
    depart.send_ts_ns = depart_ts;
    depart.payload = w.take();
    stats_.barrier_msgs_sent.fetch_add(1, std::memory_order_relaxed);
    rt_.net().send(std::move(depart));
  }
  mgr_.barrier.arrivals.clear();
}

void Node::on_tree_depart(sim::Message&& m) {
  // The departure wave reaching this combining point: learn the global
  // floor and every record the subtree fold was missing, then fan the same
  // (floor, per-arrival delta) shape down to the parked arrivals.  After
  // the merge this log holds the global record set, and the parent that
  // sent it holds at least as much — so the sent-up cache jumps to the
  // full log vt, not just past the records actually shipped up.
  stats_.barrier_msgs_recv.fetch_add(1, std::memory_order_relaxed);
  ByteReader r(m.payload);
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  if (rt_.config().gc_at_barriers) mgr_gc_to(floor);
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  tree_sent_up_vt_ = mgr_.log.vt();
  const std::uint64_t depart_ts =
      m.arrive_ts_ns +
      static_cast<std::uint64_t>(rt_.config().barrier_manager_us * 1000.0);
  tree_barrier_fan_down(floor, depart_ts);
}

// ---------------------------------------------------------------------------
// Barrier-time garbage collection (TreadMarks-style, at every barrier)
// ---------------------------------------------------------------------------

void Node::mgr_gc_to(const VectorTime& floor) {
  const std::size_t dropped = mgr_.log.gc_to(floor);
  if (dropped)
    stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
}

std::vector<IntervalRecordPtr> Node::mgr_delta_since(const VectorTime& since) {
  // A waiter's parked vector time can go stale against the manager log's
  // floor: a cond waiter registers *before* the release that closes its
  // interval, and an on-demand exchange running while it sleeps can raise
  // the floor past its registration.  Cutting from max(floor, since) is
  // exact, not lossy: every record in (since, floor] is either the waiter's
  // own or globally known (that is what the floor certifies), so the waiter
  // already holds it.
  VectorTime floor(num_nodes_, 0);
  for (std::uint32_t i = 0; i < num_nodes_; ++i) floor[i] = mgr_.log.gc_floor(i);
  return mgr_.log.delta_since(vt_max(std::move(floor), since));
}

void Node::gc_at_barrier(const VectorTime& floor) {
  // Own diff-store entries are reclaimed one reclamation point late: this
  // pass drops entries at or below the *previous* floor, while the current
  // floor's diffs stay servable until every node has validated its pages
  // against it.  (Causality makes the delay sufficient: a peer's validation
  // fetch is replied to before the peer can reach the next reclamation
  // point — the next barrier, or the next fork, which the master only sends
  // after every slave's join — and this node only reclaims after that next
  // point.)  Barriers and fork points interleave freely: both are global
  // sync points, so the drain argument holds across either sequence, and
  // the floors they establish are monotone (a fork floor is the master's
  // post-join vector time, which dominates any earlier barrier floor; a
  // later barrier's floor is a min over vector times that all dominate the
  // fork floor).
  const std::uint32_t prev_drop = gc_drop_seq_;
  gc_drop_seq_ = std::max(gc_drop_seq_, floor[id_]);
  // An on-demand exchange may have reclaimed past prev_drop already (its ack
  // proved the validation fetches drained); the bound never moves backwards.
  gc_reclaimed_seq_ = std::max(gc_reclaimed_seq_, prev_drop);

  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    const std::size_t dropped = log_.gc_to(floor);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
    // Every node already knows the records below the floor, so they must
    // never ride a delta again: raise the sent-caches so delta_since never
    // reaches into the reclaimed prefix.
    for (std::uint32_t p = 0; p < num_nodes_; ++p) {
      sent_node_vt_[p] = vt_max(std::move(sent_node_vt_[p]), floor);
      sent_mgr_vt_[p] = vt_max(std::move(sent_mgr_vt_[p]), floor);
    }
    gc_floor_applied_ = vt_max(std::move(gc_floor_applied_), floor);
  }

  gc_validate_pages(floor);
  {
    // Every notice at or below the floor is now resolved (pinned or applied):
    // the exchange's ack fold may release writers' diff sources against it.
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
  }

  if (prev_drop > 0) {
    std::uint64_t bytes = 0;
    std::size_t entries = 0;
    std::lock_guard<std::mutex> lock(store_mu_);
    for (auto it = diff_store_.begin(); it != diff_store_.end();) {
      if (static_cast<std::uint32_t>(it->first) <= prev_drop) {
        for (const DiffBytes& d : it->second) bytes += d.size();
        ++entries;
        it = diff_store_.erase(it);
      } else {
        ++it;
      }
    }
    if (entries) {
      diff_store_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      stats_.gc_diff_bytes_reclaimed.fetch_add(bytes, std::memory_order_relaxed);
      NOW_LOG(kDebug, "node %u GC: reclaimed %zu diff entries (%llu bytes) <= seq %u",
              id_, entries, static_cast<unsigned long long>(bytes), prev_drop);
    }
  }

  if (rt_.config().lock_push_enabled()) relay_prune(floor);
}

void Node::gc_raise_floor(const VectorTime& floor) {
  // A floor learned off the lock-grant chain.  Floors are *established* only
  // at global sync points (barriers, forks) that this node also attends, so
  // a propagated floor almost never advances past the applied one and this
  // returns at the compare.  When it does advance (defensive: a config mix
  // where this node skipped a establishment point), the knowledge log and
  // sent-caches are raised and pages are validated — but the own-diff
  // reclamation bounds (gc_drop_seq_ / gc_reclaimed_seq_) are NOT moved:
  // advancing them requires proof that every peer's validation fetches have
  // drained, which only the global alignment of a barrier or fork provides.
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    bool advances = false;
    for (std::uint32_t i = 0; i < num_nodes_; ++i) {
      if (floor[i] > gc_floor_applied_[i]) {
        advances = true;
        break;
      }
    }
    if (!advances) {
      // An applied floor is by now also validated on this compute thread
      // (both passes complete before it returns); keep the validated vector
      // caught up so the exchange's ack fold never lags the applied one.
      gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
      return;
    }
    const std::size_t dropped = log_.gc_to(floor);
    if (dropped)
      stats_.gc_records_reclaimed.fetch_add(dropped, std::memory_order_relaxed);
    for (std::uint32_t p = 0; p < num_nodes_; ++p) {
      sent_node_vt_[p] = vt_max(std::move(sent_node_vt_[p]), floor);
      sent_mgr_vt_[p] = vt_max(std::move(sent_mgr_vt_[p]), floor);
    }
    gc_floor_applied_ = vt_max(std::move(gc_floor_applied_), floor);
  }
  gc_validate_pages(floor);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_floor_validated_ = vt_max(std::move(gc_floor_validated_), floor);
  }
}

void Node::gc_validate_pages(const VectorTime& floor) {
  const std::size_t cache_budget = rt_.config().diff_cache_bytes_per_page;

  // Scan the pages merge_and_invalidate flagged as carrying notices (not the
  // whole heap), collecting the write notices at or below the floor whose
  // diffs are not already held locally.  Pages still carrying notices are
  // re-flagged for the next pass — a notice that is above this floor will be
  // below a later one.  Only the compute thread removes notices or touches
  // the diff cache, so the collected work stays valid after the page locks
  // drop; the service thread can only append newer (above-floor) notices
  // meanwhile.
  std::vector<PageIndex> scan;
  {
    std::lock_guard<std::mutex> lock(gc_scan_mu_);
    scan.swap(gc_scan_pages_);
  }
  std::sort(scan.begin(), scan.end());
  scan.erase(std::unique(scan.begin(), scan.end()), scan.end());

  struct PageWork {
    PageIndex page = 0;
    std::vector<UnappliedNotice> old;                       // every old notice
    std::map<std::uint32_t, std::vector<std::uint32_t>> fetch;  // writer -> seqs
  };
  std::vector<PageWork> work;
  std::vector<PageIndex> keep;  // pages to revisit at the next barrier
  for (PageIndex page : scan) {
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.unapplied.empty()) continue;  // a fault applied everything already
    keep.push_back(page);
    PageWork w;
    w.page = page;
    for (const UnappliedNotice& n : e.unapplied) {
      if (n.seq > floor[n.writer]) continue;
      w.old.push_back(n);
      // Already held locally: pinned by a previous GC pass (no fault
      // consumed it yet), or parked as a *droppable* entry by a fault's
      // prefetch window — promoted to a pin in place, because its writer is
      // about to reclaim the source copy and eviction would lose the only
      // survivor.
      if (cache_budget > 0 && e.diff_cache.pin_existing(n.writer, n.seq)) continue;
      w.fetch[n.writer].push_back(n.seq);
    }
    if (!w.old.empty()) work.push_back(std::move(w));
  }
  if (!keep.empty()) {
    std::lock_guard<std::mutex> lock(gc_scan_mu_);
    gc_scan_pages_.insert(gc_scan_pages_.end(), keep.begin(), keep.end());
  }
  if (work.empty()) return;

  // Fetch: one request per (page, writer), through the shared batched path.
  // (w.fetch is kept intact — the pin step below walks it again.)
  std::vector<DiffWant> wants;
  for (const PageWork& w : work)
    for (const auto& [writer, seqs] : w.fetch)
      wants.push_back({w.page, writer, seqs});
  std::vector<sim::Message> replies;
  auto got = fetch_diffs(wants, replies, /*for_gc=*/true);

  // Stash or apply.  With the diff cache enabled the page stays invalid and
  // lazy — the fetched chunks are pinned locally and the next fault applies
  // them (the cache's first real hits) — until the page's pinned bytes
  // exceed the budget, at which point the backlog is applied and unpinned
  // right here, so a page nobody ever reads cannot accumulate pins forever.
  // With the cache disabled, the old diffs are applied immediately.  Either
  // way old notices lamport-precede anything learned after the barrier
  // (their writers knew every reclaimed record when they created them), so
  // applying the old prefix early is byte-identical to a later full apply.
  for (PageWork& w : work) {
    PageEntry& e = pages_[w.page];
    std::lock_guard<std::mutex> lock(e.mu);
    NOW_CHECK(e.state == PageState::kInvalid)
        << "page " << w.page << " has unapplied notices but is not invalid";
    if (cache_budget > 0) {
      for (const auto& [writer, seqs] : w.fetch) {
        for (std::uint32_t seq : seqs) {
          auto it = got.find({w.page, writer, seq});
          NOW_CHECK(it != got.end())
              << "writer " << writer << " had no diff for page " << w.page
              << " interval " << seq;
          std::vector<DiffBytes> owned;
          owned.reserve(it->second.size());
          for (const DiffChunkView& v : it->second)
            owned.emplace_back(v.first, v.first + v.second);
          e.diff_cache.insert_gc(writer, seq, std::move(owned),
                                 diff_cache_total_bytes_);
        }
      }
      if (e.diff_cache.bytes() <= cache_budget) continue;  // stay lazy
    }

    std::stable_sort(w.old.begin(), w.old.end(), applies_before);
    rt_.arena().protect_rw(id_, w.page);
    std::uint8_t* mem = rt_.arena().page_ptr(id_, w.page);
    std::size_t patched = 0;
    std::uint64_t applied = 0;
    for (const UnappliedNotice& n : w.old) {
      if (cache_budget > 0) {
        // Everything old is pinned by now (this pass or an earlier one).
        const auto* cached = e.diff_cache.find(n.writer, n.seq);
        NOW_CHECK(cached != nullptr)
            << "writer " << n.writer << " had no pinned diff for page "
            << w.page << " interval " << n.seq;
        for (const DiffBytes& d : *cached) {
          patched += diff_apply(mem, kPageSize, d);
          ++applied;
        }
        e.diff_cache.erase(n.writer, n.seq, diff_cache_total_bytes_);
      } else {
        auto it = got.find({w.page, n.writer, n.seq});
        NOW_CHECK(it != got.end())
            << "writer " << n.writer << " had no diff for page " << w.page
            << " interval " << n.seq;
        for (const DiffChunkView& d : it->second) {
          patched += diff_apply(mem, kPageSize, d.first, d.second);
          ++applied;
        }
      }
    }
    e.unapplied.erase(
        std::remove_if(e.unapplied.begin(), e.unapplied.end(),
                       [&](const UnappliedNotice& n) {
                         return n.seq <= floor[n.writer];
                       }),
        e.unapplied.end());
    rt_.arena().protect_none(id_, w.page);  // stays invalid: the fault is lazy
    stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
    clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                      (static_cast<double>(patched) / 1024.0));
  }
}

// ---------------------------------------------------------------------------
// On-demand GC exchange (ceiling-triggered, barrier-free)
//
// A barrier-free lock loop grows every node's knowledge log and diff store
// without bound: the barrier-time GC never runs, and the lock-chain floors
// of PR 5 only *propagate* floors established at barriers — they never
// establish one.  When a node's metadata footprint crosses
// meta_ceiling_bytes, it initiates a dedicated all-node exchange over the
// combining-tree fabric that establishes a fresh global floor right now:
//
//   initiator --kGcRequest(initiate)--> root
//   root assigns a generation, fans kGcRequest(solicit) down the tree
//   each node snapshots (log vt, validated floor), folds its children's
//     kGcArrive replies by vt_min, sends the fold up
//   root folds the global (floor, ack), fans kGcDepart down
//
// The departure's floor is min-over-nodes of the log vt — exactly the
// barrier fold's invariant, so truncation and validation reuse the PR 2/5
// machinery unchanged (gc_raise_floor).  The ack is min-over-nodes of the
// *validated* floor: every node has already resolved (pinned or applied)
// all notices at or below it, so writers may destroy the diff sources for
// their own component immediately — replacing the barrier path's one-epoch
// reclamation delay with a proof that the validation fetches already
// drained.  (A fault-path fetch never requests a seq <= the requester's own
// validated floor — validation left those pinned locally or applied — and
// an in-flight validation fetch targets seqs above the requester's
// previous validated floor, which the ack cannot exceed.)
//
// Handlers run on the service thread and never block.  Results are parked
// and applied by the compute thread at its next sync operation (gc_poll),
// preserving the partition invariant that only the compute thread mutates
// page diff caches.  Generations cannot overlap at a node: the root starts
// g+1 only after folding every g arrival, and a node's fold completes
// before its kGcArrive is sent up.
// ---------------------------------------------------------------------------

void Node::gc_poll() {
  const auto& cfg = rt_.config();
  if (!cfg.on_demand_gc_enabled()) return;
  // Apply a parked departure first: its floor may already put this node
  // back under the ceiling without another exchange.
  if (gc_parked_flag_.load(std::memory_order_acquire)) {
    maybe_crash();  // "mid GC exchange" crash site: departure parked, not applied
    VectorTime floor, ack;
    {
      std::lock_guard<std::mutex> lock(gc_depart_mu_);
      floor = std::move(gc_parked_floor_);
      ack = std::move(gc_parked_ack_);
      gc_parked_floor_.clear();
      gc_parked_ack_.clear();
      gc_parked_flag_.store(false, std::memory_order_release);
    }
    gc_raise_floor(floor);
    gc_reclaim_store_to(ack[id_]);
    if (cfg.lock_push_enabled()) relay_prune(gc_floor_snapshot());
  }
  if (meta_bytes() <= cfg.meta_ceiling_bytes) return;
  // One initiation per generation, not one per sync op: while the exchange
  // this node asked for is still in flight, stay quiet.
  const std::uint32_t seen = gc_gen_seen_.load(std::memory_order_relaxed);
  if (gc_gen_requested_ > seen) return;
  maybe_crash();  // "mid GC exchange" crash site: about to root an exchange
  gc_gen_requested_ = seen + 1;
  ByteWriter w;
  w.u8(0);   // initiate
  w.u32(0);  // generation: assigned by the root
  sim::Message m;
  m.type = kGcRequest;
  m.dst = rt_.topology().barrier_root();
  m.payload = w.take();
  send_compute(std::move(m));
}

void Node::gc_reclaim_store_to(std::uint32_t ack_seq) {
  if (ack_seq <= gc_reclaimed_seq_) return;
  gc_reclaimed_seq_ = ack_seq;
  std::uint64_t bytes = 0;
  std::size_t entries = 0;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    for (auto it = diff_store_.begin(); it != diff_store_.end();) {
      if (static_cast<std::uint32_t>(it->first) <= ack_seq) {
        for (const DiffBytes& d : it->second) bytes += d.size();
        ++entries;
        it = diff_store_.erase(it);
      } else {
        ++it;
      }
    }
  }
  if (entries) {
    diff_store_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
    stats_.gc_diff_bytes_reclaimed.fetch_add(bytes, std::memory_order_relaxed);
    NOW_LOG(kDebug, "node %u on-demand GC: reclaimed %zu diff entries (%llu bytes) <= seq %u",
            id_, entries, static_cast<unsigned long long>(bytes), ack_seq);
  }
}

void Node::relay_note(PageIndex page) { relay_pages_.push_back(page); }

void Node::relay_prune(const VectorTime& floor) {
  if (relay_pages_.empty()) return;
  std::sort(relay_pages_.begin(), relay_pages_.end());
  relay_pages_.erase(std::unique(relay_pages_.begin(), relay_pages_.end()),
                     relay_pages_.end());
  std::size_t chunks = 0;
  std::size_t bytes = 0;
  std::vector<PageIndex> keep;
  for (PageIndex page : relay_pages_) {
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    chunks += e.diff_cache.prune_below(floor, diff_cache_total_bytes_, &bytes);
    if (e.diff_cache.relay_bytes() > 0) keep.push_back(page);
  }
  relay_pages_ = std::move(keep);
  if (chunks) {
    stats_.relay_chunks_pruned.fetch_add(chunks, std::memory_order_relaxed);
    stats_.relay_bytes_pruned.fetch_add(bytes, std::memory_order_relaxed);
  }
}

void Node::on_gc_request(sim::Message&& m) {
  ByteReader r(m.payload);
  const bool solicit = r.u8() != 0;
  const std::uint32_t gen = r.u32();
  if (!solicit) {
    NOW_CHECK_EQ(id_, rt_.topology().barrier_root())
        << "GC initiation reached a non-root node";
    // Dedup: an initiation while an exchange is in flight joins it — its
    // departure serves every node, initiator or not.
    if (gc_root_active_) return;
    gc_root_active_ = true;
    stats_.gc_exchanges.fetch_add(1, std::memory_order_relaxed);
    gc_exchange_begin(++gc_root_gen_, m.arrive_ts_ns);
    return;
  }
  gc_exchange_begin(gen, m.arrive_ts_ns);
}

void Node::gc_exchange_begin(std::uint32_t gen, std::uint64_t base_ts) {
  NOW_CHECK(!gc_ex_.active) << "overlapping GC exchange generations";
  gc_ex_.active = true;
  gc_ex_.gen = gen;
  {
    // Snapshot under meta_mu_: a compute-thread validation pass racing this
    // snapshot can only make the validated floor *smaller* than current —
    // conservative for the ack fold, never unsafe.
    std::lock_guard<std::mutex> lock(meta_mu_);
    gc_ex_.fold_vt = log_.vt();
    gc_ex_.fold_ack = gc_floor_validated_;
  }
  const std::vector<std::uint32_t> children = rt_.topology().barrier_children(id_);
  gc_ex_.awaiting = static_cast<std::uint32_t>(children.size());
  for (std::uint32_t child : children) {
    ByteWriter w;
    w.u8(1);  // solicit
    w.u32(gen);
    sim::Message m;
    m.type = kGcRequest;
    m.dst = child;
    m.payload = w.take();
    send_service(std::move(m), base_ts);
  }
  gc_exchange_advance(base_ts);
}

void Node::gc_exchange_advance(std::uint64_t base_ts) {
  if (gc_ex_.awaiting > 0) return;
  gc_ex_.active = false;
  if (id_ != rt_.topology().barrier_root()) {
    ByteWriter w;
    w.u32(gc_ex_.gen);
    KnowledgeLog::serialize_vt(w, gc_ex_.fold_vt);
    KnowledgeLog::serialize_vt(w, gc_ex_.fold_ack);
    sim::Message up;
    up.type = kGcArrive;
    up.dst = rt_.topology().barrier_parent(id_);
    up.payload = w.take();
    send_service(std::move(up), base_ts);
    return;
  }
  gc_root_active_ = false;
  gc_depart_apply(gc_ex_.gen, gc_ex_.fold_vt, gc_ex_.fold_ack, base_ts);
}

void Node::on_gc_arrive(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t gen = r.u32();
  NOW_CHECK(gc_ex_.active && gc_ex_.gen == gen && gc_ex_.awaiting > 0)
      << "stray kGcArrive for generation " << gen;
  gc_ex_.fold_vt = vt_min(std::move(gc_ex_.fold_vt), KnowledgeLog::deserialize_vt(r));
  gc_ex_.fold_ack = vt_min(std::move(gc_ex_.fold_ack), KnowledgeLog::deserialize_vt(r));
  --gc_ex_.awaiting;
  gc_exchange_advance(m.arrive_ts_ns);
}

void Node::on_gc_depart(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t gen = r.u32();
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  const VectorTime ack = KnowledgeLog::deserialize_vt(r);
  gc_depart_apply(gen, floor, ack, m.arrive_ts_ns);
}

void Node::gc_depart_apply(std::uint32_t gen, const VectorTime& floor,
                           const VectorTime& ack, std::uint64_t base_ts) {
  // The manager-duty log lives on this service thread: truncate immediately.
  mgr_gc_to(floor);
  for (std::uint32_t child : rt_.topology().barrier_children(id_)) {
    ByteWriter w;
    w.u32(gen);
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_vt(w, ack);
    sim::Message m;
    m.type = kGcDepart;
    m.dst = child;
    m.payload = w.take();
    send_service(std::move(m), base_ts);
  }
  // Park for the compute thread's next gc_poll.  Two departures may land
  // between polls: merge by vt_max (both vectors are monotone across
  // generations, so the merge is the newest of each).
  {
    std::lock_guard<std::mutex> lock(gc_depart_mu_);
    if (gc_parked_floor_.empty()) {
      gc_parked_floor_ = floor;
      gc_parked_ack_ = ack;
    } else {
      gc_parked_floor_ = vt_max(std::move(gc_parked_floor_), floor);
      gc_parked_ack_ = vt_max(std::move(gc_parked_ack_), ack);
    }
    gc_parked_flag_.store(true, std::memory_order_release);
  }
  // Monotone max: a straggling lower-generation departure (reordered behind
  // a newer one on another path) must not roll the seen mark back.
  std::uint32_t seen = gc_gen_seen_.load(std::memory_order_relaxed);
  while (seen < gen && !gc_gen_seen_.compare_exchange_weak(
                           seen, gen, std::memory_order_relaxed)) {
  }
}

// ---------------------------------------------------------------------------
// Adaptive update protocol (hybrid invalidate/update, at every barrier)
// ---------------------------------------------------------------------------

void Node::update_scan_demote() {
  // pushed_pages_ is compute-thread-only: seeded by the previous barrier's
  // validate pass with the pages it left armed or partially covered.
  std::vector<PageIndex> scan;
  scan.swap(pushed_pages_);
  if (scan.empty()) return;
  std::sort(scan.begin(), scan.end());
  scan.erase(std::unique(scan.begin(), scan.end()), scan.end());

  std::map<std::uint32_t, std::vector<PageIndex>> deny;  // writer -> pages
  for (PageIndex page : scan) {
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.pushed_by == 0) continue;
    if (e.push_touched) {
      // The probe fired (or a fault on the page proved it live): the push
      // stream earns its keep.  Fresh observation window.
      e.push_touched = false;
      e.pushed_by = 0;
      continue;
    }
    // Pushed a whole epoch ago and never touched: the reader moved on.
    // Demote at every writer that pushed.  The armed contents stay correct,
    // so only the bookkeeping is dropped — a later fault on the page
    // revalidates locally through the empty-unapplied path.
    for (std::uint32_t wtr = 0; wtr < num_nodes_; ++wtr)
      if (e.pushed_by & (std::uint64_t{1} << wtr)) deny[wtr].push_back(page);
    e.pushed_by = 0;
    e.push_armed = false;
    e.pushes_since_probe = 0;
  }
  send_update_denies(deny);
}

void Node::send_update_denies(
    const std::map<std::uint32_t, std::vector<PageIndex>>& deny) {
  for (const auto& [wtr, pages] : deny) {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageIndex page : pages) w.u32(page);
    sim::Message m;
    m.type = kUpdateDeny;
    m.dst = wtr;
    m.payload = w.take();
    send_compute(std::move(m));
  }
}

void Node::update_push_promoted(std::uint64_t barrier_index) {
  if (epoch_dirty_.empty()) return;

  // The epoch's dirty pages that are promoted, with their stable readers.
  struct Item {
    PageIndex page = 0;
    const std::vector<std::uint32_t>* seqs = nullptr;
    std::uint64_t readers = 0;
  };
  std::vector<Item> items;
  {
    std::lock_guard<std::mutex> lock(copyset_mu_);
    for (auto& [page, seqs] : epoch_dirty_) {
      auto it = copyset_.find(page);
      if (it == copyset_.end() || !it->second.promoted) continue;
      const std::uint64_t readers =
          it->second.stable_set & ~(std::uint64_t{1} << id_);
      if (readers == 0) continue;
      items.push_back({page, &seqs, readers});
    }
  }
  if (items.empty()) {
    epoch_dirty_.clear();
    return;
  }
  std::sort(items.begin(), items.end(),
            [](const Item& a, const Item& b) { return a.page < b.page; });

  // Materialize any twin still pending for a pushed interval (the page is at
  // most PROT_READ once its interval closed, so contents are stable; same
  // rule as on_diff_request).
  for (const Item& item : items) {
    PageEntry& e = pages_[item.page];
    std::lock_guard<std::mutex> lock(e.mu);
    for (std::uint32_t seq : *item.seqs)
      if (e.twin_valid && e.twin.seq == seq) materialize_twin(item.page, e);
  }

  // One batched kUpdatePush per reader, serialized under a single diff-store
  // hold and sent after it drops.
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> msgs;
  std::uint64_t pages_pushed = 0;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    for (std::uint32_t reader = 0; reader < num_nodes_; ++reader) {
      if (reader == id_) continue;
      const std::uint64_t bit = std::uint64_t{1} << reader;
      std::uint32_t npages = 0;
      for (const Item& item : items) npages += (item.readers & bit) ? 1 : 0;
      if (npages == 0) continue;
      ByteWriter w;
      // Barrier tag: barrier() calls are globally aligned, so the reader's
      // validate pass for the *same* barrier index — and only it — consumes
      // this push (its service thread may park it a full barrier early).
      w.u32(static_cast<std::uint32_t>(barrier_index));
      w.u32(npages);
      for (const Item& item : items) {
        if (!(item.readers & bit)) continue;
        w.u32(item.page);
        w.u32(static_cast<std::uint32_t>(item.seqs->size()));
        for (std::uint32_t seq : *item.seqs) {
          // GC-floor interaction: the epoch's own intervals are always above
          // the reclaim prefix (the floor lags the epoch by construction),
          // so a pushed seq can never dangle into reclaimed diffs.
          NOW_CHECK_GT(seq, gc_drop_seq_)
              << "pushed interval below the reclaimed diff-store prefix";
          auto it = diff_store_.find(diff_store_key(item.page, seq));
          NOW_CHECK(it != diff_store_.end())
              << "push wants missing diff: page " << item.page << " interval "
              << seq;
          w.u32(seq);
          w.u32(static_cast<std::uint32_t>(it->second.size()));
          for (const DiffBytes& d : it->second) w.bytes(d.data(), d.size());
        }
      }
      msgs.emplace_back(reader, w.take());
      pages_pushed += npages;
    }
  }
  for (auto& [reader, payload] : msgs) {
    sim::Message m;
    m.type = kUpdatePush;
    m.dst = reader;
    m.payload = std::move(payload);
    send_compute(std::move(m));
  }
  stats_.update_pushes_sent.fetch_add(msgs.size(), std::memory_order_relaxed);
  stats_.update_pages_pushed.fetch_add(pages_pushed, std::memory_order_relaxed);
  epoch_dirty_.clear();
}

void Node::update_validate_pushed(std::uint64_t barrier_index) {
  // Drain exactly this barrier's pushes from the pending queue.  A push
  // tagged k is guaranteed parked before this pass runs at barrier k
  // (mailbox FIFO: the writer pushed before it could arrive, so before the
  // departure was sent); a push tagged k+1 — a faster writer already a
  // barrier ahead — stays queued until the records it describes have been
  // merged.
  std::vector<PendingPush> batch;
  {
    std::lock_guard<std::mutex> lock(push_mu_);
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pending_pushes_.size(); ++i) {
      PendingPush& pp = pending_pushes_[i];
      if (pp.barrier_index != barrier_index) {
        if (pp.barrier_index < barrier_index) {
          // On the perfect wire this is impossible: the writer pushed
          // before arriving at barrier k, so mailbox FIFO parks the push
          // before the departure that triggers this pass.  Under injected
          // faults the cross-link transitivity breaks — the push can be
          // dropped and its retransmission land after the validate pass —
          // and the stale push must be discarded: the push is an
          // optimization only (the pull path re-fetches anything it
          // carried), while applying a stale epoch's diffs late could
          // resurrect overwritten words.
          NOW_CHECK(rt_.config().chaos_enabled())
              << "update push missed its barrier";
          stats_.update_pushes_stale.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        // A faster writer already a barrier ahead: keep until its barrier.
        // Compact in place, guarding the self-move (v[i] = move(v[i])
        // empties the chunk vectors).
        if (keep != i) pending_pushes_[keep] = std::move(pp);
        ++keep;
        continue;
      }
      batch.push_back(std::move(pp));
    }
    pending_pushes_.resize(keep);
  }
  if (batch.empty()) return;
  std::stable_sort(batch.begin(), batch.end(),
                   [](const PendingPush& a, const PendingPush& b) {
                     return a.page < b.page;
                   });

  const auto& cfg = rt_.config();
  const std::size_t cache_budget = cfg.diff_cache_bytes_per_page;
  const std::uint32_t reprobe = std::max<std::uint32_t>(1, cfg.update_reprobe_epochs);
  std::vector<PageIndex> relist;
  std::map<std::uint32_t, std::vector<PageIndex>> deny;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const PageIndex page = batch[i].page;
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    // Park this page's pushed chunks in its diff cache (budgeted, droppable,
    // keyed (writer, seq) exactly like a fetched reply).  This runs on the
    // compute thread only, which is what keeps a push racing a pull
    // idempotent: whichever applies first erases the entry, the other's
    // copy is redundant bytes, never a second application.
    std::uint64_t writers = 0;
    bool any_kept = false;
    for (; i < batch.size() && batch[i].page == page; ++i) {
      PendingPush& pp = batch[i];
      writers |= std::uint64_t{1} << pp.writer;
      for (auto& [seq, chunks] : pp.seq_chunks)
        any_kept |=
            e.diff_cache.insert(pp.writer, seq, std::move(chunks), cache_budget,
                                diff_cache_total_bytes_, /*prefetched=*/false,
                                /*pushed=*/true);
    }
    --i;  // the for-loop's ++i re-advances past this page's run
    if (!any_kept) {
      // The budget rejected every pushed chunk (oversized epoch diffs, or a
      // page whose GC pins already fill it): these pushes can never land, so
      // without a demotion the writer would re-ship the same bytes every
      // epoch forever — the re-fetching fault keeps the copyset stable and
      // no armed probe ever fires.  Deny now; re-promotion backs off.
      for (std::uint32_t wtr = 0; wtr < num_nodes_; ++wtr)
        if (writers & (std::uint64_t{1} << wtr)) deny[wtr].push_back(page);
      continue;
    }
    e.pushed_by |= writers;
    if (e.state != PageState::kInvalid || e.unapplied.empty()) {
      // A racing pull-path fetch (lock-chain knowledge mid-epoch) already
      // applied everything; the push was redundant bytes.  Forget it so the
      // demotion scan doesn't misjudge the page.
      e.pushed_by = 0;
      continue;
    }
    // Eager apply only when the cached chunks cover *every* wanted interval
    // — applying a suffix out of lamport order could resurrect overwritten
    // bytes.  Partially covered pages stay lazy: the fault serves the cached
    // part locally and fetches the rest.
    bool covered = true;
    for (const UnappliedNotice& n : e.unapplied) {
      if (e.diff_cache.lookup(n.writer, n.seq) == nullptr) {
        covered = false;
        break;
      }
    }
    if (!covered) {
      relist.push_back(page);  // the demotion scan still judges it
      continue;
    }

    std::stable_sort(e.unapplied.begin(), e.unapplied.end(), applies_before);
    rt_.arena().protect_rw(id_, page);
    std::uint8_t* mem = rt_.arena().page_ptr(id_, page);
    std::size_t patched = 0;
    std::uint64_t applied = 0;
    for (const UnappliedNotice& n : e.unapplied) {
      const auto* cached = e.diff_cache.find(n.writer, n.seq);
      for (const DiffBytes& d : *cached) {
        patched += diff_apply(mem, kPageSize, d);
        ++applied;
      }
      e.diff_cache.erase(n.writer, n.seq, diff_cache_total_bytes_);
    }
    e.unapplied.clear();
    e.ever_valid = true;
    stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
    clock_.advance_us(cfg.diff_apply_per_kb_us *
                      (static_cast<double>(patched) / 1024.0));

    // Liveness probe cadence: every reprobe-th push is applied *armed* —
    // contents current but unmapped, so the next access faults once,
    // locally, and proves the reader still consumes the stream.  The pushes
    // in between (including the first: promotion already rests on observed
    // faults in consecutive epochs) validate outright and the post-barrier
    // fault disappears.  A reader that stops consuming burns at most
    // reprobe-1 validated pushes before a probe goes untouched and the
    // demotion lands.
    const bool probe = (++e.pushes_since_probe % reprobe) == 0;
    if (probe) {
      rt_.arena().protect_none(id_, page);
      e.push_armed = true;
      e.push_touched = false;
      relist.push_back(page);  // the next barrier's scan judges the probe
    } else {
      rt_.arena().protect_read(id_, page);
      e.state = PageState::kReadOnly;
      e.pushed_by = 0;
      stats_.update_push_hits.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!relist.empty())
    pushed_pages_.insert(pushed_pages_.end(), relist.begin(), relist.end());
  send_update_denies(deny);
}

void Node::update_copyset_fold(std::uint64_t epoch) {
  const std::uint32_t promote = rt_.config().update_promote_epochs;
  std::lock_guard<std::mutex> lock(copyset_mu_);
  for (auto it = copyset_.begin(); it != copyset_.end();) {
    PageCopyset& cs = it->second;
    const std::uint64_t cur = cs.epoch_readers[epoch & 1];
    cs.epoch_readers[epoch & 1] = 0;
    if (cs.promoted) {
      // A request while promoted is a newcomer (or a demoted reader faulting
      // its way back): fold it into the push set — the armed probe demotes
      // it again if the interest was transient.
      cs.stable_set |= cur;
      ++it;
      continue;
    }
    if (cur == 0) {
      // No requests this epoch is no evidence either way: the writer may
      // not have written (nothing to fetch), or reads alternate with
      // compute phases.  Keep the streak — a *changed* reader set breaks
      // it below, and a stale promotion is the armed probe's job to kill.
      if (cs.stable_set == 0 && cs.epoch_readers[(epoch + 1) & 1] == 0) {
        // Never-stable and quiescent: drop the entry so the copyset map
        // tracks live sharing, not history.
        it = copyset_.erase(it);
      } else {
        ++it;
      }
      continue;
    }
    if (cur == cs.stable_set) {
      ++cs.stable_epochs;
    } else {
      cs.stable_set = cur;
      cs.stable_epochs = 1;
    }
    // Each past demotion doubles the streak required to re-promote (capped):
    // sharing that only *looks* stable stops churning promote/demote cycles,
    // while a first-time-stable page promotes at the configured threshold.
    const std::uint32_t threshold =
        promote << std::min<std::uint32_t>(cs.denials, 4);
    if (cs.stable_epochs >= threshold) cs.promoted = true;
    ++it;
  }
}

// ---------------------------------------------------------------------------
// Locks
// ---------------------------------------------------------------------------

std::uint32_t Node::consume_lock_grant(sim::Message& grant) {
  ByteReader r(grant.payload);
  const std::uint32_t lock_id = r.u32();
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
  arrive(grant);
  // The push section must land after the merge (the pushed diffs cover the
  // write notices the records just created) and runs on this compute thread,
  // which is the only mutator of the page diff caches — the same partition
  // invariant the fault path relies on.
  apply_lock_push(lock_id, grant.src, r);
  if (rt_.config().gc_lock_floors) gc_raise_floor(floor);
  // Retained relay chunks at or below the applied floor can never serve a
  // fault nor ride a future grant delta again: drop them here, on the chain
  // itself, so a rotating barrier-free loop's relay stock stays bounded.
  if (rt_.config().lock_push_enabled()) relay_prune(gc_floor_snapshot());
  return lock_id;
}

void Node::lock_acquire(std::uint32_t lock_id) {
  sync_cpu();
  maybe_crash();  // "mid lock chain" crash site (requester side)
  gc_poll();
  stats_.lock_acquires.fetch_add(1, std::memory_order_relaxed);
  const bool lock_push = rt_.config().lock_push_enabled();
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(!st.held) << "recursive acquire of lock " << lock_id;
    if (st.cached) {
      // This node was the last holder; re-acquiring is free (TreadMarks lock
      // caching).  Consistency needs nothing: the release chain ends here.
      st.held = true;
      stats_.lock_acquires_cached.fetch_add(1, std::memory_order_relaxed);
      if (lock_push) {
        held_locks_.push_back(lock_id);
        cs_touched_[lock_id].clear();
      }
      return;
    }
    st.awaiting = true;
  }

  ByteWriter w;
  w.u32(lock_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
    // Applied GC floor, for the manager's sparse duty log (see sema_signal).
    KnowledgeLog::serialize_vt(w, gc_floor_applied_);
  }
  sim::Message m;
  m.type = kLockAcquire;
  m.dst = rt_.topology().lock_manager(lock_id);
  m.payload = w.take();
  send_compute(std::move(m));

  sim::Message grant = lock_grant_slot_.take();
  const std::uint32_t granted = consume_lock_grant(grant);
  NOW_CHECK_EQ(granted, lock_id);
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    st.held = true;
    st.cached = true;
    st.awaiting = false;
  }
  if (lock_push) {
    held_locks_.push_back(lock_id);
    cs_touched_[lock_id].clear();
  }
}

void Node::lock_release(std::uint32_t lock_id) {
  sync_cpu();
  maybe_crash();  // "mid lock chain" crash site (holder side: grant withheld)
  gc_poll();
  close_interval();
  if (rt_.config().lock_push_enabled()) {
    held_locks_.erase(
        std::remove(held_locks_.begin(), held_locks_.end(), lock_id),
        held_locks_.end());
    // Fold before any grant can be assembled for this release: the pending
    // grant below (and any later cached grant from the service thread) reads
    // the protected set the fold just updated.
    lock_push_fold(lock_id);
    lock_push_judge(lock_id);
  }
  std::optional<PendingGrant> pending;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(st.held) << "release of unheld lock " << lock_id;
    st.held = false;
    if (st.pending) {
      pending = std::move(st.pending);
      st.pending.reset();
      st.cached = false;
    }
  }
  if (pending)
    grant_lock(lock_id, pending->requester, pending->vt, 0, /*from_service=*/false);
}

void Node::grant_lock(std::uint32_t lock_id, std::uint32_t requester,
                      const VectorTime& vt, std::uint64_t base_ts,
                      bool from_service) {
  // Both threads can grant to the same requester at once (compute: a
  // pending grant at release; service: a forward hitting the ownership
  // cache — two disjoint locks migrating along the same edge).  The cut
  // and the enqueue must not interleave, or the later cut's grant lands
  // on the wire first and the requester's dense merge sees a gap.
  std::lock_guard<std::mutex> order(delta_send_mu_[requester]);
  auto delta = take_delta_for(requester, Cache::kNodeLog, &vt);
  if (log_enabled(LogLevel::kDebug)) {
    std::string recs;
    for (const auto& rec : delta)
      recs += " (" + std::to_string(rec->node) + "," + std::to_string(rec->seq) + ")";
    NOW_LOG(kDebug, "node %u: grant lock %u to %u: delta%s [req vt0=%u vt1=%u]",
            id_, lock_id, requester, recs.empty() ? " <empty>" : recs.c_str(),
            vt.empty() ? 0 : vt[0], vt.size() > 1 ? vt[1] : 0);
  }
  ByteWriter w;
  w.u32(lock_id);
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
  KnowledgeLog::serialize_records(w, delta);
  append_lock_push(w, lock_id, vt, delta);
  sim::Message m;
  m.type = kLockGrant;
  m.dst = requester;
  m.payload = w.take();
  if (from_service)
    send_service(std::move(m), base_ts);
  else
    send_compute(std::move(m));
}

void Node::on_lock_acquire(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const VectorTime vt = KnowledgeLog::deserialize_vt(r);
  // The requester's applied GC floor: raise the sparse manager duty log
  // before its next delta is cut, exactly like the sema/cond paths — this is
  // what lets lock-heavy phases reclaim manager-log records at all.
  const VectorTime floor = KnowledgeLog::deserialize_vt(r);
  if (rt_.config().gc_lock_floors) mgr_gc_to(floor);
  mgr_route_lock(lock_id, m.src, vt, m.arrive_ts_ns);
}

void Node::mgr_route_lock(std::uint32_t lock_id, std::uint32_t requester,
                          const VectorTime& vt, std::uint64_t base_ts) {
  LockMgrState& L = mgr_.locks[lock_id];
  if (!L.ever_requested) {
    // Never held: the manager grants directly, with whatever knowledge has
    // been routed through it (usually nothing).
    L.ever_requested = true;
    L.tail = requester;
    ByteWriter w;
    w.u32(lock_id);
    KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
    KnowledgeLog::serialize_records(w, mgr_delta_since(vt));
    w.u32(0);  // no migratory push from the manager (it holds no diffs)
    sim::Message grant;
    grant.type = kLockGrant;
    grant.dst = requester;
    grant.payload = w.take();
    send_service(std::move(grant), base_ts);
    return;
  }
  const std::uint32_t prev = L.tail;
  L.tail = requester;
  ByteWriter w;
  w.u32(lock_id);
  w.u32(requester);
  KnowledgeLog::serialize_vt(w, vt);
  sim::Message fwd;
  fwd.type = kLockForward;
  fwd.dst = prev;
  fwd.payload = w.take();
  send_service(std::move(fwd), base_ts);
}

void Node::on_lock_forward(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t requester = r.u32();
  const VectorTime vt = KnowledgeLog::deserialize_vt(r);

  NOW_LOG(kDebug, "node %u: forward lock %u -> requester %u", id_, lock_id, requester);
  if (requester == id_) {
    // A condvar wakeup routed back to ourselves: nobody acquired the lock
    // since we released it in cond_wait, so we still cache it.
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(!st.held && st.cached && st.awaiting)
        << "self-forward in unexpected lock state";
    ByteWriter w;
    w.u32(lock_id);
    KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
    KnowledgeLog::serialize_records(w, {});
    w.u32(0);  // nothing to push to ourselves
    sim::Message grant;
    grant.type = kLockGrant;
    grant.dst = id_;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
    return;
  }

  bool grant_now = false;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    // `awaiting && cached` means our compute thread is blocked in cond_wait:
    // it already released the lock (keeping the ownership cache), so the
    // service thread can pass the lock on immediately.  Queuing here would
    // deadlock — the signal that wakes us needs this very lock.
    if (st.held || (st.awaiting && !st.cached)) {
      NOW_CHECK(!st.pending) << "two pending lock requesters";
      st.pending = PendingGrant{requester, vt};
    } else {
      NOW_CHECK(st.cached) << "lock forward reached a non-owner";
      st.cached = false;
      grant_now = true;
    }
  }
  NOW_LOG(kDebug, "node %u: forward lock %u: %s", id_, lock_id,
          grant_now ? "grant from cache" : "queued pending");
  if (grant_now) grant_lock(lock_id, requester, vt, m.arrive_ts_ns, /*from_service=*/true);
}

// ---------------------------------------------------------------------------
// Migratory lock push: diffs piggybacked on the kLockGrant chain
// ---------------------------------------------------------------------------

void Node::lock_push_fold(std::uint32_t lock_id) {
  std::vector<PageIndex> touched;
  auto tit = cs_touched_.find(lock_id);
  if (tit != cs_touched_.end()) touched = std::move(tit->second);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  const std::uint32_t probe =
      std::max<std::uint32_t>(1, rt_.config().lock_push_probe);
  std::lock_guard<std::mutex> lock(lock_protect_mu_);
  auto& prot = lock_protect_[lock_id];
  for (PageIndex pg : touched) {
    LockPushStat& ps = prot[pg];
    ps.untouched = 0;
    ++ps.streak;
    // Exponential re-admission backoff: each past denial doubles the touch
    // streak required before the page pushes again (capped), so sharing
    // that only *looks* migratory stops burning push bytes while a page
    // touched in every critical section joins the set immediately.
    const std::uint32_t need = 1u << std::min<std::uint32_t>(ps.denials, 4);
    if (ps.streak >= need) ps.member = true;
  }
  for (auto it = prot.begin(); it != prot.end();) {
    if (std::binary_search(touched.begin(), touched.end(), it->first)) {
      ++it;
      continue;
    }
    LockPushStat& ps = it->second;
    ps.streak = 0;
    if (++ps.untouched >= probe) {
      // Untouched for lock_push_probe consecutive of our own critical
      // sections: the page is no longer part of what this lock protects.
      ps.member = false;
      if (ps.denials == 0) {
        // Quiescent and never denied: forget the page entirely, so the map
        // tracks live sharing rather than history.
        it = prot.erase(it);
        continue;
      }
    }
    ++it;
  }
}

void Node::lock_push_judge(std::uint32_t lock_id) {
  auto it = lock_armed_judge_.find(lock_id);
  if (it == lock_armed_judge_.end() || it->second.empty()) return;
  std::vector<LockArmed> armed = std::move(it->second);
  it->second.clear();

  std::map<std::uint32_t, std::vector<PageIndex>> deny;  // pusher -> pages
  for (const LockArmed& a : armed) {
    PageEntry& e = pages_[a.page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (a.armed) {
      // Still armed after the whole critical section ran: the push was dead
      // weight.  (A consumed probe cleared the flag at its fault and counted
      // a hit; a fresh write notice also cleared it — no verdict then.)
      if (!e.lock_push_armed) continue;
      e.lock_push_armed = false;  // contents stay current; bookkeeping drops
    } else {
      // Partial-push probe: the chunks were parked, not applied.  If the
      // page is still invalid with unapplied notices, no fault consumed
      // them all critical section long — the pusher is shipping bytes
      // nobody reads — while a page that went valid was read: no verdict.
      // Heuristic, not proof: a page consumed mid-CS and then re-staled by
      // an unrelated sync (a flush notice, say) is denied unfairly.  The
      // verdict only moves bookkeeping — a hot page re-admits after the
      // backoff streak of touched critical sections, contents never depend
      // on it.
      if (e.state != PageState::kInvalid || e.unapplied.empty()) continue;
    }
    deny[a.writer].push_back(a.page);
  }
  for (const auto& [pusher, pages] : deny)
    send_lock_push_deny(lock_id, pusher, pages);
}

void Node::send_lock_push_deny(std::uint32_t lock_id, std::uint32_t pusher,
                               const std::vector<PageIndex>& pages) {
  ByteWriter w;
  w.u32(lock_id);
  w.u32(static_cast<std::uint32_t>(pages.size()));
  for (PageIndex pg : pages) w.u32(pg);
  sim::Message m;
  m.type = kLockPushDeny;
  m.dst = pusher;
  m.payload = w.take();
  send_compute(std::move(m));
}

void Node::append_lock_push(ByteWriter& w, std::uint32_t lock_id,
                            const VectorTime& req_vt,
                            const std::vector<IntervalRecordPtr>& delta) {
  const auto& cfg = rt_.config();
  if (!cfg.lock_push_enabled() || delta.empty()) {
    w.u32(0);
    return;
  }

  // Candidate pages: protected-set members named by the delta's records.
  // Records of *other* nodes matter too — on a rotating grant chain the
  // delta relays the whole chain history the requester missed, so a page
  // everyone updates under the lock carries several writers' notices.  Our
  // own intervals' diffs come from the diff store; relayed writers' diffs
  // come from this page's requester-side cache, where the fault path and
  // the push-apply path *retain* chunks for lock-touched pages exactly so
  // the chain can forward them (the migratory relay).  A page the relay
  // cannot fully cover falls back to the whole-page image, and failing
  // that to a partial own-diff push or the plain pull path.
  struct Cand {
    PageIndex page = 0;
    // Every delta record naming the page, as (writer, seq) in delta order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> entries;
  };
  std::vector<Cand> cands;
  {
    std::lock_guard<std::mutex> lock(lock_protect_mu_);
    auto it = lock_protect_.find(lock_id);
    if (it == lock_protect_.end()) {
      w.u32(0);
      return;
    }
    std::map<PageIndex, std::size_t> index;
    for (const IntervalRecordPtr& rec : delta) {
      for (PageIndex pg : rec->pages) {
        auto ps = it->second.find(pg);
        if (ps == it->second.end() || !ps->second.member) continue;
        auto [slot, fresh] = index.emplace(pg, cands.size());
        if (fresh) cands.push_back({pg, {}});
        cands[slot->second].entries.emplace_back(rec->node, rec->seq);
      }
    }
  }
  if (cands.empty()) {
    w.u32(0);
    return;
  }

  // Whole-page images are sound only when our knowledge dominates the
  // requester's: then everything it could already have applied to the page,
  // our valid copy contains too, and the memcpy can never clobber a
  // concurrent writer's applied words.  The snapshot vector time rides with
  // each image so the requester can verify coverage of every notice it
  // holds.  (Diff pushes need no such guard — they patch exactly the bytes
  // the named intervals wrote, like any fetched diff.)
  bool dominates = true;
  VectorTime grant_vt;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    grant_vt = log_.vt();
    for (std::uint32_t i = 0; i < num_nodes_; ++i) {
      if (req_vt[i] > grant_vt[i]) {
        dominates = false;
        break;
      }
    }
  }

  const std::size_t image_sz = kPageSize + 6 + 4 * num_nodes_;
  ByteWriter pw;  // entries, counted as we go (npush is written first below)
  std::uint32_t npush = 0;
  std::size_t budget = cfg.lock_push_bytes;
  const std::uint32_t reprobe =
      std::max<std::uint32_t>(1, cfg.lock_push_reprobe);
  for (const Cand& c : cands) {
    PageEntry& e = pages_[c.page];
    std::lock_guard<std::mutex> lock(e.mu);
    // Materialize any twin still pending for a pushed own interval (the
    // page is at most PROT_READ once its interval closed, so its bytes are
    // stable; same rule — and same e.mu-before-store_mu_ order — as
    // on_diff_request).
    for (const auto& [wtr, seq] : c.entries)
      if (wtr == id_ && e.twin_valid && e.twin.seq == seq)
        materialize_twin(c.page, e);

    // Size the push: own intervals from the diff store, relayed ones from
    // the page's retained cache.  Own store entries cannot be reclaimed
    // underneath this grant (delta seqs are above the requester's vector
    // time, which dominates every announced floor, and own-diff reclamation
    // lags the floor by one reclamation point — the NOW_CHECK fails loudly
    // if that invariant is ever broken); retained cache entries are stable
    // under e.mu, which we hold until they are serialized.
    std::size_t diff_sz = 0;
    std::size_t own_sz = 0;  // the subset a partial push actually serializes
    bool relay_covered = true;
    std::size_t own = 0;
    {
      std::lock_guard<std::mutex> sl(store_mu_);
      for (const auto& [wtr, seq] : c.entries) {
        if (wtr == id_) {
          auto it = diff_store_.find(diff_store_key(c.page, seq));
          NOW_CHECK(it != diff_store_.end())
              << "lock push sourced a reclaimed diff: page " << c.page
              << " interval " << seq;
          ++own;
          std::size_t sz = 12;  // writer + seq + chunk count
          for (const DiffBytes& d : it->second) sz += 4 + d.size();
          diff_sz += sz;
          own_sz += sz;
        } else if (const auto* chunks = e.diff_cache.find(wtr, seq)) {
          diff_sz += 12;
          for (const DiffBytes& d : *chunks) diff_sz += 4 + d.size();
        } else {
          relay_covered = false;  // evicted (or never seen): no full relay
        }
      }
    }

    // Image fallback: the relay cannot cover the page (missing foreign
    // chunks) or a dense rewrite made the chunked diffs outgrow the page.
    std::vector<std::uint8_t> image;
    if ((!relay_covered || diff_sz > kPageSize) && dominates &&
        image_sz <= budget && e.state == PageState::kReadOnly) {
      // kReadOnly only: a writable page is mid-interval on our own compute
      // thread and copying it would race the writes byte-for-byte.
      const std::uint8_t* mem = rt_.arena().page_ptr(id_, c.page);
      image.assign(mem, mem + kPageSize);
    }
    const bool as_image = !image.empty();
    const bool as_diffs = !as_image && relay_covered && diff_sz <= budget &&
                          diff_sz <= kPageSize;
    // Partial own-diff push: the requester still pulls the rest, but skips
    // the round trip to *us* (its fault finds our chunks cached).  Only the
    // own bytes are serialized, so only they are charged to the budget.
    const bool as_partial =
        !as_image && !as_diffs && own > 0 && own_sz <= budget;
    if (!as_image && !as_diffs && !as_partial) continue;  // plain pull path

    // Armed-probe cadence: every reprobe-th push of this (lock, page) is
    // applied armed at the requester, proving the chain still consumes it.
    bool arm = false;
    {
      std::lock_guard<std::mutex> plock(lock_protect_mu_);
      LockPushStat& ps = lock_protect_[lock_id][c.page];
      arm = (++ps.pushes % reprobe) == 0;
    }

    pw.u32(c.page);
    pw.u8(as_image ? 1 : 0);
    pw.u8(arm ? 1 : 0);
    if (as_image) {
      KnowledgeLog::serialize_vt(pw, grant_vt);
      pw.bytes(image.data(), image.size());
      budget -= image_sz;
    } else {
      ByteWriter entries;
      std::uint32_t n = 0;
      std::lock_guard<std::mutex> sl(store_mu_);
      for (const auto& [wtr, seq] : c.entries) {
        const std::vector<DiffBytes>* chunks = nullptr;
        if (wtr == id_) {
          auto it = diff_store_.find(diff_store_key(c.page, seq));
          NOW_CHECK(it != diff_store_.end())
              << "lock push sourced a reclaimed diff: page " << c.page
              << " interval " << seq;
          chunks = &it->second;
        } else if (as_diffs) {
          chunks = e.diff_cache.find(wtr, seq);
          NOW_CHECK(chunks != nullptr);  // stable under e.mu since sizing
        } else {
          continue;  // partial push: own intervals only
        }
        entries.u32(wtr);
        entries.u32(seq);
        entries.u32(static_cast<std::uint32_t>(chunks->size()));
        for (const DiffBytes& d : *chunks) entries.bytes(d.data(), d.size());
        ++n;
      }
      pw.u32(n);
      pw.raw(entries.data().data(), entries.size());
      budget -= as_diffs ? diff_sz : own_sz;
    }
    ++npush;
  }
  w.u32(npush);
  if (npush > 0) {
    w.raw(pw.data().data(), pw.size());
    stats_.lock_pushes_sent.fetch_add(1, std::memory_order_relaxed);
    stats_.lock_pages_pushed.fetch_add(npush, std::memory_order_relaxed);
  }
}

void Node::apply_lock_push(std::uint32_t lock_id, std::uint32_t writer,
                           ByteReader& r) {
  const std::uint32_t npush = r.u32();
  if (npush == 0) return;
  const auto& cfg = rt_.config();
  const std::size_t cache_budget = cfg.diff_cache_bytes_per_page;
  std::size_t patched = 0;
  std::uint64_t applied = 0;
  std::vector<PageIndex> deny;  // pushes the cache budget can never hold

  auto finish = [&](PageEntry& e, PageIndex page, bool arm) {
    e.ever_valid = true;
    if (arm) {
      // Probe: contents current, page left unmapped — the critical
      // section's first access faults once, locally, and the release
      // judges a page still armed as a dead push (lock_push_judge).
      rt_.arena().protect_none(id_, page);
      e.lock_push_armed = true;
      lock_armed_judge_[lock_id].push_back({page, writer, /*armed=*/true});
    } else {
      rt_.arena().protect_read(id_, page);
      e.state = PageState::kReadOnly;
      stats_.lock_push_hits.fetch_add(1, std::memory_order_relaxed);
    }
  };

  for (std::uint32_t p = 0; p < npush; ++p) {
    const PageIndex page = r.u32();
    const std::uint8_t kind = r.u8();
    const bool arm = r.u8() != 0;
    PageEntry& e = pages_[page];

    if (kind == 1) {  // whole-page image
      const VectorTime img_vt = KnowledgeLog::deserialize_vt(r);
      const auto [img, n] = r.bytes_view();
      NOW_CHECK_EQ(n, kPageSize);
      std::lock_guard<std::mutex> lock(e.mu);
      if (e.state != PageState::kInvalid || e.unapplied.empty()) continue;
      // The granter's valid copy had every notice it knew applied, so the
      // image covers exactly the notices at or below its snapshot vector
      // time — including the relayed chain history of other writers.  A
      // notice above it (a writer concurrent with the granter) cannot be
      // ordered against the image: pull path instead.
      bool covered = true;
      for (const UnappliedNotice& un : e.unapplied) {
        if (un.seq > img_vt[un.writer]) {
          covered = false;
          break;
        }
      }
      if (!covered) continue;
      rt_.arena().protect_rw(id_, page);
      std::memcpy(rt_.arena().page_ptr(id_, page), img, kPageSize);
      patched += kPageSize;
      ++applied;
      e.unapplied.clear();
      finish(e, page, arm);
      continue;
    }

    // Diff push: own the chunks and park them in the page's cache, keyed
    // (writer, seq) exactly like a fetched reply — idempotent against any
    // concurrent pull of the same intervals.  Applied entries are RETAINED
    // (not erased): this page is lock-protected, and the retained chunks
    // are what lets our own later grant relay the chain's accumulated
    // diffs onward instead of shipping whole-page images.
    const std::uint32_t nentries = r.u32();
    std::vector<std::tuple<std::uint32_t, std::uint32_t, std::vector<DiffBytes>>>
        wire(nentries);
    for (std::uint32_t i = 0; i < nentries; ++i) {
      std::get<0>(wire[i]) = r.u32();
      std::get<1>(wire[i]) = r.u32();
      const std::uint32_t nchunks = r.u32();
      std::get<2>(wire[i]).reserve(nchunks);
      for (std::uint32_t k = 0; k < nchunks; ++k) {
        const auto [ptr, nb] = r.bytes_view();
        std::get<2>(wire[i]).emplace_back(ptr, ptr + nb);
      }
    }
    std::lock_guard<std::mutex> lock(e.mu);
    if (e.state != PageState::kInvalid || e.unapplied.empty()) continue;
    bool any_kept = false;
    for (auto& [wtr, seq, chunks] : wire)
      any_kept |= e.diff_cache.insert(wtr, seq, std::move(chunks),
                                      cache_budget, diff_cache_total_bytes_,
                                      /*prefetched=*/false, /*pushed=*/true);
    // Retained entries on this lock-protected page are relay stock: mark
    // them so the prune pass can drop them once a floor covers them
    // (mark_relay no-ops on budget-rejected keys).
    for (const auto& [wtr, seq, chunks] : wire) e.diff_cache.mark_relay(wtr, seq);
    if (any_kept) relay_note(page);
    if (!any_kept) {
      // The cache budget rejected every chunk (GC pins already fill it, or
      // oversized diffs): these pushes can never land, and the re-fetching
      // fault would keep the protected set stable forever.  Deny now;
      // re-admission backs off.
      deny.push_back(page);
      continue;
    }
    // Apply only when the cache now covers every wanted interval — applying
    // a suffix out of lamport order could resurrect overwritten bytes.
    // Partially covered pages stay lazy: the fault serves the cached part
    // locally and fetches only the rest.
    bool covered = true;
    for (const UnappliedNotice& un : e.unapplied) {
      if (e.diff_cache.lookup(un.writer, un.seq) == nullptr) {
        covered = false;
        break;
      }
    }
    if (!covered) {
      // Partially covered: the parked chunks serve the fault if one comes.
      // On a probe grant, judge that at release — a page that stays invalid
      // through the whole critical section is a dead push and must demote,
      // or a chronic partial pusher would ship its bytes forever.
      if (arm) lock_armed_judge_[lock_id].push_back({page, writer, false});
      continue;
    }
    std::stable_sort(e.unapplied.begin(), e.unapplied.end(), applies_before);
    rt_.arena().protect_rw(id_, page);
    std::uint8_t* mem = rt_.arena().page_ptr(id_, page);
    for (const UnappliedNotice& un : e.unapplied) {
      const auto* cached = e.diff_cache.lookup(un.writer, un.seq);
      NOW_CHECK(cached != nullptr);
      for (const DiffBytes& d : cached->chunks) {
        patched += diff_apply(mem, kPageSize, d);
        ++applied;
      }
      // Droppable entries are retained for the migratory relay; pinned ones
      // (barrier-GC stashes of reclaimed diffs) must release on apply, same
      // as on the fault path — their seqs are below the GC floor, so no
      // grant delta can ever name them again and a stale pin would leak
      // pinned bytes forever.
      if (cached->pinned)
        e.diff_cache.erase(un.writer, un.seq, diff_cache_total_bytes_);
    }
    e.unapplied.clear();
    finish(e, page, arm);
  }

  if (applied > 0) {
    stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
    clock_.advance_us(cfg.diff_apply_per_kb_us *
                      (static_cast<double>(patched) / 1024.0));
  }
  if (!deny.empty()) send_lock_push_deny(lock_id, writer, deny);
}

// ---------------------------------------------------------------------------
// Semaphores
// ---------------------------------------------------------------------------

void Node::sema_wait(std::uint32_t sema_id) {
  sync_cpu();
  maybe_crash();
  gc_poll();
  stats_.sema_ops.fetch_add(1, std::memory_order_relaxed);
  ByteWriter w;
  w.u32(sema_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
  }
  sim::Message reply = rpc_call(rt_.topology().sema_manager(sema_id), kSemaWait, w.take());
  ByteReader r(reply.payload);
  merge_and_invalidate(KnowledgeLog::deserialize_records(r));
}

void Node::sema_signal(std::uint32_t sema_id) {
  sync_cpu();
  maybe_crash();
  gc_poll();
  stats_.sema_ops.fetch_add(1, std::memory_order_relaxed);
  close_interval();
  const std::uint32_t mgr = rt_.topology().sema_manager(sema_id);
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(sema_id);
  // The GC floor rides on every delta bound for a manager log: the sparse
  // manager log raises its own floor before merging, so a delta that starts
  // above records the manager never saw still merges contiguously — with no
  // assumption about whether the manager has processed its own barrier
  // departure yet.
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());
  KnowledgeLog::serialize_records(w, delta);
  rpc_call(mgr, kSemaSignal, w.take());  // kSemaAck
}

void Node::on_sema_wait(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t sema_id = r.u32();
  VectorTime vt = KnowledgeLog::deserialize_vt(r);
  SemaMgrState& S = mgr_.semas[sema_id];
  if (S.count > 0) {
    --S.count;
    ByteWriter w;
    KnowledgeLog::serialize_records(w, mgr_delta_since(vt));
    sim::Message grant;
    grant.type = kSemaGrant;
    grant.dst = m.src;
    grant.seq = m.seq;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
  } else {
    S.waiters.push_back({m.src, std::move(vt), m.seq});
  }
}

void Node::on_sema_signal(sim::Message&& m) {
  ByteReader r(m.payload);
  const std::uint32_t sema_id = r.u32();
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  SemaMgrState& S = mgr_.semas[sema_id];
  if (!S.waiters.empty()) {
    SemaWaiter wtr = std::move(S.waiters.front());
    S.waiters.pop_front();
    ByteWriter w;
    KnowledgeLog::serialize_records(w, mgr_delta_since(wtr.vt));
    sim::Message grant;
    grant.type = kSemaGrant;
    grant.dst = wtr.node;
    grant.seq = wtr.rpc_seq;
    grant.payload = w.take();
    send_service(std::move(grant), m.arrive_ts_ns);
  } else {
    ++S.count;
  }
  sim::Message ack;
  ack.type = kSemaAck;
  ack.dst = m.src;
  ack.seq = m.seq;
  send_service(std::move(ack), m.arrive_ts_ns);
}

// ---------------------------------------------------------------------------
// Condition variables
// ---------------------------------------------------------------------------

void Node::cond_wait(std::uint32_t lock_id, std::uint32_t cond_id) {
  NOW_LOG(kDebug, "node %u: cond_wait(%u,%u) begin", id_, lock_id, cond_id);
  sync_cpu();
  gc_poll();
  stats_.cond_ops.fetch_add(1, std::memory_order_relaxed);
  close_interval();
  const bool lock_push = rt_.config().lock_push_enabled();
  if (lock_push) {
    // cond_wait releases the lock: fold and judge the ending critical
    // section exactly as lock_release does, before any grant can be built
    // from this release.
    held_locks_.erase(
        std::remove(held_locks_.begin(), held_locks_.end(), lock_id),
        held_locks_.end());
    lock_push_fold(lock_id);
    lock_push_judge(lock_id);
  }

  // Register at the manager FIRST: the wait message reaches the manager's
  // mailbox before any signal that the lock's next holder could issue, which
  // is what makes release-and-wait atomic (no lost wakeups).
  const std::uint32_t mgr = rt_.topology().lock_manager(lock_id);
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(lock_id);
  w.u32(cond_id);
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    KnowledgeLog::serialize_vt(w, log_.vt());
    KnowledgeLog::serialize_vt(w, gc_floor_applied_);  // see sema_signal
  }
  KnowledgeLog::serialize_records(w, delta);
  // On a perfect wire "reaches the mailbox first" holds by construction:
  // send_compute delivers synchronously, so the registration is queued
  // before we release the lock below.  On a lossy wire it does not — the
  // registration can be dropped and retransmitted milliseconds later, after
  // the released lock was granted onward and the next holder's signal
  // already hit the manager (a signal with no waiter is a legal noop, so
  // the wakeup is simply lost and we block forever).  When the reliability
  // channel is armed, turn the registration into an rpc: hold the lock
  // until the manager confirms we are on the queue (kCondWaitAck), exactly
  // the request-response shape TreadMarks' UDP protocol gave every message.
  const bool ack_registration =
      rt_.config().chaos_enabled() || rt_.config().net_reliable;
  const std::uint64_t tok = ack_registration ? rpc_.begin() : 0;
  sim::Message m;
  m.type = kCondWait;
  m.dst = mgr;
  m.seq = tok;
  m.payload = w.take();
  send_compute(std::move(m));
  if (ack_registration) {
    sim::Message ack = rpc_.wait(tok);
    arrive(ack);
  }

  // Now release the lock locally so other threads can enter the critical
  // section and change the condition.
  std::optional<PendingGrant> pending;
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    NOW_CHECK(st.held) << "cond_wait outside the critical section";
    st.held = false;
    st.awaiting = true;
    if (st.pending) {
      pending = std::move(st.pending);
      st.pending.reset();
      st.cached = false;
    }
  }
  if (pending)
    grant_lock(lock_id, pending->requester, pending->vt, 0, /*from_service=*/false);

  // Block until a signal re-routes the lock to us.
  sim::Message grant = lock_grant_slot_.take();
  const std::uint32_t granted = consume_lock_grant(grant);
  NOW_CHECK_EQ(granted, lock_id);
  {
    std::lock_guard<std::mutex> lock(lock_client_mu_);
    LockClientState& st = lock_client_[lock_id];
    st.held = true;
    st.cached = true;
    st.awaiting = false;
  }
  if (lock_push) {
    held_locks_.push_back(lock_id);
    cs_touched_[lock_id].clear();
  }
  NOW_LOG(kDebug, "node %u: cond_wait(%u,%u) woke", id_, lock_id, cond_id);
}

void Node::cond_notify(std::uint32_t lock_id, std::uint32_t cond_id, bool broadcast) {
  sync_cpu();
  gc_poll();
  stats_.cond_ops.fetch_add(1, std::memory_order_relaxed);
  // The signal itself is not a release of the lock, but the manager's later
  // grants are built from its log, so ship our release chain along.
  const std::uint32_t mgr = rt_.topology().lock_manager(lock_id);
  close_interval();
  auto delta = take_delta_for(mgr, Cache::kMgrLog, nullptr);
  ByteWriter w;
  w.u32(lock_id);
  w.u32(cond_id);
  KnowledgeLog::serialize_vt(w, gc_floor_snapshot());  // see sema_signal
  KnowledgeLog::serialize_records(w, delta);
  sim::Message m;
  m.type = broadcast ? kCondBroadcast : kCondSignal;
  m.dst = mgr;
  m.payload = w.take();
  send_compute(std::move(m));
}

void Node::cond_signal(std::uint32_t lock_id, std::uint32_t cond_id) {
  cond_notify(lock_id, cond_id, /*broadcast=*/false);
}

void Node::cond_broadcast(std::uint32_t lock_id, std::uint32_t cond_id) {
  cond_notify(lock_id, cond_id, /*broadcast=*/true);
}

void Node::on_cond_wait(sim::Message&& m) {
  NOW_LOG(kDebug, "node %u MGR: cond_wait from %u", id_, m.src);
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t cond_id = r.u32();
  VectorTime vt = KnowledgeLog::deserialize_vt(r);
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  mgr_.conds[cond_key(lock_id, cond_id)].push_back({m.src, std::move(vt)});
  // Confirm the registration when the reliability channel is armed (see
  // cond_wait): the waiter holds the lock until this lands, so no signal
  // can precede its queue entry.  Off the chaos/reliable path the wire is
  // synchronous and the ack would be pure overhead — the knobs-off message
  // flow stays byte-identical.
  if (rt_.config().chaos_enabled() || rt_.config().net_reliable) {
    sim::Message ack;
    ack.type = kCondWaitAck;
    ack.dst = m.src;
    ack.seq = m.seq;
    send_service(std::move(ack), m.arrive_ts_ns);
  }
}

void Node::on_cond_signal(sim::Message&& m, bool broadcast) {
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::uint32_t cond_id = r.u32();
  mgr_gc_to(KnowledgeLog::deserialize_vt(r));
  mgr_.log.merge(KnowledgeLog::deserialize_records(r));
  NOW_LOG(kDebug, "node %u MGR: cond_%s from %u (waiters=%zu)", id_,
          broadcast ? "broadcast" : "signal", m.src,
          mgr_.conds[cond_key(lock_id, cond_id)].size());
  auto& q = mgr_.conds[cond_key(lock_id, cond_id)];
  // "cond_signal has no effect if no thread is waiting" (paper, Sec. 3.2.3).
  std::size_t n = broadcast ? q.size() : std::min<std::size_t>(1, q.size());
  for (std::size_t i = 0; i < n; ++i) {
    CondWaiter wtr = std::move(q.front());
    q.pop_front();
    mgr_route_lock(lock_id, wtr.node, wtr.vt, m.arrive_ts_ns);
  }
}

// ---------------------------------------------------------------------------
// Flush (retained for the ablation study)
// ---------------------------------------------------------------------------

void Node::flush() {
  sync_cpu();
  gc_poll();
  stats_.flushes.fetch_add(1, std::memory_order_relaxed);
  close_interval();

  // 2(n-1) messages: a notice to every other node, each acknowledged — the
  // cost the paper's Section 3.2.4 argues against.
  struct Call {
    std::uint64_t tok;
  };
  std::vector<Call> calls;
  for (std::uint32_t peer = 0; peer < num_nodes_; ++peer) {
    if (peer == id_) continue;
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[peer]);
    auto delta = take_delta_for(peer, Cache::kNodeLog, nullptr);
    ByteWriter w;
    KnowledgeLog::serialize_records(w, delta);
    const std::uint64_t tok = rpc_.begin();
    sim::Message m;
    m.type = kFlushNotice;
    m.dst = peer;
    m.seq = tok;
    m.payload = w.take();
    send_compute(std::move(m));
    calls.push_back({tok});
  }
  for (const Call& c : calls) {
    sim::Message ack = rpc_.wait(c.tok);
    arrive(ack);
  }
}

// ---------------------------------------------------------------------------
// Fork / join
// ---------------------------------------------------------------------------

void Node::fork_slaves(ForkFn fn, const void* arg, std::size_t arg_size) {
  sync_cpu();
  close_interval();
  // Fork is a barrier-free release point: nothing is pushed here, so the
  // push pass's candidate list must not accumulate across regions.
  epoch_dirty_.clear();
  // The fork after a join is a barrier-equivalent reclamation point: the
  // master merged every slave's records at the join, so its vector time
  // dominates the whole cluster's — and the fork deltas below bring every
  // slave up to exactly it.  Piggyback it as a GC floor: each slave applies
  // it on its compute thread before the region body runs (so its validation
  // fetches are served before it can join), and the master applies it here.
  VectorTime floor;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    floor = log_.vt();
  }
  for (std::uint32_t slave = 0; slave < num_nodes_; ++slave) {
    if (slave == id_) continue;
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[slave]);
    auto delta = take_delta_for(slave, Cache::kNodeLog, nullptr);
    ByteWriter w;
    w.u64(reinterpret_cast<std::uint64_t>(fn));
    w.bytes(arg, arg_size);
    KnowledgeLog::serialize_vt(w, floor);
    KnowledgeLog::serialize_records(w, delta);
    sim::Message m;
    m.type = kFork;
    m.dst = slave;
    m.payload = w.take();
    send_compute(std::move(m));
  }
  if (rt_.config().gc_fork_join) gc_at_barrier(floor);
}

void Node::join_slaves() {
  // Join records were already merged by the service thread on receipt (see
  // handle_message); here the master only synchronizes time.
  for (std::uint32_t i = 0; i + 1 < num_nodes_; ++i) {
    sim::Message m = join_slot_.take();
    arrive(m);
  }
}

void Node::shutdown_slaves() {
  for (std::uint32_t slave = 0; slave < num_nodes_; ++slave) {
    if (slave == id_) continue;
    sim::Message m;
    m.type = kShutdown;
    m.dst = slave;
    send_compute(std::move(m));
  }
}

bool Node::slave_serve_one(Tmk& tmk) {
  sim::Message m = fork_slot_.take();
  if (m.type == kShutdown) return false;

  // Fork records were already merged by the service thread on receipt.
  ByteReader r(m.payload);
  auto fn = reinterpret_cast<ForkFn>(r.u64());
  std::vector<std::uint8_t> arg = r.bytes();
  const VectorTime fork_floor = KnowledgeLog::deserialize_vt(r);
  arrive(m);
  gc_poll();

  // Fork-point GC (compute thread, before the region body): with the fork
  // delta merged, this node's knowledge dominates the piggybacked floor.
  // The validation fetches are synchronous, so they are served before this
  // slave can run the region and join — which is what lets every node
  // reclaim its own ≤-previous-floor diffs at the *next* fork safely.
  if (rt_.config().gc_fork_join) gc_at_barrier(fork_floor);

  fn(tmk, arg.data(), arg.size());

  sync_cpu();
  close_interval();
  epoch_dirty_.clear();  // join: barrier-free release point, see fork_slaves
  const std::uint32_t master = rt_.topology().master_node();
  sim::Message join;
  {
    // Cut-to-enqueue ordering vs a concurrent service-thread grant to the
    // same peer (see grant_lock).
    std::lock_guard<std::mutex> order(delta_send_mu_[master]);
    auto delta = take_delta_for(master, Cache::kNodeLog, nullptr);
    ByteWriter w;
    KnowledgeLog::serialize_records(w, delta);
    join.type = kJoin;
    join.dst = master;
    join.payload = w.take();
    send_compute(std::move(join));
  }
  return true;
}

void Node::debug_dump() {
  std::lock_guard<std::mutex> lock(lock_client_mu_);
  for (auto& [id, st] : lock_client_) {
    std::fprintf(stderr,
                 "[dump] node %u lock %u: held=%d cached=%d awaiting=%d pending=%s\n",
                 id_, id, st.held, st.cached, st.awaiting,
                 st.pending ? std::to_string(st.pending->requester).c_str() : "-");
  }
  for (auto& [id, L] : mgr_.locks)
    std::fprintf(stderr, "[dump] node %u MGR lock %u: ever=%d tail=%u\n", id_, id,
                 L.ever_requested, L.tail);
  for (auto& [key, q] : mgr_.conds)
    std::fprintf(stderr, "[dump] node %u MGR cond (%u,%u): %zu waiters\n", id_,
                 static_cast<std::uint32_t>(key >> 32),
                 static_cast<std::uint32_t>(key), q.size());
}

// ---------------------------------------------------------------------------
// Shared heap allocation
// ---------------------------------------------------------------------------

std::uint64_t Node::shared_malloc(std::size_t bytes, std::size_t align) {
  sync_cpu();
  ByteWriter w;
  w.u64(bytes);
  w.u64(align);
  sim::Message reply = rpc_call(rt_.topology().alloc_server(), kAllocRequest, w.take());
  ByteReader r(reply.payload);
  return r.u64();
}

void Node::shared_free(std::uint64_t offset) {
  sync_cpu();
  ByteWriter w;
  w.u64(offset);
  rpc_call(rt_.topology().alloc_server(), kFreeRequest, w.take());
}

}  // namespace now::tmk
