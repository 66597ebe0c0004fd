// The two adaptive push protocols and the policy they share.  The update
// push ships a barrier epoch's diffs to a page's stable readers; the
// migratory lock push piggybacks diffs on the kLockGrant the lock's next
// holder is about to receive.  Both admit pages with re-admission backoff,
// land the pushed chunks on the reader only when they cover every wanted
// interval, arm every few pushes as a liveness probe, and demote dead
// pushes with a deny message.
#include <algorithm>
#include <map>
#include <tuple>

#include "common/bytes.h"
#include "common/log.h"
#include "tmk/arena.h"
#include "tmk/node.h"
#include "tmk/runtime.h"

namespace now::tmk {

// ---------------------------------------------------------------------------
// Shared push policy
// ---------------------------------------------------------------------------

void Node::write_diff(ByteWriter& w, std::uint32_t seq,
                      const std::vector<DiffBytes>& chunks) {
  w.u32(seq);
  w.u32(static_cast<std::uint32_t>(chunks.size()));
  for (const DiffBytes& d : chunks) w.bytes(d.data(), d.size());
}

Node::PushedDiff Node::read_diff(ByteReader& r, std::uint32_t writer) {
  PushedDiff d;
  d.writer = writer;
  d.seq = r.u32();
  d.chunks.resize(r.u32());
  for (DiffBytes& c : d.chunks) {
    const auto [ptr, n] = r.bytes_view();
    c.assign(ptr, ptr + n);
  }
  return d;
}

std::size_t Node::diff_wire_bytes(const std::vector<DiffBytes>& chunks) {
  std::size_t sz = 8;  // seq + chunk count
  for (const DiffBytes& d : chunks) sz += 4 + d.size();
  return sz;
}

bool Node::park_pushed(PageIndex page, PageEntry& e,
                       std::vector<PushedDiff>& diffs, std::uint64_t pushers,
                       bool relay, PushDenies& deny) {
  // Keyed (writer, seq) exactly like a fetched reply, and only the compute
  // thread mutates the cache: whichever of a push and a racing pull applies
  // first erases the entry, the other's copy is redundant bytes, never a
  // second application.
  const std::size_t budget = rt_.config().diff_cache_bytes_per_page;
  bool kept = false;
  for (PushedDiff& d : diffs)
    kept |= e.diff_cache.insert(d.writer, d.seq, std::move(d.chunks), budget,
                                diff_cache_total_bytes_, /*prefetched=*/false,
                                /*pushed=*/true);
  if (!kept) {
    // Oversized diffs, or a page whose GC pins already fill the budget.
    // Re-admission backs off at the pusher.
    for (std::uint32_t p = 0; p < num_nodes_; ++p)
      if (pushers & (std::uint64_t{1} << p)) deny[p].push_back(page);
    return false;
  }
  if (relay) {
    for (const PushedDiff& d : diffs) e.diff_cache.mark_relay(d.writer, d.seq);
    relay_note(page);
  }
  return true;
}

void Node::apply_cached(PageIndex page, PageEntry& e,
                        std::vector<UnappliedNotice>& notices, bool retain) {
  std::stable_sort(notices.begin(), notices.end(), applies_before);
  std::uint8_t mem[kPageSize];
  rt_.arena().read_page(id_, page, mem);
  std::size_t patched = 0;
  std::uint64_t applied = 0;
  for (const UnappliedNotice& n : notices) {
    const PageDiffCache::Entry* cached = e.diff_cache.lookup(n.writer, n.seq);
    NOW_CHECK(cached != nullptr)
        << "writer " << n.writer << " had no cached diff for page " << page
        << " interval " << n.seq;
    for (const DiffBytes& d : cached->chunks) {
      patched += diff_apply(mem, kPageSize, d);
      ++applied;
    }
    if (!retain || cached->pinned)
      e.diff_cache.erase(n.writer, n.seq, diff_cache_total_bytes_);
  }
  rt_.arena().write_page(id_, page, mem);
  stats_.diffs_applied.fetch_add(applied, std::memory_order_relaxed);
  clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                    (static_cast<double>(patched) / 1024.0));
}

void Node::land_push(PageIndex page, PageEntry& e, PushArm by, bool arm,
                     const std::uint8_t* image) {
  if (image != nullptr) {
    rt_.arena().write_page(id_, page, image);
    stats_.diffs_applied.fetch_add(1, std::memory_order_relaxed);
    clock_.advance_us(rt_.config().diff_apply_per_kb_us *
                      (static_cast<double>(kPageSize) / 1024.0));
  } else {
    // The lock push retains droppable chunks: they are the relay stock its
    // own later grant forwards down the chain.
    apply_cached(page, e, e.unapplied, /*retain=*/by == PushArm::kLock);
  }
  e.unapplied.clear();
  e.ever_valid = true;
  if (arm) {
    e.armed = by;  // already kInvalid and PROT_NONE: the probe fault remaps it
  } else {
    rt_.arena().protect_read(id_, page);
    e.state = PageState::kReadOnly;
    (by == PushArm::kUpdate ? stats_.update_push_hits : stats_.lock_push_hits)
        .fetch_add(1, std::memory_order_relaxed);
  }
}

void Node::send_push_denies(std::uint16_t type, const PushDenies& deny,
                            std::initializer_list<std::uint32_t> header) {
  for (const auto& [pusher, pages] : deny) {
    ByteWriter w;
    for (std::uint32_t word : header) w.u32(word);
    w.u32(static_cast<std::uint32_t>(pages.size()));
    for (PageIndex page : pages) w.u32(page);
    sim::Message m;
    m.type = type;
    m.dst = pusher;
    m.payload = w.take();
    send_compute(std::move(m));
  }
}

std::vector<PageIndex> Node::read_denied_pages(ByteReader& r) {
  std::vector<PageIndex> pages(r.u32());
  for (PageIndex& page : pages) page = r.u32();
  return pages;
}

void Node::on_update_deny(sim::Message&& m) {
  // A reader stopped touching pages we push, or its cache budget can never
  // park them: demote the pages back to invalidate mode.
  ByteReader r(m.payload);
  const std::vector<PageIndex> pages = read_denied_pages(r);
  std::lock_guard<std::mutex> lock(copyset_mu_);
  for (PageIndex page : pages) {
    PageCopyset& cs = copyset_[page];
    cs.stable_set = 0;
    if (cs.admission.deny())
      stats_.update_demotions.fetch_add(1, std::memory_order_relaxed);
  }
}

void Node::on_lock_push_deny(sim::Message&& m) {
  // A holder released the lock with our pushed pages still armed (its whole
  // critical section never touched them), or its cache budget can never
  // park them: demote the pages from the lock's protected set.
  ByteReader r(m.payload);
  const std::uint32_t lock_id = r.u32();
  const std::vector<PageIndex> pages = read_denied_pages(r);
  std::lock_guard<std::mutex> lock(lock_protect_mu_);
  auto& prot = lock_protect_[lock_id];
  for (PageIndex page : pages) {
    LockPushStat& ps = prot[page];
    ps.untouched = 0;
    if (ps.admission.deny())
      stats_.lock_push_demotions.fetch_add(1, std::memory_order_relaxed);
    else
      ++ps.admission.denials;  // a late deny (the page already decayed out)
                               // still backs re-admission off
  }
}

// ---------------------------------------------------------------------------
// Update push (hybrid invalidate/update, at every barrier)
// ---------------------------------------------------------------------------

void Node::update_scan_demote() {
  // pushed_pages_ is compute-thread-only: seeded by the previous barrier's
  // validate pass with the pages it left armed or partially covered.
  std::vector<PageIndex> scan;
  scan.swap(pushed_pages_);
  if (scan.empty()) return;
  std::sort(scan.begin(), scan.end());
  scan.erase(std::unique(scan.begin(), scan.end()), scan.end());

  PushDenies deny;
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
    if (e.armed == PushArm::kUpdate) e.armed = PushArm::kNone;
    e.pushes_since_probe = 0;
  }
  send_push_denies(kUpdateDeny, deny);
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
      if (it == copyset_.end() || !it->second.admission.member) continue;
      // An on-demand exchange may already have acked some of this epoch's
      // intervals: every reader resolved them, and their diffs are gone.
      seqs.erase(seqs.begin(), std::upper_bound(seqs.begin(), seqs.end(),
                                                gc_reclaimed_seq_));
      if (seqs.empty()) continue;
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
          write_diff(w, seq, it->second);
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

void Node::on_update_push(sim::Message&& m) {
  // Barrier-time update push from a writer: queue the pushed intervals for
  // the compute thread's validate pass.  Nothing touches the page tables or
  // diff caches here — only the compute thread mutates those, which is what
  // keeps the fault path's cached/needed partition valid while its lock is
  // dropped, and what keeps a push racing a pull idempotent.
  //
  // The push carries the writer's barrier index: this service thread can
  // run a full barrier ahead of its own compute thread (the writer departs,
  // sprints through its phase, and pushes for barrier k+1 while our compute
  // thread has not yet woken from barrier k), so parked pushes are queued
  // by barrier and the validate pass drains only its own barrier's.
  ByteReader r(m.payload);
  const std::uint64_t barrier_index = r.u32();
  std::vector<PendingPush> pending(r.u32());
  for (PendingPush& pp : pending) {
    pp.barrier_index = barrier_index;
    pp.page = r.u32();
    pp.writer = m.src;
    pp.diffs.resize(r.u32());
    for (PushedDiff& d : pp.diffs) d = read_diff(r, m.src);
  }
  std::lock_guard<std::mutex> lock(push_mu_);
  for (PendingPush& pp : pending) pending_pushes_.push_back(std::move(pp));
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

  constexpr std::uint32_t reprobe = DsmConfig::update_reprobe_epochs;
  PushDenies deny;
  for (std::size_t i = 0; i < batch.size();) {
    const PageIndex page = batch[i].page;
    std::vector<PushedDiff> diffs;
    std::uint64_t writers = 0;
    for (; i < batch.size() && batch[i].page == page; ++i) {
      writers |= std::uint64_t{1} << batch[i].writer;
      for (PushedDiff& d : batch[i].diffs) diffs.push_back(std::move(d));
    }
    PageEntry& e = pages_[page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (!park_pushed(page, e, diffs, writers, /*relay=*/false, deny)) continue;
    e.pushed_by |= writers;
    if (e.state != PageState::kInvalid || e.unapplied.empty()) {
      // A racing pull-path fetch (lock-chain knowledge mid-epoch) already
      // applied everything; the push was redundant bytes.  Forget it so the
      // demotion scan doesn't misjudge the page.
      e.pushed_by = 0;
      continue;
    }
    if (!e.cache_covers_unapplied()) {
      // Partially covered pages stay lazy: the fault serves the cached part
      // locally and fetches the rest.  The demotion scan still judges them.
      pushed_pages_.push_back(page);
      continue;
    }
    // Liveness probe cadence: every reprobe-th push is applied *armed*.
    // The pushes in between (including the first: promotion already rests
    // on observed faults in consecutive epochs) validate outright and the
    // post-barrier fault disappears.  A reader that stops consuming burns
    // at most reprobe-1 validated pushes before a probe goes untouched and
    // the demotion lands.
    const bool probe = (++e.pushes_since_probe % reprobe) == 0;
    land_push(page, e, PushArm::kUpdate, probe);
    if (probe) {
      e.push_touched = false;
      pushed_pages_.push_back(page);  // the next barrier's scan judges it
    } else {
      e.pushed_by = 0;
    }
  }
  send_push_denies(kUpdateDeny, deny);
}

void Node::update_copyset_fold(std::uint64_t epoch) {
  constexpr std::uint32_t promote = DsmConfig::update_promote_epochs;
  std::lock_guard<std::mutex> lock(copyset_mu_);
  for (auto it = copyset_.begin(); it != copyset_.end();) {
    PageCopyset& cs = it->second;
    const std::uint64_t cur = cs.epoch_readers[epoch & 1];
    cs.epoch_readers[epoch & 1] = 0;
    if (cs.admission.member) {
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
    if (cur != cs.stable_set) {
      cs.stable_set = cur;
      cs.admission.streak = 0;
    }
    cs.admission.admit(promote);
    ++it;
  }
}

// ---------------------------------------------------------------------------
// Migratory lock push: diffs piggybacked on the kLockGrant chain
// ---------------------------------------------------------------------------

void Node::lock_push_note_touch(PageIndex page) {
  // Critical-section attribution for the migratory lock push: the faulted
  // page belongs to every lock this compute thread currently holds.
  // held_locks_ is only populated while lock_push is enabled, so the
  // default fault path pays a single empty-vector check.
  for (std::uint32_t lock_id : held_locks_) cs_touched_[lock_id].push_back(page);
}

void Node::lock_push_fold(std::uint32_t lock_id) {
  std::vector<PageIndex> touched;
  auto tit = cs_touched_.find(lock_id);
  if (tit != cs_touched_.end()) touched = std::move(tit->second);
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  constexpr std::uint32_t probe = DsmConfig::lock_push_probe;
  std::lock_guard<std::mutex> lock(lock_protect_mu_);
  auto& prot = lock_protect_[lock_id];
  for (PageIndex pg : touched) {
    LockPushStat& ps = prot[pg];
    ps.untouched = 0;
    ps.admission.admit(1);
  }
  for (auto it = prot.begin(); it != prot.end();) {
    if (std::binary_search(touched.begin(), touched.end(), it->first)) {
      ++it;
      continue;
    }
    LockPushStat& ps = it->second;
    ps.admission.streak = 0;
    if (++ps.untouched >= probe) {
      // Untouched for lock_push_probe consecutive of our own critical
      // sections: the page is no longer part of what this lock protects.
      ps.admission.member = false;
      if (ps.admission.denials == 0) {
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

  PushDenies deny;
  for (const LockArmed& a : armed) {
    PageEntry& e = pages_[a.page];
    std::lock_guard<std::mutex> lock(e.mu);
    if (a.armed) {
      // Still armed after the whole critical section ran: the push was dead
      // weight.  (A consumed probe cleared the flag at its fault and counted
      // a hit; a fresh write notice also cleared it — no verdict then.)
      if (e.armed != PushArm::kLock) continue;
      e.armed = PushArm::kNone;  // contents stay current; bookkeeping drops
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
  send_push_denies(kLockPushDeny, deny, {lock_id});
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
        if (ps == it->second.end() || !ps->second.admission.member) continue;
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
  // the named intervals wrote, like any fetched diff.)  The snapshot must
  // not be taken while a merge is half done: its records are already in
  // the vector time, but the page may not carry their notices yet, so a
  // copy taken now could lack writes the snapshot vouches for, and the
  // requester would drop them together with its notices.
  bool dominates = true;
  VectorTime grant_vt;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    grant_vt = log_.vt();
    if (merges_posting_.load(std::memory_order_acquire) != 0) dominates = false;
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
  constexpr std::uint32_t reprobe = DsmConfig::lock_push_reprobe;
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
    // the page's retained cache, each as a writer id plus its wire diff.
    // Own store entries cannot be reclaimed underneath this grant (delta
    // seqs are above the requester's vector time, which dominates every
    // announced floor, and own-diff reclamation lags the floor by one
    // reclamation point — the NOW_CHECK fails loudly if that invariant is
    // ever broken); retained cache entries are stable under e.mu, and both
    // are held until they are serialized.
    std::lock_guard<std::mutex> sl(store_mu_);
    std::vector<std::tuple<std::uint32_t, std::uint32_t,
                           const std::vector<DiffBytes>*>> srcs;
    std::size_t diff_sz = 0;
    std::size_t own_sz = 0;  // the subset a partial push actually serializes
    bool relay_covered = true;
    for (const auto& [wtr, seq] : c.entries) {
      const std::vector<DiffBytes>* chunks = nullptr;
      if (wtr == id_) {
        auto it = diff_store_.find(diff_store_key(c.page, seq));
        NOW_CHECK(it != diff_store_.end())
            << "lock push sourced a reclaimed diff: page " << c.page
            << " interval " << seq;
        chunks = &it->second;
        own_sz += 4 + diff_wire_bytes(*chunks);
      } else if ((chunks = e.diff_cache.find(wtr, seq)) == nullptr) {
        relay_covered = false;  // evicted (or never seen): no full relay
        continue;
      }
      diff_sz += 4 + diff_wire_bytes(*chunks);
      srcs.emplace_back(wtr, seq, chunks);
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
        !as_image && !as_diffs && own_sz > 0 && own_sz <= budget;
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
      // A partial push serializes own intervals only.
      auto serialized = [&](const auto& src) {
        return as_diffs || std::get<0>(src) == id_;
      };
      pw.u32(static_cast<std::uint32_t>(
          std::count_if(srcs.begin(), srcs.end(), serialized)));
      for (const auto& src : srcs) {
        if (!serialized(src)) continue;
        pw.u32(std::get<0>(src));
        write_diff(pw, std::get<1>(src), *std::get<2>(src));
      }
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
  PushDenies deny;
  for (std::uint32_t p = 0; p < npush; ++p) {
    const PageIndex page = r.u32();
    const bool as_image = r.u8() == 1;
    const bool arm = r.u8() != 0;
    PageEntry& e = pages_[page];

    if (as_image) {
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
      if (!std::all_of(e.unapplied.begin(), e.unapplied.end(),
                       [&](const UnappliedNotice& un) {
                         return un.seq <= img_vt[un.writer];
                       }))
        continue;
      land_push(page, e, PushArm::kLock, arm, img);
    } else {
      // Diff push.  Applied entries are RETAINED (not erased): this page is
      // lock-protected, and the retained chunks are what lets our own later
      // grant relay the chain's accumulated diffs onward instead of shipping
      // whole-page images.
      std::vector<PushedDiff> diffs(r.u32());
      for (PushedDiff& d : diffs) {
        const std::uint32_t wtr = r.u32();
        d = read_diff(r, wtr);
      }
      std::lock_guard<std::mutex> lock(e.mu);
      if (e.state != PageState::kInvalid || e.unapplied.empty()) continue;
      if (!park_pushed(page, e, diffs, std::uint64_t{1} << writer,
                       /*relay=*/true, deny))
        continue;
      if (!e.cache_covers_unapplied()) {
        // Partially covered: the parked chunks serve the fault if one comes.
        // On a probe grant, judge that at release — a page that stays
        // invalid through the whole critical section is a dead push and
        // must demote, or a chronic partial pusher would ship its bytes
        // forever.
        if (arm) lock_armed_judge_[lock_id].push_back({page, writer, false});
        continue;
      }
      land_push(page, e, PushArm::kLock, arm);
    }
    // An armed page is judged at this node's release of the lock
    // (lock_push_judge): still armed there means a dead push.
    if (arm) lock_armed_judge_[lock_id].push_back({page, writer, true});
  }
  send_push_denies(kLockPushDeny, deny, {lock_id});
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

}  // namespace now::tmk
