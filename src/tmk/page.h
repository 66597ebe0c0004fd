// Per-node page table entries for the DSM protocol.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "tmk/config.h"
#include "tmk/diff.h"
#include "tmk/intervals.h"

namespace now::tmk {

// A page is kInvalid exactly when its application view is PROT_NONE; the
// protection changes only with the state, under the page's mutex.  The
// protocol never widens protection to write a page: diff applies, pushed
// images and rehydration go through Arena::write_page, so an invalid page
// stays PROT_NONE while it is patched and a partial apply needs no re-close.
enum class PageState : std::uint8_t {
  kInvalid,   // PROT_NONE; access faults and runs the fetch protocol
  kReadOnly,  // PROT_READ; a write will fault and start a new twin
  kWritable,  // PROT_READ|PROT_WRITE with a twin capturing pre-write contents
};

// An interval of this node whose writes to the page are not yet fully
// materialized as a diff.  While `open`, the page may still be written (the
// twin tracks it); once the interval is closed at a release, the page is
// write-protected so the diff can be computed lazily but safely.
struct PendingTwin {
  std::uint32_t seq = 0;  // own interval the twin belongs to
  std::unique_ptr<std::uint8_t[]> data;
};

// A write notice this node has learned about but whose diff it has not yet
// applied to its copy of the page.
struct UnappliedNotice {
  std::uint32_t writer = 0;
  std::uint32_t seq = 0;
  std::uint64_t lamport = 0;
};

// The linear extension of happens-before in which diffs are applied: lamport
// order, writer id as the tie-break (ties are concurrent intervals whose
// diffs touch disjoint bytes in race-free programs).  Both the fault path
// and the barrier-GC eager-apply path sort by exactly this predicate — a
// divergence would change page bytes, so there is only one copy.
inline bool applies_before(const UnappliedNotice& a, const UnappliedNotice& b) {
  if (a.lamport != b.lamport) return a.lamport < b.lamport;
  return a.writer < b.writer;
}

// Requester-side cache of already-fetched diff chunks, keyed by (writer,
// seq).  A node that still holds a diff it fetched earlier can skip the
// re-request entirely (no message, no wire bytes) when a later fault wants
// the same interval again.  Two protocol paths feed it:
//  - barrier-time GC (insert_gc / pin_existing): the validation pass stores
//    the diffs for a page's remaining old write notices just before their
//    writers reclaim them.  Those entries are *pinned* — exempt from
//    eviction (it would lose the only surviving copy) — and are released
//    when applied, by the fault or by the GC pass itself once a page's
//    pinned bytes exceed the budget (which bounds never-read pages);
//  - multi-page prefetch on fault (budgeted FIFO insert): a fault folds
//    neighboring pages' wanted seqs into its kDiffRequest and parks the
//    extra chunks here for the neighbor's own fault.  Prefetched entries
//    are droppable — their writers still hold the diff, so the real fault
//    can always refetch what eviction lost.  When a barrier-GC floor later
//    covers a prefetched entry, the validation pass promotes it to a pin
//    in place rather than refetching;
//  - the adaptive update protocol (budgeted FIFO insert, pushed provenance):
//    a writer's barrier-time kUpdatePush parks the epoch's diffs here and
//    the reader's barrier departure applies any page whose wanted intervals
//    are fully covered, skipping the fault.  Keying by (writer, seq) is what
//    makes a push racing a pull-path fetch idempotent: whichever applies
//    first erases the entry, the other's copy is redundant bytes, never a
//    second application.
class PageDiffCache {
 public:
  // The node-wide mirror of every page cache's bytes (a relaxed atomic owned
  // by the Node), so the on-demand GC's ceiling check reads the cluster of
  // per-page caches in O(1) instead of walking the page table on every sync
  // operation.  Every mutator that changes bytes() takes it and keeps it in
  // step; the cache itself holds no pointer to it.
  using Total = std::atomic<std::size_t>;

  struct Entry {
    std::uint32_t writer = 0;
    std::uint32_t seq = 0;
    std::vector<DiffBytes> chunks;
    bool pinned = false;      // exempt from FIFO eviction (barrier-GC)
    bool prefetched = false;  // arrived via multi-page prefetch (stats only)
    bool pushed = false;      // arrived via kUpdatePush (stats only)
    bool relayed = false;     // retained for the migratory lock relay
  };

  // Entry for (writer, seq), or nullptr if not cached.  The pointer stays
  // valid until the next insert, erase or prune.
  const Entry* lookup(std::uint32_t writer, std::uint32_t seq) const {
    auto it = locate(writer, seq);
    return it == entries_.end() ? nullptr : &*it;
  }
  // Chunks for (writer, seq), or nullptr if not cached.
  const std::vector<DiffBytes>* find(std::uint32_t writer, std::uint32_t seq) const {
    const Entry* e = lookup(writer, seq);
    return e == nullptr ? nullptr : &e->chunks;
  }

  // Stores the chunks for (writer, seq), evicting oldest unpinned entries to
  // stay within `budget_bytes`.  A chunk set larger than the whole budget is
  // not cached at all.  No-op if the key is already present.  Returns true
  // if the entry resides in the cache afterwards.
  bool insert(std::uint32_t writer, std::uint32_t seq,
              std::vector<DiffBytes> chunks, std::size_t budget_bytes,
              Total& total, bool prefetched = false, bool pushed = false) {
    if (locate(writer, seq) != entries_.end()) return true;
    const std::size_t sz = size_of(chunks);
    if (sz > budget_bytes) return false;
    for (auto it = entries_.begin();
         bytes_ + sz > budget_bytes && it != entries_.end();) {
      if (it->pinned) {
        ++it;
        continue;
      }
      drop(*it, total);
      it = entries_.erase(it);
    }
    // Pins alone may already exceed the budget (insert_gc bypasses it, the
    // GC pass rebalances at the next barrier): a droppable entry must not
    // land on top of that, or the cache would grow to pins + budget.
    if (bytes_ + sz > budget_bytes) return false;
    add_bytes(sz, total);
    entries_.push_back(Entry{writer, seq, std::move(chunks), /*pinned=*/false,
                             prefetched, pushed, /*relayed=*/false});
    return true;
  }

  // Pins the chunks for (writer, seq) regardless of the byte budget and
  // immune to eviction: the barrier-GC pass stores diffs whose writer is
  // about to reclaim them, so evicting one before it is applied would lose
  // the only remaining copy.  An existing budgeted copy of the same key is
  // promoted to pinned in place, so a pin can never be evicted no matter how
  // the entry first arrived.
  void insert_gc(std::uint32_t writer, std::uint32_t seq,
                 std::vector<DiffBytes> chunks, Total& total) {
    if (pin_existing(writer, seq)) return;  // same key => same chunk content
    const std::size_t sz = size_of(chunks);
    add_bytes(sz, total);
    pinned_bytes_ += sz;
    entries_.push_back(Entry{writer, seq, std::move(chunks), /*pinned=*/true,
                             /*prefetched=*/false, /*pushed=*/false,
                             /*relayed=*/false});
  }

  // Promotes an already-held entry to pinned (no-op on pins).  The GC
  // validation pass uses this when the floor covers an entry a prefetch
  // already fetched: the chunks are identical, only the eviction class
  // changes — after the writer reclaims, eviction would lose the only copy.
  // Returns false if the key is absent.
  bool pin_existing(std::uint32_t writer, std::uint32_t seq) {
    auto it = locate(writer, seq);
    if (it == entries_.end()) return false;
    if (!it->pinned) {
      it->pinned = true;
      pinned_bytes_ += size_of(it->chunks);
    }
    return true;
  }

  // Drops the entry for (writer, seq) if present.  Used to release an entry
  // once its chunks have been applied — an applied interval is never wanted
  // again.
  void erase(std::uint32_t writer, std::uint32_t seq, Total& total) {
    auto it = locate(writer, seq);
    if (it == entries_.end()) return;
    drop(*it, total);
    entries_.erase(it);
  }

  // Marks an already-held entry as retained for the migratory lock relay
  // (provenance + byte accounting; no eviction-class change — relay
  // retention is droppable by contract, its writer still holds the diff).
  void mark_relay(std::uint32_t writer, std::uint32_t seq) {
    auto it = locate(writer, seq);
    if (it == entries_.end() || it->relayed) return;
    it->relayed = true;
    relay_bytes_ += size_of(it->chunks);
  }

  // Drops every unpinned entry whose interval the floor covers: validation
  // resolved all notices at or below the floor, and grant-chain deltas are
  // cut above it, so a covered droppable chunk can never serve a fault nor
  // be relayed again — keeping it would be the FIFO-forever leak.  Pins are
  // exempt (they are the *only* copy until applied).  Returns the number of
  // entries dropped and adds their bytes to *bytes_pruned.
  std::size_t prune_below(const VectorTime& floor, Total& total,
                          std::size_t* bytes_pruned) {
    const std::size_t before = entries_.size();
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(),
                       [&](const Entry& e) {
                         if (e.pinned || e.writer >= floor.size() ||
                             e.seq > floor[e.writer])
                           return false;
                         const std::size_t sz = drop(e, total);
                         if (bytes_pruned != nullptr) *bytes_pruned += sz;
                         return true;
                       }),
        entries_.end());
    return before - entries_.size();
  }

  std::size_t bytes() const { return bytes_; }
  std::size_t pinned_bytes() const { return pinned_bytes_; }
  std::size_t relay_bytes() const { return relay_bytes_; }
  std::size_t entries() const { return entries_.size(); }

 private:
  // Lookups scan.  Entries per page at insert, measured with perfbench:
  // mean 3.4 (max 18) on dsm-regular, 4.4 (max 44) on dsm-irregular, but
  // 432 (max 1450) on dsm-irregular with lock push at 16 KiB, where the
  // relay keeps a chain's history.  The vector still wins there: every lock
  // grant's relay_prune walks each relay page's whole cache, which is cheap
  // over contiguous entries and slow over hash or list nodes (dsm-irregular
  // with lock push, 4-core x86-64: host_s 14.5 s with this vector, 41 s
  // with a hash index over a list).  An empty vector, unlike a deque,
  // allocates nothing, which keeps an untouched page free of heap memory.
  static auto key_is(std::uint32_t writer, std::uint32_t seq) {
    return [=](const Entry& e) { return e.writer == writer && e.seq == seq; };
  }
  std::vector<Entry>::iterator locate(std::uint32_t writer, std::uint32_t seq) {
    return std::find_if(entries_.begin(), entries_.end(), key_is(writer, seq));
  }
  std::vector<Entry>::const_iterator locate(std::uint32_t writer,
                                            std::uint32_t seq) const {
    return std::find_if(entries_.begin(), entries_.end(), key_is(writer, seq));
  }
  static std::size_t size_of(const std::vector<DiffBytes>& chunks) {
    std::size_t sz = 0;
    for (const DiffBytes& c : chunks) sz += c.size();
    return sz;
  }
  void add_bytes(std::size_t n, Total& total) {
    bytes_ += n;
    total.fetch_add(n, std::memory_order_relaxed);
  }
  // Releases an entry's bytes from every counter it is part of; the caller
  // removes the entry itself.  Returns the entry's bytes.
  std::size_t drop(const Entry& e, Total& total) {
    const std::size_t sz = size_of(e.chunks);
    bytes_ -= sz;
    total.fetch_sub(sz, std::memory_order_relaxed);
    if (e.pinned) pinned_bytes_ -= sz;
    if (e.relayed) relay_bytes_ -= sz;
    return sz;
  }

  // Insertion order is FIFO order: eviction walks from the front, skipping
  // pins.
  std::vector<Entry> entries_;
  std::size_t bytes_ = 0;
  std::size_t pinned_bytes_ = 0;  // subset of bytes_ held by pinned entries
  std::size_t relay_bytes_ = 0;   // subset of bytes_ retained for the relay
};

// Admission to a push set, shared by both push protocols.  The update push
// counts barrier epochs with the same reader set, the lock push counts the
// lock's own critical sections that touched the page; a page joins the set
// once the streak reaches base << min(denials, 4).  Each denial of a member
// doubles the streak re-admission needs (up to 16x), so sharing that only
// looks stable stops churning admit/deny cycles, while a page seen stable
// for the first time joins at the base threshold.
struct PushAdmission {
  std::uint32_t streak = 0;   // consecutive qualifying observations
  std::uint32_t denials = 0;  // denials that demoted a member (the lock
                              // push also counts late ones; see
                              // Node::on_lock_push_deny)
  bool member = false;        // in the push set

  // Counts one more qualifying observation.  Returns membership.
  bool admit(std::uint32_t base) {
    ++streak;
    if (streak >= base << std::min<std::uint32_t>(denials, 4)) member = true;
    return member;
  }
  // A reader denied the push: leave the set and restart the streak.
  // Returns whether the page was a member (a demotion).
  bool deny() {
    const bool was = member;
    if (was) ++denials;
    member = false;
    streak = 0;
    return was;
  }
};

// Which push protocol armed a page (see PageEntry::armed).
enum class PushArm : std::uint8_t { kNone, kUpdate, kLock };

// One per page per node, whether or not the program touches the page, so
// the fields are ordered widest first and the one-byte flags share a single
// tail word; every member is empty without a heap allocation until the page
// is used.
struct PageEntry {
  // Serializes page-state transitions between the node's compute thread
  // (faults, invalidations) and its service thread (diff materialization).
  std::mutex mu;

  // Twin for the currently writable / pending interval (at most one; older
  // intervals' diffs are already materialized in the diff store).  Valid
  // only while `twin_valid`.
  PendingTwin twin;

  // Write notices to apply at the next fault, sorted on use by lamport.
  std::vector<UnappliedNotice> unapplied;

  // Diff chunks this node has already fetched for the page (guarded by mu).
  PageDiffCache diff_cache;

  // ---- adaptive update protocol, reader side (guarded by mu) ----
  // Writers whose pushes landed since the last demotion scan (bitmask by
  // node id; kUpdateDeny targets).
  std::uint64_t pushed_by = 0;
  // Pushes applied to this page since promotion; schedules the armed probes
  // (every update_reprobe_epochs-th push — the ones in between validate
  // outright).  Reset on demotion.
  std::uint32_t pushes_since_probe = 0;

  PageState state = PageState::kInvalid;
  bool ever_valid = false;  // false => local copy is the initial zero page
  bool twin_valid = false;

  // Armed by a push (guarded by mu): every wanted diff has been applied and
  // the contents are current, but the page is deliberately left unmapped so
  // the next access faults once, locally — the probe proving the reader
  // still consumes the push.  The update push judges its probe at the next
  // barrier's demotion scan, the lock push at this node's release of the
  // pushing lock (Node::lock_push_judge); a page still armed there is a dead
  // push and its pusher is denied.
  PushArm armed = PushArm::kNone;
  // Any fault on the page since the last barrier's demotion scan (cheap
  // proxy for "the reader still uses this data"; reads of a valid page are
  // invisible, which is exactly what the update probe exists to sample).
  bool push_touched = false;

  // Whether the diff cache holds every unapplied notice's chunks: only then
  // may parked pushes be applied, since applying a suffix out of lamport
  // order could resurrect overwritten bytes.
  bool cache_covers_unapplied() const {
    return std::all_of(unapplied.begin(), unapplied.end(),
                       [&](const UnappliedNotice& n) {
                         return diff_cache.lookup(n.writer, n.seq) != nullptr;
                       });
  }
};

}  // namespace now::tmk
