// DSM protocol message types.
//
// Payload layouts are defined next to their senders/handlers in node_*.cpp;
// this header is the single registry of discriminators so traffic breakdowns
// by type are interpretable.
#pragma once

#include <cstdint>

namespace now::tmk {

enum MsgType : std::uint16_t {
  kInvalidMsg = 0,

  // Fork-join (OpenMP-style master/slave execution)
  kFork = 1,      // master -> slave: region fn + firstprivate blob + records
  kJoin = 2,      // slave -> master: records (release at region end)
  kShutdown = 3,  // master -> slave: leave the fork service loop

  // Page consistency.  One request per *writer*, covering every page the
  // requester wants from it in one round trip: the faulting page plus any
  // neighbors the multi-page prefetch window folded in (and, at barriers,
  // every page the GC validation pass needs from that writer).
  kDiffRequest = 4,  // faulting node -> writer: pages + wanted interval seqs
  kDiffReply = 5,    // writer -> faulting node: diffs, per page per interval

  // Locks (distributed queue: manager forwards to last requester)
  kLockAcquire = 6,  // requester -> manager
  kLockForward = 7,  // manager -> previous tail
  kLockGrant = 8,    // previous holder (or manager) -> requester, + records

  // Barriers (centralized manager)
  kBarrierArrive = 9,   // node -> manager, + records (release)
  kBarrierDepart = 10,  // manager -> node: GC floor (the minimal vector time
                        // across all arrivals) + merged records (acquire)

  // Semaphores (static manager; two messages per operation, as in the paper)
  kSemaSignal = 11,  // signaler -> manager, + GC floor + records (release)
  kSemaAck = 12,     // manager -> signaler
  kSemaWait = 13,    // waiter -> manager (acquire)
  kSemaGrant = 14,   // manager -> waiter, + records

  // Condition variables (queued at the associated lock's manager).  Deltas
  // bound for the manager log carry the sender's GC floor, like kSemaSignal.
  kCondWait = 15,       // waiter -> manager: releases lock, joins cond queue
  kCondSignal = 16,     // signaler -> manager
  kCondBroadcast = 17,  // signaler -> manager

  // Flush (kept for the ablation study; the paper removes it): 2(n-1) msgs
  kFlushNotice = 18,  // flusher -> every other node, + records
  kFlushAck = 19,     // other node -> flusher

  // Shared heap allocation (served by node 0)
  kAllocRequest = 20,
  kAllocReply = 21,
  kFreeRequest = 22,
  kFreeAck = 23,

  // Adaptive update protocol (one-way, no replies).  A writer arriving at a
  // barrier pushes the epoch's diffs for its update-promoted pages to their
  // stable readers — all pages for one reader in one message — and the
  // reader's barrier departure applies them, skipping the post-barrier fault
  // and the kDiffRequest/kDiffReply round trip.  A reader that stopped
  // touching a pushed page denies the writers, demoting the page back to
  // invalidate mode.
  kUpdatePush = 24,  // writer -> stable reader: pages + interval seqs + diffs
  kUpdateDeny = 25,  // reader -> writer: pages whose pushes went untouched

  // Migratory lock push (one-way).  The push itself has no message of its
  // own — it piggybacks on kLockGrant (diffs of the granter's closed
  // interval for the lock's hot protected pages, applied by the requester
  // during its acquire).  A holder that releases the lock with a pushed
  // page still *armed* (never touched in the whole critical section) denies
  // the pusher, demoting the page from the lock's protected set.
  kLockPushDeny = 26,  // holder -> pusher: lock + pages whose pushes were dead

  // Combining-tree barrier fabric (barrier_tree_arity >= 1).  A combining
  // point that has collected its whole fan-in (children subtrees + its own
  // compute thread's kBarrierArrive) folds them and forwards one message to
  // its parent; the root's departure wave retraces the tree.  Distinct from
  // kBarrierArrive/kBarrierDepart because an interior node's service thread
  // originates these itself — they are not rpc requests and carry a folded
  // subtree vector time, not a single node's.
  kTreeArrive = 27,  // combining point -> parent: folded min vt + mgr-log
                     // GC floor + mgr-log record delta (release, combined)
  kTreeDepart = 28,  // parent -> combining point: global floor + records
                     // the subtree fold was missing (acquire, fanned down)

  // On-demand GC exchange (meta_ceiling_bytes > 0).  A node whose metadata
  // footprint crosses the ceiling sends kGcRequest to the barrier root; the
  // root fans the solicitation down the same combining tree the barriers
  // use, each node answers up with its current vector time and its last
  // *validated* floor folded kTreeArrive-style (min per component), and the
  // root's kGcDepart wave fans the fresh global floor (plus the folded
  // validated floor that bounds one-exchange-delayed own-diff reclaim) back
  // down.  Unlike the barrier messages, nothing blocks: service threads
  // fold and forward, and each compute thread applies the parked floor at
  // its next synchronization operation.
  kGcRequest = 29,  // over-ceiling node -> root; root/interior -> children
  kGcArrive = 30,   // node -> parent: vt + validated floor (folded min)
  kGcDepart = 31,   // parent -> children: fresh floor + reclaim-ack floor

  // Reliability channel (any TMK_NET_*_PPM fault knob, crash injection, or
  // the net_reliable field).  Standalone cumulative ack, sent by the
  // channel layer when the reverse link has been idle past the flush
  // timeout (acks otherwise piggyback on reverse traffic for free), and as
  // the tail-loss probe's request and the receiver's report.  Consumed
  // inside the channel — a node's handler switch never sees one — but
  // registered here so traffic breakdowns attribute the ack messages and
  // bytes.
  kAck = 32,  // receiver -> sender: cumulative per-link ack, empty payload

  // Sent only when the reliability channel is armed: on a perfect wire a
  // cond_wait registration lands in the manager's mailbox synchronously,
  // strictly before the waiter releases the lock — so no signal the next
  // holder issues can beat it.  A lossy wire breaks that (a dropped
  // registration is retransmitted milliseconds later, after the grant and
  // the next holder's signal raced ahead on other links), turning
  // signal-with-no-waiter noops into lost wakeups.  The ack restores the
  // causal order TreadMarks' request-response UDP protocol had natively:
  // the waiter holds the lock until its registration is confirmed.
  kCondWaitAck = 33,  // manager -> waiter: cond registration confirmed

  // Node-crash detection (TMK_NET_CRASH_NODE).  A sequenced keepalive the
  // channel layer emits on an idle link while crash injection is armed: it
  // demands an ack like any other transmission, so a silently dead peer —
  // one nobody happens to owe traffic — still drives some survivor's
  // retransmit counter to exhaustion.  Consumed inside the channel (probes
  // advance the link sequence but are filtered at in-order release), so no
  // handler ever sees one.
  kPing = 34,  // channel keepalive probe, empty payload

  // Crash verdict, injected unsequenced (ch_seq 0) into every live mailbox
  // by the runtime once a channel endpoint's retransmissions toward a peer
  // exhaust: the service thread poisons its node's blocking rendezvous
  // points so the compute thread unwinds, and the runtime either reports a
  // clean failure (checkpointing off) or rolls the whole run back to the
  // last durable checkpoint epoch.
  kNodeDown = 35,  // runtime -> every live node: payload = victim id

  // Barrier-aligned coordinated checkpointing (TMK_CKPT_EVERY).  After a
  // checkpoint barrier's departure, each node snapshots its assigned pages
  // and asks its own service thread for the sema manager counts it owns
  // (the only app-visible manager state that must survive a run-level
  // restart), then confirms to the barrier root; the root promotes the
  // staged epoch to durable once all N commits arrive.
  kCkptQuery = 36,   // compute -> own service: snapshot managed sema counts
  kCkptReply = 37,   // own service -> compute: (sema id, count) pairs
  kCkptCommit = 38,  // node -> barrier root: epoch staged locally
  kCkptAck = 39,     // root -> node: epoch durable cluster-wide

  kNumMsgTypes
};

const char* msg_type_name(std::uint16_t t);

}  // namespace now::tmk
