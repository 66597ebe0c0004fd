// Lossy-wire fault injection and the TreadMarks retransmission protocol that
// survives it.
//
// The paper's TreadMarks runs over UDP: an unreliable datagram wire made
// reliable by an operation-level retransmission protocol.  The default
// simnet wire is perfect, so that layer was assumed; this module reproduces
// both halves:
//
//  - FaultConfig injects per-link drop / duplicate / reorder / delay-jitter
//    faults, deterministically: every transmission on a (src, dst) link
//    draws from a counter-indexed hash of the seed, so a failing schedule
//    replays exactly from (seed, knobs) with no RNG state to capture.
//
//  - Channel restores exactly-once per-(src,dst) FIFO delivery on top of
//    the faulty wire, before any protocol handler runs: every non-local
//    message carries a per-link sequence number; the receiver dedups
//    (`ch_seq <= delivered`), holds out-of-order arrivals until the gap
//    fills, and acks cumulatively.  Acks piggyback on reverse traffic; a
//    standalone ack goes out only when the reverse link stays idle past a
//    flush timeout.  The sender keeps unacked transmissions in a
//    retransmit queue and recovers losses in three steps, all paced by
//    *host* clocks (virtual clocks freeze while every thread blocks, so
//    liveness cannot come from virtual time):
//
//     * Tail-loss probe (after RACK-TLP, RFC 8985).  When a link's newest
//       transmission has sat unacked for PTO = rto_host_us / 4 with nothing
//       sent after it, the sender sends one header-only ack that *requests*
//       a report and names the highest sequence number sent.
//     * Report.  A receiver answers a request at once with an ack that
//       echoes that number, and also reports unasked the moment a gap
//       first opens (a later packet arrived ahead of a missing one).  Per-
//       link delivery is FIFO, so whatever the echoed number covers and the
//       cumulative ack does not was lost (or is reordered).
//     * Fast retransmit (after RFC 5681).  On a report the sender applies
//       the cumulative ack and, if the front unacked entry is covered by the
//       echo, re-sends it at once (at most once per PTO per entry).  A
//       report whose ack covers everything drains the queue: a lost ack
//       costs a header, not a payload.
//
//    An exponential-backoff RTO stays as the backstop, and only its
//    expiries count toward max_retries, the node-down budget: a peer that
//    answers reports is alive.  However a loss is found, the modeled cost
//    is the same: each retransmission is re-stamped rto_virtual_ns after
//    the previous attempt's virtual send time, so host pacing never moves
//    virtual time.
//
// Channel sequencing costs nothing when disabled: Network bypasses this
// module entirely and the wire is the same perfect wire as before.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/check.h"
#include "common/env.h"
#include "simnet/mailbox.h"
#include "simnet/message.h"
#include "simnet/model.h"
#include "simnet/traffic.h"

namespace now::sim {

// Stateless splitmix64 finalizer: the fault stream for transmission n on
// link (src, dst) is fault_mix(seed ^ fault_mix(link) ^ n) — identical
// draws for identical (seed, link, n), no shared state.
inline std::uint64_t fault_mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Seeded per-link fault probabilities, all default off.  Probabilities are
// parts-per-million of *transmissions* (retransmissions draw again — a
// retransmitted packet can itself be lost).
struct FaultConfig {
  std::uint32_t drop_ppm = 0;     // transmission vanishes
  std::uint32_t dup_ppm = 0;      // delivered twice
  std::uint32_t reorder_ppm = 0;  // held back, delivered after the next one
  std::uint64_t jitter_ns = 0;    // extra arrival delay in [0, jitter_ns)
  std::uint64_t seed = 1;

  bool any() const {
    return drop_ppm != 0 || dup_ppm != 0 || reorder_ppm != 0 || jitter_ns != 0;
  }

  // The draw of fault stream `stream` (1 drop, 2 dup, 3 reorder, 4 jitter)
  // for the n-th transmission (from 1) on link src -> dst.
  std::uint64_t draw(NodeId src, NodeId dst, std::uint64_t n,
                     std::uint64_t stream) const {
    const std::uint64_t link = (static_cast<std::uint64_t>(src) << 32) | dst;
    const std::uint64_t base = fault_mix(seed ^ fault_mix(link) ^ n);
    return fault_mix(base ^ (stream * 0x9e3779b97f4a7c15ULL));
  }
  bool drops(NodeId src, NodeId dst, std::uint64_t n) const {
    return drop_ppm != 0 && draw(src, dst, n, 1) % 1000000 < drop_ppm;
  }

  // The TMK_NET_* chaos knobs (config *defaults*, like every TMK_ knob:
  // code that assigns the field explicitly is immune).
  static FaultConfig from_env() {
    FaultConfig f;
    f.drop_ppm = static_cast<std::uint32_t>(env::env_size("TMK_NET_DROP_PPM", 0));
    f.dup_ppm = static_cast<std::uint32_t>(env::env_size("TMK_NET_DUP_PPM", 0));
    f.reorder_ppm =
        static_cast<std::uint32_t>(env::env_size("TMK_NET_REORDER_PPM", 0));
    f.jitter_ns = env::env_size("TMK_NET_JITTER_NS", 0);
    f.seed = env::env_size("TMK_NET_FAULT_SEED", 1);
    return f;
  }
};

struct ChannelConfig {
  // Sequencing + retransmission on even with a clean wire (measures the
  // protocol's zero-loss overhead).  Any injected fault forces it on — a
  // lossy wire without the protocol would simply corrupt the run.
  bool reliable = false;
  FaultConfig fault;

  // Discriminator standalone acks are sent with (consumed inside the
  // channel, never surfaced to a handler) and the size of the sender-side
  // message-type table Network::send validates against (0 = no validation,
  // for protocol-agnostic uses of the raw simnet).
  std::uint16_t ack_type = 0;
  std::uint16_t num_msg_types = 0;

  // Host-clock pacing of the maintenance loop.  The RTO is the backstop
  // and backs off exponentially per retry; max_retries bounds it loudly —
  // with every fault probability < 1, that many consecutive losses of the
  // same packet means the protocol (not the wire) is broken.  Most losses
  // are found sooner, by a report (see the header): the tail-loss probe
  // fires at PTO = rto_host_us / 4.  The RTO stays well above ack_flush +
  // quantum + scheduling noise, because a timer retransmit always resends
  // the payload (measured: 1ms RTO spuriously retransmitted ~20% of a
  // clean wire's messages under parallel test load), while a probe whose
  // report finds the data delivered costs two header-only acks.
  std::uint32_t quantum_host_us = 250;    // recv poll + maintenance period
  std::uint32_t rto_host_us = 8000;       // initial retransmit timeout
  std::uint32_t ack_flush_host_us = 500;  // reverse-link idle before a bare ack
  std::uint32_t max_retries = 24;

  // Keepalive probes for node-crash detection (0 = off).  A link with prior
  // traffic in either direction that stays idle this long gets a sequenced
  // empty probe of type `probe_type`: it demands a cumulative ack like any
  // transmission, so a dead peer drives the probe's retransmit counter to
  // exhaustion even when no survivor happens to owe it real traffic (the
  // silent-crash-at-barrier-arrival hole — everyone already acked everything
  // the victim ever sent).  Probes advance the link sequence but are
  // filtered at in-order release: no handler ever sees one.
  std::uint32_t probe_idle_host_us = 0;
  std::uint16_t probe_type = 0;

  // Modeled (virtual-clock) cost of a loss: each retransmission is
  // re-stamped this much later than the previous attempt, so a dropped
  // packet charges its round-trip-scale recovery latency to the virtual
  // timeline even though the host-side retry pacing is invisible to it.
  std::uint64_t rto_virtual_ns = 1000000;

  bool enabled() const { return reliable || fault.any(); }
};

// Per-(src,dst) reliability channels for every node of one Network.
// Thread model: one endpoint per node, its mutex serializing that node's
// send path (compute + service threads) with its recv/maintenance path.
// Cross-endpoint interaction goes only through the thread-safe mailboxes,
// so no lock is ever held while taking another endpoint's.
class Channel {
 public:
  Channel(const ChannelConfig& cfg, NetworkModel model,
          std::vector<std::unique_ptr<Mailbox>>* boxes, TrafficCounter* traffic)
      : cfg_(cfg), model_(model), boxes_(boxes), traffic_(traffic) {
    eps_.reserve(boxes->size());
    for (std::size_t i = 0; i < boxes->size(); ++i)
      eps_.push_back(std::make_unique<Endpoint>(boxes->size()));
  }

  bool enabled() const { return cfg_.enabled(); }

  // Installs the node-down verdict sink.  With a handler installed,
  // retransmit exhaustion toward a peer marks that link dead and reports the
  // peer instead of aborting the process (the pre-crash-injection fail-fast
  // behavior, which remains the default).  Install before any traffic flows;
  // the handler is invoked with no channel lock held and must be idempotent
  // (every surviving endpoint with traffic toward the victim detects
  // independently).
  void set_node_down(std::function<void(NodeId)> handler) {
    node_down_ = std::move(handler);
  }

  // Non-local send: stamp the link sequence number, piggyback the reverse
  // link's cumulative ack, queue a retransmit copy, transmit through the
  // fault injector.
  void send(Message&& m) {
    Endpoint& ep = *eps_[m.src];
    std::lock_guard<std::mutex> lock(ep.mu);
    const NodeId dst = m.dst;
    TxLink& tx = ep.tx[dst];
    if (tx.peer_dead) {
      // The peer was declared down: its mailbox is gone and every
      // retransmission would just re-exhaust.  Model the NIC dropping the
      // frame at a dead port, observably.
      stats_.down_link_drops.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto now = Clock::now();
    if (cfg_.probe_idle_host_us != 0)
      tx.probe_due = now + std::chrono::microseconds(cfg_.probe_idle_host_us);
    transmit(ep, dst, std::move(m), now);
  }

  // Blocking channel-aware receive: pops raw wire arrivals, reassembles
  // exactly-once per-link FIFO into the ready queue, and runs retransmit /
  // ack maintenance whenever the wire goes quiet for a quantum.
  std::optional<Message> recv(NodeId node) {
    Endpoint& ep = *eps_[node];
    const auto quantum = std::chrono::microseconds(cfg_.quantum_host_us);
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(ep.mu);
        if (!ep.ready.empty()) return pop_ready(ep);
      }
      Message raw;
      switch ((*boxes_)[node]->pop_for(raw, quantum)) {
        case Mailbox::PopStatus::kMessage:
          ingest(node, std::move(raw));
          break;
        case Mailbox::PopStatus::kClosed: {
          std::lock_guard<std::mutex> lock(ep.mu);
          if (!ep.ready.empty()) return pop_ready(ep);
          return std::nullopt;
        }
        case Mailbox::PopStatus::kTimeout:
          break;
      }
      maintain(node);
    }
  }

  std::optional<Message> try_recv(NodeId node) {
    Endpoint& ep = *eps_[node];
    while (auto raw = (*boxes_)[node]->try_pop()) ingest(node, std::move(*raw));
    maintain(node);
    std::lock_guard<std::mutex> lock(ep.mu);
    if (!ep.ready.empty()) return pop_ready(ep);
    return std::nullopt;
  }

  ChannelSnapshot snapshot() const {
    ChannelSnapshot s;
    s.drops_injected = stats_.drops_injected.load(std::memory_order_relaxed);
    s.dups_injected = stats_.dups_injected.load(std::memory_order_relaxed);
    s.reorders_injected = stats_.reorders_injected.load(std::memory_order_relaxed);
    s.retransmits = stats_.retransmits.load(std::memory_order_relaxed);
    s.fast_retransmits =
        stats_.fast_retransmits.load(std::memory_order_relaxed);
    s.retransmit_wire_bytes =
        stats_.retransmit_wire_bytes.load(std::memory_order_relaxed);
    s.dup_drops = stats_.dup_drops.load(std::memory_order_relaxed);
    s.reorder_holds = stats_.reorder_holds.load(std::memory_order_relaxed);
    s.acks_sent = stats_.acks_sent.load(std::memory_order_relaxed);
    s.ack_wire_bytes = stats_.ack_wire_bytes.load(std::memory_order_relaxed);
    s.probes_sent = stats_.probes_sent.load(std::memory_order_relaxed);
    s.down_links = stats_.down_links.load(std::memory_order_relaxed);
    s.down_link_drops = stats_.down_link_drops.load(std::memory_order_relaxed);
    return s;
  }

  void reset_stats() {
    stats_.drops_injected.store(0, std::memory_order_relaxed);
    stats_.dups_injected.store(0, std::memory_order_relaxed);
    stats_.reorders_injected.store(0, std::memory_order_relaxed);
    stats_.retransmits.store(0, std::memory_order_relaxed);
    stats_.fast_retransmits.store(0, std::memory_order_relaxed);
    stats_.retransmit_wire_bytes.store(0, std::memory_order_relaxed);
    stats_.dup_drops.store(0, std::memory_order_relaxed);
    stats_.reorder_holds.store(0, std::memory_order_relaxed);
    stats_.acks_sent.store(0, std::memory_order_relaxed);
    stats_.ack_wire_bytes.store(0, std::memory_order_relaxed);
    stats_.probes_sent.store(0, std::memory_order_relaxed);
    stats_.down_links.store(0, std::memory_order_relaxed);
    stats_.down_link_drops.store(0, std::memory_order_relaxed);
  }

  // Test hook: transmissions of `node` not yet cumulatively acked.
  std::size_t unacked_total(NodeId node) const {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    std::size_t n = 0;
    for (const TxLink& tx : ep.tx) n += tx.unacked.size();
    return n;
  }

 private:
  using Clock = std::chrono::steady_clock;

  // Flags in Message::seq of an ack_type message (a field acks do not
  // otherwise use, inside the modeled header: no extra wire bytes).  The
  // low bits carry the sequence number a request names or a report echoes.
  static constexpr std::uint64_t kAckRequest = 1ULL << 63;
  static constexpr std::uint64_t kAckReport = 1ULL << 62;
  static constexpr std::uint64_t kAckSeqMask = kAckReport - 1;

  struct TxEntry {
    Message msg;  // as stamped at first transmission
    std::uint32_t retries = 0;     // timer expiries (the node-down budget)
    std::uint64_t virtual_ts = 0;  // virtual send time of the last attempt
    Clock::time_point next_due;    // timer (RTO) expiry
    Clock::time_point fast_ok{};   // earliest report-driven retransmit
  };
  struct TxLink {  // this node -> dst
    std::uint64_t next_seq = 0;
    std::uint64_t fault_draws = 0;  // transmissions attempted (fault stream pos)
    std::deque<TxEntry> unacked;
    std::optional<Message> limbo;  // reorder: held until the next transmission
    bool peer_dead = false;        // retransmit exhaustion verdict delivered
    Clock::time_point probe_due{};  // next keepalive, lazily armed
    // Tail-loss probe: PTO after the newest transmission; max() once sent.
    Clock::time_point tlp_due = Clock::time_point::max();
  };
  struct RxLink {  // src -> this node
    std::uint64_t delivered = 0;  // highest in-order ch_seq surfaced
    std::map<std::uint64_t, Message> held;
    bool ack_owed = false;
    Clock::time_point ack_due;
  };
  struct Endpoint {
    explicit Endpoint(std::size_t n) : tx(n), rx(n) {}
    mutable std::mutex mu;
    std::vector<TxLink> tx;
    std::vector<RxLink> rx;
    std::deque<Message> ready;  // exactly-once per-link FIFO, handler-visible
    Clock::time_point next_maintain{};
  };
  struct Stats {
    std::atomic<std::uint64_t> drops_injected{0};
    std::atomic<std::uint64_t> dups_injected{0};
    std::atomic<std::uint64_t> reorders_injected{0};
    std::atomic<std::uint64_t> retransmits{0};
    std::atomic<std::uint64_t> fast_retransmits{0};
    std::atomic<std::uint64_t> retransmit_wire_bytes{0};
    std::atomic<std::uint64_t> dup_drops{0};
    std::atomic<std::uint64_t> reorder_holds{0};
    std::atomic<std::uint64_t> acks_sent{0};
    std::atomic<std::uint64_t> ack_wire_bytes{0};
    std::atomic<std::uint64_t> probes_sent{0};
    std::atomic<std::uint64_t> down_links{0};
    std::atomic<std::uint64_t> down_link_drops{0};
  };

  Message pop_ready(Endpoint& ep) {  // ep.mu held
    Message m = std::move(ep.ready.front());
    ep.ready.pop_front();
    return m;
  }

  // One transmission attempt on the wire, through the fault injector.
  // Caller holds the *sender's* endpoint mutex; only the (thread-safe)
  // destination mailbox is touched beyond it.  Traffic is recorded per
  // attempt: duplicates and retransmissions are real packets on the real
  // wire, which is exactly the overhead Table 2 should see.
  void wire_send(TxLink& tx, Message&& m) {
    traffic_->record(m.type, m.payload.size(),
                     model_.wire_bytes(m.payload.size()));
    const FaultConfig& f = cfg_.fault;
    if (!f.any()) {
      deliver(tx, std::move(m), 0, false);
      return;
    }
    const std::uint64_t n = ++tx.fault_draws;
    const auto draw = [&](std::uint64_t stream) {
      return f.draw(m.src, m.dst, n, stream);
    };
    if (f.drops(m.src, m.dst, n)) {
      stats_.drops_injected.fetch_add(1, std::memory_order_relaxed);
      return;  // vanished; a held reorder victim (if any) stays held
    }
    const bool dup = f.dup_ppm != 0 && draw(2) % 1000000 < f.dup_ppm;
    const bool reorder = f.reorder_ppm != 0 && draw(3) % 1000000 < f.reorder_ppm;
    const std::uint64_t jitter =
        f.jitter_ns != 0 ? draw(4) % f.jitter_ns : 0;
    if (dup) {
      Message copy = m;
      traffic_->record(copy.type, copy.payload.size(),
                       model_.wire_bytes(copy.payload.size()));
      stats_.dups_injected.fetch_add(1, std::memory_order_relaxed);
      deliver(tx, std::move(copy), jitter, false);
    }
    deliver(tx, std::move(m), jitter, reorder);
  }

  // Physical delivery with the link's reorder hold-back: a reordered packet
  // parks in limbo and rides out *after* the link's next delivery (liveness:
  // an unacked parked packet is retransmitted, and that retransmission is
  // itself the next transmission that flushes the limbo).
  void deliver(TxLink& tx, Message&& m, std::uint64_t extra_ns, bool reorder) {
    m.arrive_ts_ns =
        m.send_ts_ns + model_.transit_ns(m.payload.size()) + extra_ns;
    if (reorder && !tx.limbo.has_value()) {
      stats_.reorders_injected.fetch_add(1, std::memory_order_relaxed);
      tx.limbo = std::move(m);
      return;
    }
    const NodeId dst = m.dst;
    (*boxes_)[dst]->push(std::move(m));
    if (tx.limbo.has_value()) {
      Message held = std::move(*tx.limbo);
      tx.limbo.reset();
      (*boxes_)[dst]->push(std::move(held));
    }
  }

  // Receiver-side reassembly: ack application, dedup, gap hold, in-order
  // release into the ready queue.
  void ingest(NodeId node, Message&& m) {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    if (m.src == m.dst) {  // local fast path was never sequenced
      ep.ready.push_back(std::move(m));
      return;
    }
    const NodeId src = m.src;
    TxLink& tx = ep.tx[src];
    RxLink& rx = ep.rx[src];
    // Cumulative ack for our own transmissions toward m.src (piggybacked on
    // every message, including duplicates and pure acks).
    while (!tx.unacked.empty() && tx.unacked.front().msg.ch_seq <= m.ch_ack)
      tx.unacked.pop_front();
    if (m.ch_seq == 0) {
      // Unsequenced: a standalone ack (consumed here) or a message sent
      // before the channel was enabled — surfaced as-is.
      if (m.type != cfg_.ack_type) {
        ep.ready.push_back(std::move(m));
      } else if (m.seq & kAckRequest) {
        send_ack(ep, node, src, kAckReport | (m.seq & kAckSeqMask));
      } else if (m.seq & kAckReport) {
        on_report(ep, src, m.seq & kAckSeqMask);
      }
      return;
    }
    if (m.ch_seq <= rx.delivered) {
      // Duplicate of something already surfaced (injected dup, or a
      // retransmission whose original made it).  Re-arm the ack so the
      // sender stops retransmitting.
      stats_.dup_drops.fetch_add(1, std::memory_order_relaxed);
      owe_ack(rx);
      return;
    }
    if (m.ch_seq == rx.delivered + 1) {
      rx.delivered = m.ch_seq;
      release(ep, std::move(m));
      auto it = rx.held.begin();
      while (it != rx.held.end() && it->first == rx.delivered + 1) {
        rx.delivered = it->first;
        release(ep, std::move(it->second));
        it = rx.held.erase(it);
      }
      owe_ack(rx);
      return;
    }
    // Gap: a predecessor is missing (reordered or dropped).  Hold until it
    // arrives or is retransmitted; the gap's first arrival reports at once.
    const std::uint64_t seq = m.ch_seq;
    const bool gap_opened = rx.held.empty();
    if (rx.held.emplace(seq, std::move(m)).second)
      stats_.reorder_holds.fetch_add(1, std::memory_order_relaxed);
    else
      stats_.dup_drops.fetch_add(1, std::memory_order_relaxed);
    if (gap_opened)
      send_ack(ep, node, src, kAckReport | seq);
    else
      owe_ack(rx);
  }

  // Sender side of a report (ep.mu held, its cumulative ack applied): the
  // front unacked entry, if the echo covers it, never arrived.
  void on_report(Endpoint& ep, NodeId dst, std::uint64_t echoed) {
    TxLink& tx = ep.tx[dst];
    if (tx.unacked.empty()) return;
    TxEntry& e = tx.unacked.front();
    const auto now = Clock::now();
    if (e.msg.ch_seq > echoed || now < e.fast_ok) return;
    stats_.fast_retransmits.fetch_add(1, std::memory_order_relaxed);
    retransmit(ep, dst, e, now);
  }

  // In-order release into the handler-visible queue.  Keepalive probes took
  // part in the sequencing (they demand acks — that is their whole job) but
  // carry nothing for a handler.
  void release(Endpoint& ep, Message&& m) {  // ep.mu held
    if (cfg_.probe_type != 0 && m.type == cfg_.probe_type) return;
    ep.ready.push_back(std::move(m));
  }

  void owe_ack(RxLink& rx) {
    if (rx.ack_owed) return;
    rx.ack_owed = true;
    rx.ack_due = Clock::now() + std::chrono::microseconds(cfg_.ack_flush_host_us);
  }

  // Host-paced sender maintenance: timer retransmits of overdue unacked
  // transmissions (exponential backoff), tail-loss probes, keepalive probes
  // on idle links, and flushes of acks whose reverse link stayed idle.
  // Node-down verdicts are collected under the lock and delivered after it
  // drops: the handler pushes into other nodes' mailboxes, and no lock may
  // be held across that.
  void maintain(NodeId node) {
    std::vector<NodeId> dead;
    maintain_locked(node, dead);
    for (NodeId d : dead) node_down_(d);
  }

  void maintain_locked(NodeId node, std::vector<NodeId>& dead) {
    Endpoint& ep = *eps_[node];
    std::lock_guard<std::mutex> lock(ep.mu);
    const auto now = Clock::now();
    if (now < ep.next_maintain) return;
    ep.next_maintain = now + std::chrono::microseconds(cfg_.quantum_host_us);
    for (NodeId dst = 0; dst < ep.tx.size(); ++dst) {
      TxLink& tx = ep.tx[dst];
      if (tx.peer_dead) continue;
      for (TxEntry& e : tx.unacked) {
        if (now < e.next_due) continue;
        if (e.retries >= cfg_.max_retries && node_down_) {
          // Verdict, not abort: with a crash handler installed, exhaustion
          // means the peer is gone.  Drop the link's backlog (nothing will
          // ever ack it) and report once the lock is released.
          tx.peer_dead = true;
          tx.unacked.clear();
          stats_.down_links.fetch_add(1, std::memory_order_relaxed);
          dead.push_back(dst);
          break;  // the clear invalidated the iterator
        }
        NOW_CHECK_LT(e.retries, cfg_.max_retries)
            << "channel " << node << "->" << dst << " seq " << e.msg.ch_seq
            << " (type " << e.msg.type << ") still unacked after "
            << e.retries << " retransmissions — ack path broken";
        ++e.retries;
        e.next_due = now + std::chrono::microseconds(
                               cfg_.rto_host_us
                               << std::min<std::uint32_t>(e.retries, 10));
        retransmit(ep, dst, e, now);
      }
      // Tail-loss probe: the newest transmission sat a PTO with nothing sent
      // after it.  One request per tail; the next transmission re-arms it.
      if (!tx.unacked.empty() && now >= tx.tlp_due) {
        tx.tlp_due = Clock::time_point::max();
        send_ack(ep, node, dst, kAckRequest | tx.next_seq);
      }
      // Keepalive probe on an idle active link (crash detection armed).
      // Built inline — send() takes ep.mu, which is already held — and only
      // while nothing is in flight: an unacked transmission already demands
      // an ack, so a probe would add nothing but wire noise.
      if (cfg_.probe_idle_host_us != 0 && dst != node && tx.unacked.empty() &&
          (tx.next_seq != 0 || ep.rx[dst].delivered != 0)) {
        if (tx.probe_due == Clock::time_point{}) {
          tx.probe_due =
              now + std::chrono::microseconds(cfg_.probe_idle_host_us);
        } else if (now >= tx.probe_due) {
          tx.probe_due =
              now + std::chrono::microseconds(cfg_.probe_idle_host_us);
          // Probes never surface to a handler, so like pure acks they carry
          // no plausible virtual time.
          Message p;
          p.type = cfg_.probe_type;
          p.src = node;
          p.dst = dst;
          stats_.probes_sent.fetch_add(1, std::memory_order_relaxed);
          transmit(ep, dst, std::move(p), now);
        }
      }
    }
    for (NodeId src = 0; src < ep.rx.size(); ++src) {
      RxLink& rx = ep.rx[src];
      if (rx.ack_owed && now >= rx.ack_due) send_ack(ep, node, src, 0);
    }
  }

  std::chrono::microseconds pto() const {
    return std::chrono::microseconds(cfg_.rto_host_us / 4);
  }

  // First transmission of a sequenced message (ep.mu held): stamp the link
  // sequence number, piggyback the reverse link's cumulative ack, keep a
  // retransmit copy and arm the link's tail-loss probe.
  void transmit(Endpoint& ep, NodeId dst, Message&& m, Clock::time_point now) {
    TxLink& tx = ep.tx[dst];
    RxLink& rx = ep.rx[dst];
    m.ch_seq = ++tx.next_seq;
    m.ch_ack = rx.delivered;
    rx.ack_owed = false;  // this message carries the ack
    TxEntry e;
    e.msg = m;  // payload copy kept until acked
    e.virtual_ts = m.send_ts_ns;
    e.next_due = now + std::chrono::microseconds(cfg_.rto_host_us);
    tx.unacked.push_back(std::move(e));
    tx.tlp_due = now + pto();
    wire_send(tx, std::move(m));
  }

  // Re-sends an unacked entry (ep.mu held), whether the timer or a report
  // found the loss: either way it is re-stamped rto_virtual_ns later, the
  // modeled recovery latency, and as the link's newest transmission it
  // re-arms the tail-loss probe.
  void retransmit(Endpoint& ep, NodeId dst, TxEntry& e, Clock::time_point now) {
    TxLink& tx = ep.tx[dst];
    RxLink& rx = ep.rx[dst];
    e.virtual_ts += cfg_.rto_virtual_ns;
    e.fast_ok = now + pto();
    Message copy = e.msg;
    copy.send_ts_ns = e.virtual_ts;
    copy.ch_ack = rx.delivered;  // refreshed piggyback
    rx.ack_owed = false;         // this is reverse traffic
    stats_.retransmits.fetch_add(1, std::memory_order_relaxed);
    stats_.retransmit_wire_bytes.fetch_add(
        model_.wire_bytes(copy.payload.size()), std::memory_order_relaxed);
    tx.tlp_due = now + pto();
    wire_send(tx, std::move(copy));
  }

  // A header-only, unsequenced ack toward dst (ep.mu held): the cumulative
  // ack, plus the request/report flags in `seq`.  Flushes, requests and
  // reports are all standalone acks on the wire and count as such.  Pure
  // acks never surface to a handler, so their virtual timestamps advance
  // no clock; they stamp zero rather than invent a plausible time.
  void send_ack(Endpoint& ep, NodeId node, NodeId dst, std::uint64_t flags) {
    RxLink& rx = ep.rx[dst];
    rx.ack_owed = false;
    Message a;
    a.type = cfg_.ack_type;
    a.src = node;
    a.dst = dst;
    a.seq = flags;
    a.ch_ack = rx.delivered;
    stats_.acks_sent.fetch_add(1, std::memory_order_relaxed);
    stats_.ack_wire_bytes.fetch_add(model_.wire_bytes(0),
                                    std::memory_order_relaxed);
    wire_send(ep.tx[dst], std::move(a));
  }

  ChannelConfig cfg_;
  NetworkModel model_;
  std::vector<std::unique_ptr<Mailbox>>* boxes_;
  TrafficCounter* traffic_;
  std::vector<std::unique_ptr<Endpoint>> eps_;
  Stats stats_;
  std::function<void(NodeId)> node_down_;  // verdict sink; empty = fail fast
};

}  // namespace now::sim
