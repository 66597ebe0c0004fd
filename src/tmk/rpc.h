// Blocking rendezvous helpers between a node's compute thread and its
// protocol service thread.
//
// The compute thread issues requests and blocks; the service thread routes
// matching replies back.  This is the user-level analogue of TreadMarks'
// "request handler runs at SIGIO while the application blocks in the page
// fault handler".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>

#include "common/check.h"
#include "simnet/message.h"

namespace now::tmk {

// Thrown out of a poisoned rendezvous: some *other* node died, its reply
// will never come, and the compute thread must unwind so the runtime can
// roll the run back (or report a clean failure).  May propagate through a
// SIGSEGV frame — fetch_and_apply runs inside the fault handler — which is
// why the build carries -fnon-call-exceptions.
struct NodeDownError : std::runtime_error {
  explicit NodeDownError(std::uint32_t victim_id)
      : std::runtime_error("peer node down"), victim(victim_id) {}
  std::uint32_t victim;
};

// Thrown by the crash-injection site on the victim itself: this node is the
// one dying.  Distinct from NodeDownError so the runtime can tell the
// scripted death from a collateral unwind.
struct NodeCrashedError : std::runtime_error {
  NodeCrashedError() : std::runtime_error("injected node crash") {}
};

// Seq-matched replies; supports several outstanding requests (a page fetch
// requests diffs from every writer in parallel).
//
// Poisoning: when the service thread learns a peer died, every pending and
// future wait must fail — the reply may simply never arrive.  poison()
// wakes all waiters; a waiter whose reply already landed still gets it
// (the data is valid and keeping it reduces divergence), everyone else
// throws NodeDownError.  A reply can still be on the wire when its waiter
// throws and erases the slot; once poisoned, fulfill() drops and counts
// such a late reply instead of treating it as a protocol error.
class RpcClient {
 public:
  std::uint64_t begin() {
    std::lock_guard<std::mutex> lock(mu_);
    if (poisoned_) throw NodeDownError(victim_);
    const std::uint64_t seq = next_seq_++;
    pending_.emplace(seq, std::nullopt);
    return seq;
  }

  sim::Message wait(std::uint64_t seq) { return *wait_unless(seq, nullptr); }

  // Like wait(), but returns nullopt as soon as `*wake` is set (rechecked
  // after every nudge()); the request stays pending for a later wait.
  std::optional<sim::Message> wait_unless(std::uint64_t seq,
                                          const std::atomic<bool>* wake) {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = pending_.find(seq);
    NOW_CHECK(it != pending_.end()) << "rpc wait without begin";
    auto woken = [&] {
      return wake != nullptr && wake->load(std::memory_order_acquire);
    };
    cv_.wait(lock,
             [&] { return poisoned_ || it->second.has_value() || woken(); });
    if (!poisoned_ && !it->second.has_value()) return std::nullopt;
    if (!it->second.has_value()) {
      pending_.erase(it);
      throw NodeDownError(victim_);
    }
    sim::Message m = std::move(*it->second);
    pending_.erase(it);
    return m;
  }

  void fulfill(std::uint64_t seq, sim::Message&& m) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = pending_.find(seq);
      if (it == pending_.end() && poisoned_) {
        ++late_replies_;
        return;
      }
      NOW_CHECK(it != pending_.end()) << "unmatched rpc reply seq " << seq;
      it->second = std::move(m);
    }
    cv_.notify_all();
  }

  // Replies dropped because a poisoned wait had already given up on them.
  std::uint64_t late_replies() {
    std::lock_guard<std::mutex> lock(mu_);
    return late_replies_;
  }

  void poison(std::uint32_t victim) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      victim_ = victim;
    }
    cv_.notify_all();
  }

  // Wakes wait_unless() callers to recheck their flag (set it first).
  void nudge() {
    { std::lock_guard<std::mutex> lock(mu_); }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::uint64_t next_seq_ = 1;
  bool poisoned_ = false;
  std::uint32_t victim_ = 0;
  std::uint64_t late_replies_ = 0;
  std::unordered_map<std::uint64_t, std::optional<sim::Message>> pending_;
};

// Single-slot wakeup for unsolicited messages the compute thread blocks on
// (lock grants, the next fork).  Poisoning mirrors RpcClient: queued
// messages drain first, then take() throws NodeDownError.
class WaitSlot {
 public:
  void post(sim::Message&& m) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(std::move(m));
    }
    cv_.notify_all();
  }

  sim::Message take() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return poisoned_ || !queue_.empty(); });
    if (queue_.empty()) throw NodeDownError(victim_);
    sim::Message m = std::move(queue_.front());
    queue_.pop_front();
    return m;
  }

  void poison(std::uint32_t victim) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      poisoned_ = true;
      victim_ = victim;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool poisoned_ = false;
  std::uint32_t victim_ = 0;
  std::deque<sim::Message> queue_;
};

}  // namespace now::tmk
