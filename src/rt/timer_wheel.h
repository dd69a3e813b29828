// Per-rank hashed timer wheel for RtTransport::schedule.
//
// Single-owner by design: a wheel is only ever touched by whoever
// currently owns it (mechanisms arm timers from inside message handlers,
// which the owner runs), so the wheel needs no locks of its own. Two
// ownership modes:
//
//   thread-confined (default) — the owner is one OS thread; the
//     LOADEX_THREAD_CONFINED marker turns a cross-thread touch into a
//     debug-build abort. net::NetWorld's single-threaded event loop binds
//     its wheel this way (bindToCurrentThread).
//   shard-confined — an rt node's wheel belongs to its shard mutex
//     (sync::LockRank::kShard): any worker may run the node, but only
//     while holding its shard's lock. bindToShard switches every debug
//     assert from "am I the bound thread?" to "do I hold the shard
//     lock?" — the runtime backstop of the LockRank hierarchy.
//
// The owner interleaves fireDue() with its other work (mailbox drains,
// socket reads). An rt worker caps its idle backoff while any member
// wheel has timers pending; the net event loop bounds its epoll wait by
// nextDeadline(), so a due timer is never slept through.
//
// Deadlines hash into a fixed ring of slots (deadline / slot_width mod
// nslots); a slot holds every timer of every future "lap", so fireDue
// filters by deadline and keeps not-yet-due entries in place. Due timers
// fire in (deadline, arm-order) order, which keeps re-arm chains (NACK
// retries, heartbeat tails, snapshot timeouts) deterministic relative to
// each other on one node.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "common/sync.h"
#include "common/types.h"

namespace loadex::rt {

class TimerWheel {
 public:
  explicit TimerWheel(double slot_width_s = 1e-4, std::size_t nslots = 256)
      : slot_width_s_(slot_width_s), slots_(nslots) {
    LOADEX_EXPECT(slot_width_s > 0.0 && nslots > 0, "bad timer wheel shape");
  }

  /// Take (or hand over) ownership of the wheel for the calling thread.
  /// An event loop calls this on entry, so the wheel follows the thread
  /// that runs the loop rather than the one that built it.
  void bindToCurrentThread() { confined_.bindToCurrentThread(); }

  /// Switch ownership from "one bound thread" to "whoever holds `mu`".
  /// The rt executor binds every member rank's wheel to its shard
  /// mutex at start(); from then on each wheel call asserts the shard
  /// lock is held by the calling thread instead of checking thread
  /// identity, so work-stealing workers pass and lockless touches abort.
  void bindToShard(const sync::Mutex* mu) { shard_mu_ = mu; }

  /// Arm a one-shot timer at absolute time `now + delay`.
  void schedule(SimTime now, SimTime delay, std::function<void()> fn) {
    assertOwned();
    const SimTime deadline = now + std::max(delay, 0.0);
    slots_[slotOf(deadline)].push_back(
        Timer{deadline, next_seq_++, std::move(fn)});
    ++pending_;
  }

  /// Fire every timer with deadline <= now, in (deadline, arm-order)
  /// order. Callbacks may re-arm (they run after the wheel state is
  /// consistent again). Returns the number fired.
  int fireDue(SimTime now) {
    assertOwned();
    if (pending_ == 0) return 0;
    std::vector<Timer> due;
    for (auto& slot : slots_) {
      auto split = std::partition(
          slot.begin(), slot.end(),
          [now](const Timer& t) { return t.deadline > now; });
      std::move(split, slot.end(), std::back_inserter(due));
      slot.erase(split, slot.end());
    }
    if (due.empty()) return 0;
    pending_ -= due.size();
    std::sort(due.begin(), due.end(), [](const Timer& a, const Timer& b) {
      return a.deadline != b.deadline ? a.deadline < b.deadline
                                      : a.seq < b.seq;
    });
    for (auto& t : due) t.fn();
    return static_cast<int>(due.size());
  }

  /// Earliest pending deadline, +inf when no timer is armed.
  SimTime nextDeadline() const {
    assertOwned();
    if (pending_ == 0) return std::numeric_limits<double>::infinity();
    SimTime best = std::numeric_limits<double>::infinity();
    for (const auto& slot : slots_)
      for (const auto& t : slot) best = std::min(best, t.deadline);
    return best;
  }

  /// Drop every armed timer without firing it (crash teardown: the
  /// owner is retiring the node). Returns how many were cancelled so
  /// the caller can settle the pending-work accounting.
  std::size_t cancelAll() {
    assertOwned();
    const std::size_t n = pending_;
    for (auto& slot : slots_) slot.clear();
    pending_ = 0;
    cancelled_ += n;
    return n;
  }

  std::size_t pending() const { return pending_; }
  std::uint64_t firedTotal() const { return next_seq_ - pending_ - cancelled_; }

 private:
  struct Timer {
    SimTime deadline = 0.0;
    std::uint64_t seq = 0;
    std::function<void()> fn;
  };

  std::size_t slotOf(SimTime deadline) const {
    const auto ticks = static_cast<std::uint64_t>(
        std::max(deadline, 0.0) / slot_width_s_);
    return static_cast<std::size_t>(ticks % slots_.size());
  }

  /// Debug-build ownership check: shard lock held if shard-bound,
  /// otherwise thread confinement.
  void assertOwned() const {
    if (shard_mu_ != nullptr) {
      shard_mu_->assertHeld();
    } else {
      LOADEX_ASSERT_CONFINED(confined_);
    }
  }

  double slot_width_s_;
  const sync::Mutex* shard_mu_ = nullptr;  ///< set → shard-confined
  LOADEX_THREAD_CONFINED(confined_);  ///< one owning thread at a time
  std::vector<std::vector<Timer>> slots_;
  std::size_t pending_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace loadex::rt
