// Bounded MPSC mailbox: the channel into every rt node.
//
// Every rt node owns one mailbox; any thread may post to it, and only the
// node's current owner (the worker holding its shard lock) pops. It is a
// Vyukov-style bounded ring of slots, each carrying its own sequence
// number. Producers claim a slot with one CAS on the tail cursor and
// publish with a release store of the slot sequence; the consumer pops
// with plain loads plus one store. Per-producer FIFO holds because a
// producer's later CAS claims a strictly later slot.
//
// The consumer never blocks: workers poll with backoff (tryPop /
// tryPopBatch). A rank's owner must only ever tryPush (RtWorld
// keeps per-destination spill queues for the full case), so no cycle of
// mutually-sending full nodes can deadlock. Only external driver threads
// may use the blocking push(), which parks on a condvar in bounded
// slices: a lost not-full notify costs one slice of latency, never
// progress.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/expect.h"
#include "common/sync.h"
#include "sim/message.h"

namespace loadex::rt {

/// One unit of mailbox traffic. kState carries a mechanism message for
/// StateHandler::onStateMessage; kTask runs a closure as the node
/// (application work, driver-injected script ops); kStop retires the node.
struct Envelope {
  enum class Kind : std::uint8_t { kState, kTask, kStop };
  Kind kind = Kind::kTask;
  sim::Message msg;            ///< kState only
  std::function<void()> fn;    ///< kTask only
};

struct MailboxConfig {
  std::size_t capacity = 1 << 12;  ///< rounded up to a power of two
};

/// Counters a mailbox accumulates over its lifetime (relaxed atomics;
/// read them after the producers/consumer have quiesced).
struct MailboxStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t full_rejections = 0;  ///< tryPush calls that found it full
  std::uint64_t blocking_waits = 0;   ///< push() calls that had to wait
};

class Mailbox {
 public:
  explicit Mailbox(MailboxConfig cfg = {}) : cfg_(cfg) {
    std::size_t cap = 1;
    while (cap < cfg_.capacity) cap <<= 1;
    cfg_.capacity = cap;
    cells_ = std::vector<Cell>(cap);
    for (std::size_t i = 0; i < cap; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  std::size_t capacity() const { return cfg_.capacity; }

  /// Non-blocking post from any thread; false if the mailbox is full
  /// (the argument is then left intact).
  bool tryPush(Envelope&& e) LOADEX_EXCLUDES(mu_) {
    const bool ok = ringPush(e);
    (ok ? pushes_ : full_rejections_).fetch_add(1, std::memory_order_relaxed);
    return ok;
  }

  /// Blocking post (driver threads only — never call from inside a rank).
  void push(Envelope&& e) LOADEX_EXCLUDES(mu_) {
    if (tryPush(std::move(e))) return;
    blocking_waits_.fetch_add(1, std::memory_order_relaxed);
    sync::MutexLock lk(mu_);
    for (;;) {
      // Bounded wait slices: a missed not-full notify only costs a slice.
      cv_not_full_.waitFor(mu_, kWaitSliceS);
      lk.unlock();
      const bool ok = tryPush(std::move(e));
      lk.lock();
      if (ok) return;
    }
  }

  /// Non-blocking pop (sole consumer only).
  bool tryPop(Envelope& out) {
    const bool ok = ringPop(out);
    if (ok) {
      pops_.fetch_add(1, std::memory_order_relaxed);
      wakeProducers();
    }
    return ok;
  }

  /// Non-blocking batched pop: drain up to `max` envelopes into `out` in
  /// FIFO order, returning how many were taken (sole-consumer only, same
  /// contract as tryPop). The executor drains shards with this so the
  /// per-pop producer-wake and stats overhead is paid once per batch.
  std::size_t tryPopBatch(Envelope* out, std::size_t max) {
    std::size_t k = 0;
    while (k < max && ringPop(out[k])) ++k;
    if (k > 0) {
      pops_.fetch_add(k, std::memory_order_relaxed);
      wakeProducers();
    }
    return k;
  }

  /// Approximate occupancy (exact once producers and consumer quiesce).
  std::size_t approxSize() const {
    const auto pushed = pushes_.load(std::memory_order_relaxed);
    const auto popped = pops_.load(std::memory_order_relaxed);
    return pushed >= popped ? static_cast<std::size_t>(pushed - popped) : 0;
  }

  MailboxStats stats() const {
    MailboxStats s;
    s.pushes = pushes_.load(std::memory_order_relaxed);
    s.pops = pops_.load(std::memory_order_relaxed);
    s.full_rejections = full_rejections_.load(std::memory_order_relaxed);
    s.blocking_waits = blocking_waits_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Wait granularity: wakeups are best-effort, so every sleep is a slice
  // this long at most and correctness never depends on a notify arriving.
  static constexpr double kWaitSliceS = 1e-3;

  struct Cell {
    std::atomic<std::size_t> seq{0};
    Envelope value;
  };

  bool ringPush(Envelope& e) {
    const std::size_t mask = cfg_.capacity - 1;
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const auto diff = static_cast<std::intptr_t>(seq) -
                        static_cast<std::intptr_t>(pos);
      if (diff == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed))
          break;
      } else if (diff < 0) {
        return false;  // full
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
    Cell& cell = cells_[pos & mask];
    cell.value = std::move(e);
    cell.seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  bool ringPop(Envelope& out) {
    const std::size_t mask = cfg_.capacity - 1;
    const std::size_t pos = head_;  // single consumer: plain variable
    Cell& cell = cells_[pos & mask];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff = static_cast<std::intptr_t>(seq) -
                      static_cast<std::intptr_t>(pos + 1);
    if (diff < 0) return false;  // empty (or producer mid-publish)
    LOADEX_EXPECT(diff == 0, "mailbox ring sequence corrupted");
    out = std::move(cell.value);
    cell.value = Envelope{};  // drop payload refs eagerly
    cell.seq.store(pos + cfg_.capacity, std::memory_order_release);
    head_ = pos + 1;
    return true;
  }

  // Notifies without taking mu_; the narrow race (a producer checked the
  // mailbox but has not started waiting yet) only delays it by one
  // bounded wait slice.
  void wakeProducers() {
    if (blocking_waits_.load(std::memory_order_relaxed) >
        blocking_wakes_.load(std::memory_order_relaxed)) {
      blocking_wakes_.store(blocking_waits_.load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
      cv_not_full_.notifyAll();
    }
  }

  MailboxConfig cfg_;

  std::vector<Cell> cells_;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::size_t head_ = 0;

  // Blocking-producer parking. mu_ guards no data — it only carries the
  // condvar waits; the wait/wake counters stay atomic because
  // wakeProducers reads them without the lock.
  sync::Mutex mu_{sync::LockRank::kMailboxPark};
  sync::CondVar cv_not_full_;

  std::atomic<std::uint64_t> pushes_{0};
  std::atomic<std::uint64_t> pops_{0};
  std::atomic<std::uint64_t> full_rejections_{0};
  std::atomic<std::uint64_t> blocking_waits_{0};
  std::atomic<std::uint64_t> blocking_wakes_{0};
};

}  // namespace loadex::rt
