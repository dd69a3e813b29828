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
// One slot is one 64-byte cache line: an 8-byte sequence plus a 48-byte
// Envelope, a closed variant of closure / state message / stop, so a
// transfer moves only the live alternative. A producer publishing slot
// k+1 never invalidates the line the consumer is reading slot k from,
// and a push touches only the tail cursor's line and its own slot's. The push count is the tail cursor
// itself (a slot is claimed only by a successful push) and the pop count
// the head cursor, so no per-message counter is shared between the two
// sides.
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
#include <variant>
#include <vector>

#include "common/expect.h"
#include "common/sync.h"
#include "sim/message.h"

namespace loadex::rt {

/// Retires the node that pops it.
struct Stop {};

/// One unit of mailbox traffic: a closure the node runs as itself
/// (application work, driver-injected script ops), a mechanism message
/// for StateHandler::onStateMessage, or a Stop. Consumers dispatch with
/// std::visit, so the compiler checks that each alternative is handled.
/// A default Envelope is an empty closure.
using Envelope = std::variant<std::function<void()>, sim::Message, Stop>;
static_assert(sizeof(Envelope) == 48,
              "an Envelope plus its slot sequence must fill one cache line");

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
    if (ringPush(e)) return true;
    full_rejections_.fetch_add(1, std::memory_order_relaxed);
    return false;
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
  bool tryPop(Envelope& out) { return tryPopBatch(&out, 1) == 1; }

  /// Non-blocking batched pop: drain up to `max` envelopes into `out` in
  /// FIFO order, returning how many were taken (sole-consumer only, same
  /// contract as tryPop). The executor drains shards with this so the
  /// head-cursor store and the producer-wake check are paid once per batch.
  std::size_t tryPopBatch(Envelope* out, std::size_t max) {
    const std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t k = 0;
    while (k < max && ringPop(head + k, out[k])) ++k;
    if (k > 0) {
      head_.store(head + k, std::memory_order_relaxed);
      wakeProducers();
    }
    return k;
  }

  /// Approximate occupancy (exact once producers and consumer quiesce).
  std::size_t approxSize() const {
    const auto popped = head_.load(std::memory_order_relaxed);
    const auto pushed = tail_.load(std::memory_order_relaxed);
    return pushed >= popped ? pushed - popped : 0;
  }

  MailboxStats stats() const {
    MailboxStats s;
    s.pushes = tail_.load(std::memory_order_relaxed);
    s.pops = head_.load(std::memory_order_relaxed);
    s.full_rejections = full_rejections_.load(std::memory_order_relaxed);
    s.blocking_waits = blocking_waits_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  // Wait granularity: wakeups are best-effort, so every sleep is a slice
  // this long at most and correctness never depends on a notify arriving.
  static constexpr double kWaitSliceS = 1e-3;

  static constexpr std::size_t kCacheLine = 64;

  struct alignas(kCacheLine) Cell {
    std::atomic<std::size_t> seq{0};
    Envelope value;
  };
  static_assert(sizeof(Cell) == kCacheLine, "one ring slot per cache line");

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

  // Pops slot `pos`; the caller (the sole consumer) advances head_.
  bool ringPop(std::size_t pos, Envelope& out) {
    const std::size_t mask = cfg_.capacity - 1;
    Cell& cell = cells_[pos & mask];
    const std::size_t seq = cell.seq.load(std::memory_order_acquire);
    const auto diff = static_cast<std::intptr_t>(seq) -
                      static_cast<std::intptr_t>(pos + 1);
    if (diff < 0) return false;  // empty (or producer mid-publish)
    LOADEX_EXPECT(diff == 0, "mailbox ring sequence corrupted");
    out = std::move(cell.value);
    cell.value = Envelope{};  // drop payload refs eagerly
    cell.seq.store(pos + cfg_.capacity, std::memory_order_release);
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

  // Written only by the constructor: every side reads it, nobody
  // invalidates it.
  MailboxConfig cfg_;
  std::vector<Cell> cells_;

  // Producer line. tail_ counts every slot ever claimed, i.e. every
  // accepted push; a refused push bumps the count next to it.
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};
  std::atomic<std::uint64_t> full_rejections_{0};

  // Consumer line. head_ counts every pop; atomic only because stats()
  // and approxSize() read it from other threads. The wait/wake counters
  // live here because wakeProducers reads both on every batch and only
  // a blocked driver thread ever bumps blocking_waits_.
  alignas(kCacheLine) std::atomic<std::size_t> head_{0};
  std::atomic<std::uint64_t> blocking_waits_{0};
  std::atomic<std::uint64_t> blocking_wakes_{0};

  // Blocking-producer parking. mu_ guards no data — it only carries the
  // condvar waits.
  alignas(kCacheLine) sync::Mutex mu_{sync::LockRank::kMailboxPark};
  sync::CondVar cv_not_full_;
};

}  // namespace loadex::rt
