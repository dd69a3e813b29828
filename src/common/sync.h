// The annotated synchronisation layer: every lock and condition variable
// in src/ goes through these wrappers (loadex-lint rule `raw-sync` bans
// the std primitives everywhere else), which buys three things the raw
// primitives cannot give us:
//
//   compile-time checking — the LOADEX_* attribute set below maps onto
//     Clang Thread Safety Analysis (no-op on GCC). Members carry
//     LOADEX_GUARDED_BY(mu), functions carry LOADEX_REQUIRES /
//     LOADEX_ACQUIRE / LOADEX_RELEASE / LOADEX_EXCLUDES, and the `tsa`
//     CMake preset builds src/ with `-Wthread-safety -Werror`, so a
//     handler touching shared state without its lock is a build break,
//     not a TSan lottery ticket.
//   runtime backing — debug builds (and every sanitizer build) track the
//     owning thread of each Mutex, so LOADEX_ASSERT_HELD aborts the
//     moment an annotation is violated on a path the static analysis
//     could not see (callbacks, type-erased closures). Release builds
//     compile the checks away: sizeof(Mutex) == sizeof(std::mutex).
//   deadlock freedom by construction — every Mutex is constructed with a
//     LockRank from the global hierarchy below, and a thread may only
//     acquire a mutex whose rank is strictly greater than every rank it
//     already holds. Debug builds enforce this on every acquisition;
//     loadex-lint rule `lock-hierarchy` checks lexically nested
//     acquisitions against the declared order at review time.
//
// The lock hierarchy (acquire strictly upward; see DESIGN.md §13 for the
// full rationale):
//
//   kShard           (5)   rt executor shard ownership: whoever holds a
//                          shard's mutex is the unique consumer of its
//                          member ranks' mailboxes, wheels and spill.
//                          Handlers run under it, so it sits below every
//                          lock a handler may take
//   kSvcLedger       (15)  svc request ledger; tight scopes only, never
//                          held across a mechanism or transport call
//   kLifecycle       (20)  RtWorld crash/restart/sweep transitions
//   kMailboxPark     (30)  Mailbox blocking-producer parking (push() from
//                          driver threads) — innermost rt lock
//   kAuditSerial     (50)  LockedAuditObserver hook serialisation
//   kMetricsRegistry (60)  MetricsRegistry; gauge sampling emits trace
//                          counters, so it ranks below the trace ring
//   kTraceRing       (70)  TraceRecorder ring — leaf of the whole system
//
// Owner-confined state is not locked at all. An rt node's timer wheel and
// spill queues belong to whoever holds its shard lock (checked with
// assertHeld), and so do the replay core's per-master tallies; thread-
// confined state (the supervisor's suspicion table, a net event loop's
// timer wheel) is marked with LOADEX_THREAD_CONFINED and asserts, in debug
// builds, that every touch comes from the thread it is bound to.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

// ---------------------------------------------------------------------------
// Capability attributes: Clang Thread Safety Analysis, no-op elsewhere.
// ---------------------------------------------------------------------------

#if defined(__clang__) && !defined(SWIG)
#define LOADEX_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define LOADEX_THREAD_ANNOTATION(x)  // no-op on GCC and others
#endif

/// Declares a class to be a lockable capability (goes on the type).
#define LOADEX_CAPABILITY(x) LOADEX_THREAD_ANNOTATION(capability(x))
/// Declares an RAII type that acquires on construction, releases on scope
/// exit (goes on the type).
#define LOADEX_SCOPED_CAPABILITY LOADEX_THREAD_ANNOTATION(scoped_lockable)
/// Member is protected by the given mutex: every read and write must hold it.
#define LOADEX_GUARDED_BY(x) LOADEX_THREAD_ANNOTATION(guarded_by(x))
/// Pointer member whose *pointee* is protected by the given mutex.
#define LOADEX_PT_GUARDED_BY(x) LOADEX_THREAD_ANNOTATION(pt_guarded_by(x))
/// Function may only be called while holding the given mutex(es).
#define LOADEX_REQUIRES(...) \
  LOADEX_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
/// Function acquires the mutex(es) and does not release before returning.
#define LOADEX_ACQUIRE(...) \
  LOADEX_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
/// Function releases the mutex(es); they must be held on entry.
#define LOADEX_RELEASE(...) \
  LOADEX_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
/// Function acquires the mutex iff it returns the given value.
#define LOADEX_TRY_ACQUIRE(...) \
  LOADEX_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
/// Caller must NOT hold the given mutex(es) (non-reentrancy contract).
#define LOADEX_EXCLUDES(...) \
  LOADEX_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
/// Assertion to the analysis that the mutex is held at this point.
#define LOADEX_ASSERT_CAPABILITY(x) \
  LOADEX_THREAD_ANNOTATION(assert_capability(x))
/// Getter returning (a reference to) the named mutex, so the analysis can
/// see through the indirection.
#define LOADEX_RETURN_CAPABILITY(x) LOADEX_THREAD_ANNOTATION(lock_returned(x))
/// Escape hatch for functions deliberately exercising misuse (tests of the
/// runtime backstop). Never legitimate in src/.
#define LOADEX_NO_THREAD_SAFETY_ANALYSIS \
  LOADEX_THREAD_ANNOTATION(no_thread_safety_analysis)

// ---------------------------------------------------------------------------
// Debug-check gating. LOADEX_SYNC_FORCE_DEBUG (tests) beats
// LOADEX_SYNC_DEBUG (build system: on for sanitizer builds) beats the
// NDEBUG default. Targets must not mix settings across TUs that share
// sync-including object code (the build system keeps one setting per
// build tree; the forced test targets link no such library).
// ---------------------------------------------------------------------------

#if defined(LOADEX_SYNC_FORCE_DEBUG)
#define LOADEX_SYNC_DEBUG_ENABLED LOADEX_SYNC_FORCE_DEBUG
#elif defined(LOADEX_SYNC_DEBUG)
#define LOADEX_SYNC_DEBUG_ENABLED LOADEX_SYNC_DEBUG
#elif !defined(NDEBUG)
#define LOADEX_SYNC_DEBUG_ENABLED 1
#else
#define LOADEX_SYNC_DEBUG_ENABLED 0
#endif

namespace loadex::sync {

/// The global lock hierarchy. A thread may acquire a Mutex only with a
/// rank strictly greater than every rank it already holds (debug-checked
/// on every lock(); lint-checked for lexically nested acquisitions).
/// Keep the numeric order in sync with the table in the file comment —
/// loadex-lint parses this enum to drive the `lock-hierarchy` rule.
enum class LockRank : int {
  kShard = 5,
  kSvcLedger = 15,
  kLifecycle = 20,
  kMailboxPark = 30,
  kAuditSerial = 50,
  kMetricsRegistry = 60,
  kTraceRing = 70,
};

/// Sync-layer contract failures abort (not throw): they fire on arbitrary
/// threads, possibly mid-unwind, where an exception would be std::terminate
/// with less context anyway. The message goes to stderr first so death
/// tests and humans both see what was violated.
[[noreturn]] inline void syncFatal(const char* what, int rank_a, int rank_b) {
  std::fprintf(stderr, "loadex sync violation: %s (rank %d vs %d)\n", what,
               rank_a, rank_b);
  std::abort();
}

#if LOADEX_SYNC_DEBUG_ENABLED
namespace detail {
/// Ranks held by the current thread, in acquisition order.
inline std::vector<int>& heldRanks() {
  thread_local std::vector<int> held;
  return held;
}

inline void noteAcquired(int rank) {
  auto& held = heldRanks();
  if (!held.empty() && held.back() >= rank)
    syncFatal("lock acquired out of hierarchy order: new rank must exceed "
              "every held rank",
              rank, held.back());
  held.push_back(rank);
}

inline void noteReleased(int rank) {
  auto& held = heldRanks();
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    if (*it == rank) {
      held.erase(std::next(it).base());
      return;
    }
  }
  syncFatal("released a lock this thread does not hold", rank, -1);
}
}  // namespace detail
#endif  // LOADEX_SYNC_DEBUG_ENABLED

/// Annotated mutex. Construction requires a LockRank so every lock in the
/// tree is placed in the global hierarchy; there is deliberately no
/// default constructor.
class LOADEX_CAPABILITY("mutex") Mutex {
 public:
#if LOADEX_SYNC_DEBUG_ENABLED
  explicit Mutex(LockRank rank) : rank_(static_cast<int>(rank)) {}
#else
  explicit Mutex(LockRank) {}
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() LOADEX_ACQUIRE() {
#if LOADEX_SYNC_DEBUG_ENABLED
    detail::noteAcquired(rank_);
#endif
    mu_.lock();
#if LOADEX_SYNC_DEBUG_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  void unlock() LOADEX_RELEASE() {
#if LOADEX_SYNC_DEBUG_ENABLED
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
    detail::noteReleased(rank_);
#endif
    mu_.unlock();
  }

  bool try_lock() LOADEX_TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
#if LOADEX_SYNC_DEBUG_ENABLED
    detail::noteAcquired(rank_);
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
    return true;
  }

  /// The runtime back-stop behind every LOADEX_REQUIRES annotation: debug
  /// builds abort unless the calling thread holds this mutex; release
  /// builds compile to nothing.
  void assertHeld() const LOADEX_ASSERT_CAPABILITY(this) {
#if LOADEX_SYNC_DEBUG_ENABLED
    if (owner_.load(std::memory_order_relaxed) != std::this_thread::get_id())
      syncFatal("assertHeld: lock not held by the calling thread", rank_, -1);
#endif
  }

#if LOADEX_SYNC_DEBUG_ENABLED
  int rank() const { return rank_; }
#endif

 private:
  std::mutex mu_;
#if LOADEX_SYNC_DEBUG_ENABLED
  /// Owning thread while locked (debug only). Written under the lock,
  /// read from anywhere by assertHeld — hence atomic, relaxed: the value
  /// only answers "is it me?", never orders other memory.
  std::atomic<std::thread::id> owner_{};
  int rank_;
#endif
};

/// True when the debug owner/rank machinery is compiled in.
inline constexpr bool kDebugChecksEnabled = LOADEX_SYNC_DEBUG_ENABLED != 0;

/// RAII scoped lock over a Mutex (the only way locks are taken outside
/// sync.h). Mirrors the RAII pattern from the Clang TSA documentation:
/// unlock()/lock() allow the wait-loop dance without losing the analysis.
class LOADEX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) LOADEX_ACQUIRE(mu) : mu_(mu), held_(true) {
    mu_.lock();
  }

  ~MutexLock() LOADEX_RELEASE() {
    if (held_) mu_.unlock();
  }

  /// Temporarily release inside the scope (blocking-retry loops).
  void unlock() LOADEX_RELEASE() {
    held_ = false;
    mu_.unlock();
  }

  /// Re-acquire after unlock(); the destructor will release again.
  void lock() LOADEX_ACQUIRE() {
    mu_.lock();
    held_ = true;
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
  bool held_;
};

/// Condition variable waiting on a sync::Mutex. Waits take the mutex by
/// reference (not a lock object) so the LOADEX_REQUIRES contract names
/// the capability the analysis tracks.
class CondVar {
 public:
  /// Wait up to `seconds`; returns on notify, timeout or spuriously.
  /// Deliberately predicate-free: loadex waits are bounded slices whose
  /// callers re-check their own condition on every turn, so a spurious
  /// wakeup costs one iteration, never correctness.
  void waitFor(Mutex& mu, double seconds) LOADEX_REQUIRES(mu) {
    mu.assertHeld();
    // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): see above —
    // every caller loops on a bounded slice and re-checks its condition.
    cv_.wait_for(mu, std::chrono::duration<double>(seconds));
  }

  void notifyOne() { cv_.notify_one(); }
  void notifyAll() { cv_.notify_all(); }

 private:
  /// _any: waits directly on the annotated Mutex (BasicLockable), so the
  /// debug owner/rank tracking stays exact across the unlock/relock the
  /// wait performs.
  std::condition_variable_any cv_;
};

/// Debug marker for state owned by exactly one thread at a time (the
/// supervisor's suspicion table, a net event loop's timer wheel). Binds
/// to the first asserting thread; an explicit rebind hands ownership over
/// when a loop starts on a thread other than the one that built it.
/// Release builds carry no state and compile every check away.
class ThreadConfined {
 public:
  /// Claim (or hand over) ownership for the calling thread.
  void bindToCurrentThread() {
#if LOADEX_SYNC_DEBUG_ENABLED
    owner_.store(std::this_thread::get_id(), std::memory_order_relaxed);
#endif
  }

  /// Debug: abort unless called on the owning thread (first caller binds).
  void assertConfined() const {
#if LOADEX_SYNC_DEBUG_ENABLED
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id owner = owner_.load(std::memory_order_relaxed);
    if (owner == std::thread::id{}) {
      if (owner_.compare_exchange_strong(owner, self,
                                         std::memory_order_relaxed))
        return;
    }
    if (owner != self)
      syncFatal("thread-confined state touched from a foreign thread", -1,
                -1);
#endif
  }

#if LOADEX_SYNC_DEBUG_ENABLED
 private:
  mutable std::atomic<std::thread::id> owner_{};
#endif
};

}  // namespace loadex::sync

/// Declares a thread-confined member; greppable by loadex-lint and humans.
#define LOADEX_THREAD_CONFINED(member) ::loadex::sync::ThreadConfined member

/// Runtime assertion that `mu` is held by the calling thread (see
/// Mutex::assertHeld). Pairs with every LOADEX_REQUIRES annotation.
#define LOADEX_ASSERT_HELD(mu) (mu).assertHeld()

/// Runtime assertion that the calling thread owns this confined state.
#define LOADEX_ASSERT_CONFINED(member) (member).assertConfined()
