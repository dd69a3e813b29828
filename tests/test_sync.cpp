// Debug-mode contract tests for the annotated sync layer
// (src/common/sync.h). This target compiles with LOADEX_SYNC_FORCE_DEBUG=1,
// so the owner/rank/confinement machinery is active regardless of the
// build type — each misuse must abort with a diagnostic (death tests),
// and each correct use must run silently.
//
// The release-mode twin (test_sync_release.cpp, LOADEX_SYNC_FORCE_DEBUG=0)
// checks the same constructs compile down to nothing.

#include "common/sync.h"

#include <thread>

#include <gtest/gtest.h>

// Header-only; rides on this target's forced-debug sync machinery for the
// shard-confinement contract tests at the bottom of the file.
#include "rt/timer_wheel.h"

namespace {

using loadex::sync::CondVar;
using loadex::sync::LockRank;
using loadex::sync::Mutex;
using loadex::sync::MutexLock;
using loadex::sync::ThreadConfined;

static_assert(loadex::sync::kDebugChecksEnabled,
              "this target forces the debug checks on");

// Death tests below spawn threads inside the EXPECT_DEATH statement; the
// default "fast" style is only safe in single-threaded children.
void useThreadsafeDeathTests() {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
}

TEST(SyncAssertHeld, PassesWhileHeldAcrossUnlockRelockAndWait) {
  Mutex mu{LockRank::kLifecycle};
  CondVar cv;
  MutexLock lk(mu);
  mu.assertHeld();
  lk.unlock();
  lk.lock();
  mu.assertHeld();
  // waitFor unlocks and relocks inside; ownership must be exact after.
  cv.waitFor(mu, 0.001);
  mu.assertHeld();
}

TEST(SyncAssertHeldDeathTest, AbortsWhenNeverLocked) {
  useThreadsafeDeathTests();
  Mutex mu{LockRank::kLifecycle};
  EXPECT_DEATH(mu.assertHeld(), "assertHeld: lock not held");
}

TEST(SyncAssertHeldDeathTest, AbortsAfterScopedRelease) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        Mutex mu{LockRank::kLifecycle};
        { MutexLock lk(mu); }
        mu.assertHeld();
      },
      "assertHeld: lock not held");
}

TEST(SyncAssertHeldDeathTest, AbortsOnAForeignThreadWhileHeld) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        Mutex mu{LockRank::kLifecycle};
        MutexLock lk(mu);
        std::thread t([&mu] { mu.assertHeld(); });
        t.join();
      },
      "assertHeld: lock not held");
}

TEST(SyncLockHierarchy, AscendingNestingIsLegal) {
  Mutex lo{LockRank::kLifecycle};
  Mutex hi{LockRank::kTraceRing};
  MutexLock a(lo);
  MutexLock b(hi);
  lo.assertHeld();
  hi.assertHeld();
}

TEST(SyncLockHierarchy, ReleaseReopensTheRank) {
  Mutex a{LockRank::kMailboxPark};
  Mutex b{LockRank::kMailboxPark};
  { MutexLock lk(a); }
  MutexLock lk(b);  // same rank is fine once `a` is released
  b.assertHeld();
}

TEST(SyncLockHierarchyDeathTest, AbortsOnDescendingNesting) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        Mutex hi{LockRank::kTraceRing};
        Mutex lo{LockRank::kLifecycle};
        MutexLock a(hi);
        MutexLock b(lo);
      },
      "hierarchy order");
}

TEST(SyncLockHierarchyDeathTest, AbortsOnEqualRankNesting) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        Mutex a{LockRank::kMailboxPark};
        Mutex b{LockRank::kMailboxPark};
        MutexLock la(a);
        MutexLock lb(b);
      },
      "hierarchy order");
}

TEST(SyncThreadConfined, FirstTouchBindsAndStays) {
  ThreadConfined tc;
  tc.assertConfined();
  tc.assertConfined();
}

TEST(SyncThreadConfined, ExplicitRebindHandsOwnershipOver) {
  ThreadConfined tc;
  tc.assertConfined();  // bound to this thread
  std::thread t([&tc] {
    tc.bindToCurrentThread();  // the audited handover path
    tc.assertConfined();
  });
  t.join();
}

TEST(SyncThreadConfinedDeathTest, AbortsOnForeignThreadTouch) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        ThreadConfined tc;
        tc.assertConfined();
        std::thread t([&tc] { tc.assertConfined(); });
        t.join();
      },
      "foreign thread");
}

TEST(SyncThreadConfinedDeathTest, AbortsOnOldOwnerAfterHandover) {
  useThreadsafeDeathTests();
  EXPECT_DEATH(
      {
        ThreadConfined tc;
        tc.assertConfined();
        std::thread t([&tc] {
          tc.bindToCurrentThread();
          tc.assertConfined();
        });
        t.join();
        tc.assertConfined();  // ownership moved away; this must trip
      },
      "foreign thread");
}

// ---- timer wheel ownership (rt/timer_wheel.h) ------------------------------
// The wheel rides on the sync layer's debug machinery, so its ownership
// contract is pinned here where LOADEX_SYNC_FORCE_DEBUG is on: once
// bindToShard() switches a wheel from thread confinement to shard
// confinement, every touch without the shard lock must abort — including
// from the thread that constructed the wheel (the M:N executor's point:
// thread identity stops mattering, lock ownership is everything).

TEST(TimerWheelShardConfinement, ShardLockHolderPassesFromAnyThread) {
  Mutex mu{LockRank::kShard};
  loadex::rt::TimerWheel wheel;
  wheel.bindToShard(&mu);
  int fired = 0;
  {
    MutexLock lk(mu);
    wheel.schedule(/*now=*/0.0, /*delay=*/0.0, [&fired] { ++fired; });
    EXPECT_EQ(wheel.fireDue(1.0), 1);
  }
  // A "stealing" worker: different OS thread, same lock — must pass.
  std::thread thief([&] {
    MutexLock lk(mu);
    wheel.schedule(0.0, 0.0, [&fired] { ++fired; });
    EXPECT_EQ(wheel.fireDue(1.0), 1);
  });
  thief.join();
  EXPECT_EQ(fired, 2);
}

TEST(TimerWheelShardConfinementDeathTest, AbortsWithoutTheShardLock) {
  useThreadsafeDeathTests();
  Mutex mu{LockRank::kShard};
  loadex::rt::TimerWheel wheel;
  wheel.bindToShard(&mu);
  EXPECT_DEATH(wheel.schedule(0.0, 0.0, [] {}),
               "assertHeld: lock not held");
  EXPECT_DEATH(wheel.fireDue(1.0), "assertHeld: lock not held");
  EXPECT_DEATH(wheel.cancelAll(), "assertHeld: lock not held");
}

TEST(SyncCondVar, NotifyWakesAParkedWaiter) {
  Mutex mu{LockRank::kMailboxPark};
  CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    MutexLock lk(mu);
    ready = true;
    cv.notifyOne();
  });
  {
    MutexLock lk(mu);
    // Bounded-slice wait loop, as every caller in the tree does it.
    for (int i = 0; i < 2000 && !ready; ++i) cv.waitFor(mu, 0.005);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

}  // namespace
