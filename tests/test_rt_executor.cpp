// Unit tests of the rt executor's shard primitives, at a smaller grain
// than the differential / chaos suites:
//
//   * sharded run-queue FIFO — per-(src,dst) delivery order survives the
//     batch drains, the full-mailbox spill path and work-stealing worker
//     handoffs;
//   * steal determinism — lifecycleCounts() and the conservation counters
//     of a fixed manual-control schedule are identical with stealing on
//     and off (stealing may move work between OS threads, never change
//     what happens);
//   * spill-hold FIFO across owner handoffs — the regression test for the
//     latent single-THREAD assumption in the spill-hold path (rt/faults.h):
//     with latency spikes on every send and stealing on, consecutive
//     flushes of one rank's spill legally run on different workers, and
//     the (src,dst) stream must still never reorder. The ownership rule
//     is single-OWNER (shard-lock holder), which RtWorld::assertSenderOwned
//     enforces in debug builds;
//   * broadcast accounting — Transport::sendStateBroadcast through 2-slot
//     mailboxes counts one state_posted per destination, keeps per-pair
//     order through the spill path and balances the conservation ledger
//     with and without message faults;
//   * bounded visits — a rank whose handlers keep feeding its own mailbox
//     yields its shard after one mailbox capacity of envelopes;
//   * lifecycle preconditions — crashRank needs the shards start() builds,
//     so an early call fails its contract instead of silently tearing
//     down a rank nobody owns.
//
// The timer wheel's shard-confinement abort lives in test_sync.cpp (it
// needs the LOADEX_SYNC_FORCE_DEBUG build), and the mailbox batch-drain
// equivalence in test_rt_mailbox.cpp next to the other mailbox units.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/expect.h"
#include "rt/world.h"
#include "sim/application.h"
#include "sim/message.h"

namespace loadex::rt {
namespace {

/// Records (src, tag) arrival order. Written only by the rank's owner
/// (whoever holds its shard lock), read after stop() — no lock needed.
struct RecordingHandler : sim::StateHandler {
  std::vector<std::pair<Rank, int>> seen;
  void onStateMessage(const sim::Message& m) override {
    seen.emplace_back(m.src, m.tag);
  }
};

/// The tags rank `dst` saw from rank `src`, in arrival order.
std::vector<int> tagsFrom(const RecordingHandler& h, Rank src) {
  std::vector<int> tags;
  for (const auto& [s, t] : h.seen)
    if (s == src) tags.push_back(t);
  return tags;
}

void expectFifo(const std::vector<int>& tags, int want_count) {
  ASSERT_EQ(static_cast<int>(tags.size()), want_count);
  for (int i = 0; i < want_count; ++i)
    ASSERT_EQ(tags[static_cast<std::size_t>(i)], i)
        << "per-pair stream reordered at position " << i;
}

// ---- sharded run-queue FIFO ------------------------------------------------

// Two sender ranks broadcast tagged streams through 8-slot mailboxes on a
// 2-worker, stealing pool: nearly every send takes the spill path, spill
// flushes and mailbox drains interleave across workers, and every
// (src,dst) stream must still arrive in send order.
TEST(RtExecutorShard, RunQueueKeepsPerPairFifoThroughSpillAndSteal) {
  constexpr int kProcs = 8;
  constexpr int kMsgs = 100;
  const Rank senders[] = {0, 5};  // rank % shards puts them on different shards

  RtConfig rcfg;
  rcfg.nprocs = kProcs;
  rcfg.executor.workers = 2;
  rcfg.executor.steal = true;
  rcfg.mailbox.capacity = 8;
  RtWorld world(rcfg);
  std::vector<core::Transport*> tr = world.transports();

  std::vector<RecordingHandler> handlers(kProcs);
  for (Rank r = 0; r < kProcs; ++r) world.attach(r, &handlers[r]);
  world.start();
  EXPECT_EQ(world.workerCount(), 2);
  EXPECT_GE(world.shardCount(), 2);

  for (Rank src : senders)
    world.post(src, [&tr, src] {
      for (int seq = 0; seq < kMsgs; ++seq)
        for (Rank dst = 0; dst < kProcs; ++dst) {
          if (dst == src) continue;
          tr[static_cast<std::size_t>(src)]->sendState(
              dst, static_cast<core::StateTag>(seq), /*size=*/8, nullptr);
        }
    });
  ASSERT_TRUE(world.drain(60.0));
  world.stop();

  const RtRunStats st = world.runStats();
  EXPECT_EQ(st.state_posted, 2 * kMsgs * (kProcs - 1));
  EXPECT_EQ(st.state_posted, st.state_delivered);
  EXPECT_GT(st.spill_enqueues, 0) << "8-slot mailboxes never spilled?";

  for (Rank dst = 0; dst < kProcs; ++dst)
    for (Rank src : senders) {
      if (dst == src) continue;
      SCOPED_TRACE("src=" + std::to_string(src) +
                   " dst=" + std::to_string(dst));
      expectFifo(tagsFrom(handlers[static_cast<std::size_t>(dst)], src),
                 kMsgs);
    }
}

// ---- steal-vs-no-steal determinism -----------------------------------------

struct LifecycleOutcome {
  RtWorld::LifecycleCounts counts;
  RtRunStats stats;
};

/// A fixed manual-control schedule, drained to quiescence between phases
/// so its outcome is schedule-determined, not timing-determined.
LifecycleOutcome runManualSchedule(bool steal) {
  constexpr int kProcs = 16;
  RtConfig rcfg;
  rcfg.nprocs = kProcs;
  rcfg.executor.workers = 2;
  rcfg.executor.steal = steal;
  rcfg.faults.manual_control = true;
  RtWorld world(rcfg);
  std::vector<RecordingHandler> handlers(kProcs);
  for (Rank r = 0; r < kProcs; ++r) world.attach(r, &handlers[r]);
  world.start();

  const auto postAll = [&world] {
    for (Rank r = 0; r < world.nprocs(); ++r) world.post(r, [] {});
  };
  postAll();                        // 16 delivered
  EXPECT_TRUE(world.drain(30.0));
  world.crashRank(3);
  postAll();                        // 15 delivered, 1 dropped at the seal
  EXPECT_TRUE(world.drain(30.0));
  world.pauseRank(5);
  world.restartRank(3);
  world.resumeRank(5);
  postAll();                        // 16 delivered again
  EXPECT_TRUE(world.drain(30.0));
  world.stop();

  LifecycleOutcome out;
  out.counts = world.lifecycleCounts();
  out.stats = world.runStats();
  return out;
}

TEST(RtExecutorShard, LifecycleCountsAreStealInvariant) {
  const LifecycleOutcome on = runManualSchedule(/*steal=*/true);
  const LifecycleOutcome off = runManualSchedule(/*steal=*/false);

  EXPECT_EQ(on.counts.crashes, 1);
  EXPECT_EQ(on.counts.restarts, 1);
  EXPECT_EQ(on.counts.crashes, off.counts.crashes);
  EXPECT_EQ(on.counts.restarts, off.counts.restarts);
  EXPECT_EQ(on.counts.suspects_flagged, off.counts.suspects_flagged);
  EXPECT_EQ(on.counts.deaths_declared, off.counts.deaths_declared);
  EXPECT_EQ(on.counts.revives, off.counts.revives);

  // The conservation ledger of the fixed schedule is steal-invariant too.
  EXPECT_EQ(on.stats.task_posted, 48);
  EXPECT_EQ(on.stats.task_delivered, 47);
  EXPECT_EQ(on.stats.task_dropped, 1);
  EXPECT_EQ(on.stats.task_posted, off.stats.task_posted);
  EXPECT_EQ(on.stats.task_delivered, off.stats.task_delivered);
  EXPECT_EQ(on.stats.task_dropped, off.stats.task_dropped);
  EXPECT_EQ(on.stats.dropped_at_sealed_mailbox,
            off.stats.dropped_at_sealed_mailbox);
}

// ---- spill-hold FIFO across worker handoffs --------------------------------

// Regression for the spill-hold single-thread assumption (rt/faults.h):
// with a 100% latency-spike plan every state send is parked in the
// sender's spill queue with a release time, and with stealing on a
// 2-worker pool the flushing worker is routinely a different OS thread
// from the one that enqueued. The hold must delay the whole (src,dst)
// stream — never let one envelope past its successors — across those
// handoffs. (Ownership is the shard lock, not a thread identity;
// RtWorld::assertSenderOwned aborts debug builds if a non-owner flushes.)
TEST(RtExecutorShard, SpillHoldFifoSurvivesWorkerHandoff) {
  constexpr int kProcs = 4;
  constexpr int kMsgs = 120;

  RtConfig rcfg;
  rcfg.nprocs = kProcs;
  rcfg.executor.workers = 2;
  rcfg.executor.steal = true;
  rcfg.mailbox.capacity = 16;
  rcfg.faults.messages.latency_spike_prob = 1.0;
  rcfg.faults.messages.latency_spike_s = 0.5e-3;
  rcfg.faults.messages.affects_state = true;
  rcfg.faults.messages.affects_app = false;
  rcfg.faults.messages.seed = 7;
  RtWorld world(rcfg);
  std::vector<core::Transport*> tr = world.transports();

  std::vector<RecordingHandler> handlers(kProcs);
  for (Rank r = 0; r < kProcs; ++r) world.attach(r, &handlers[r]);
  world.start();

  world.post(0, [&tr] {
    for (int seq = 0; seq < kMsgs; ++seq)
      for (Rank dst = 1; dst < kProcs; ++dst)
        tr[0]->sendState(dst, static_cast<core::StateTag>(seq), /*size=*/8, nullptr);
  });
  ASSERT_TRUE(world.drain(60.0));
  world.stop();

  const RtRunStats st = world.runStats();
  EXPECT_EQ(st.state_posted, kMsgs * (kProcs - 1));
  EXPECT_EQ(st.latency_spikes, st.state_posted)
      << "every send must take the spill-hold path";
  EXPECT_EQ(st.state_posted, st.state_delivered)
      << "a held envelope was lost";
  EXPECT_EQ(st.state_dropped, 0);

  for (Rank dst = 1; dst < kProcs; ++dst) {
    SCOPED_TRACE("dst=" + std::to_string(dst));
    expectFifo(tagsFrom(handlers[static_cast<std::size_t>(dst)], 0), kMsgs);
  }
}

// ---- broadcast accounting --------------------------------------------------

struct SeqPayload : sim::Payload {
  explicit SeqPayload(int s) : seq(s) {}
  int seq;
};

/// Records (src, seq) arrival order; same ownership story as
/// RecordingHandler.
struct SeqHandler : sim::StateHandler {
  std::vector<std::pair<Rank, int>> seen;
  void onStateMessage(const sim::Message& m) override {
    seen.emplace_back(m.src, m.as<SeqPayload>().seq);
  }
};

struct BroadcastRun {
  bool drained = false;
  RtRunStats stats;
  std::vector<SeqHandler> handlers;
};

constexpr Bytes kBroadcastSize = 24;

/// Every rank broadcasts `k` sequence-numbered payloads to all others
/// through Transport::sendStateBroadcast, from a closure posted to it.
/// 2-slot mailboxes put nearly every copy through the spill path.
BroadcastRun runBroadcasts(int procs, int k, const FaultPlan& faults) {
  RtConfig rcfg;
  rcfg.nprocs = procs;
  rcfg.executor.workers = 2;
  rcfg.executor.steal = true;
  rcfg.mailbox.capacity = 2;
  rcfg.faults = faults;
  RtWorld world(rcfg);
  std::vector<core::Transport*> tr = world.transports();

  BroadcastRun run;
  run.handlers.resize(static_cast<std::size_t>(procs));
  for (Rank r = 0; r < procs; ++r)
    world.attach(r, &run.handlers[static_cast<std::size_t>(r)]);
  world.start();
  for (Rank src = 0; src < procs; ++src)
    world.post(src, [&tr, src, procs, k] {
      std::vector<Rank> dsts;
      for (Rank dst = 0; dst < procs; ++dst)
        if (dst != src) dsts.push_back(dst);
      for (int seq = 0; seq < k; ++seq)
        tr[static_cast<std::size_t>(src)]->sendStateBroadcast(
            dsts, core::StateTag::kUpdateAbsolute, kBroadcastSize,
            std::make_shared<const SeqPayload>(seq));
    });
  run.drained = world.drain(60.0);
  world.stop();
  run.stats = world.runStats();
  return run;
}

/// The seqs rank `dst` saw from rank `src`, in arrival order.
std::vector<int> seqsFrom(const BroadcastRun& run, Rank dst, Rank src) {
  std::vector<int> seqs;
  for (const auto& [s, q] : run.handlers[static_cast<std::size_t>(dst)].seen)
    if (s == src) seqs.push_back(q);
  return seqs;
}

TEST(RtExecutorShard, BroadcastCountsEveryCopyOnceAndKeepsPairOrder) {
  constexpr int kProcs = 16;
  constexpr int kMsgs = 40;
  const BroadcastRun run = runBroadcasts(kProcs, kMsgs, FaultPlan{});
  ASSERT_TRUE(run.drained);

  const RtRunStats& st = run.stats;
  const std::int64_t copies = std::int64_t{kMsgs} * (kProcs - 1) * kProcs;
  EXPECT_EQ(st.state_posted, copies) << "one state_posted per destination";
  EXPECT_EQ(st.state_delivered, copies);
  EXPECT_EQ(st.state_bytes, copies * kBroadcastSize);
  EXPECT_GT(st.spill_enqueues, 0) << "2-slot mailboxes never spilled?";

  for (Rank dst = 0; dst < kProcs; ++dst)
    for (Rank src = 0; src < kProcs; ++src) {
      if (dst == src) continue;
      SCOPED_TRACE("src=" + std::to_string(src) +
                   " dst=" + std::to_string(dst));
      const std::vector<int> seqs = seqsFrom(run, dst, src);
      ASSERT_EQ(static_cast<int>(seqs.size()), kMsgs);
      for (std::size_t i = 1; i < seqs.size(); ++i)
        ASSERT_LT(seqs[i - 1], seqs[i]) << "per-pair stream reordered";
    }
}

TEST(RtExecutorShard, BroadcastLedgerBalancesUnderMessageFaults) {
  constexpr int kProcs = 12;
  constexpr int kMsgs = 40;
  FaultPlan faults;
  faults.messages.drop_prob = 0.05;
  faults.messages.duplicate_prob = 0.1;
  faults.messages.latency_spike_prob = 0.1;
  faults.messages.latency_spike_s = 0.2e-3;
  faults.messages.affects_state = true;
  faults.messages.affects_app = false;
  faults.messages.seed = 11;
  const BroadcastRun run = runBroadcasts(kProcs, kMsgs, faults);
  ASSERT_TRUE(run.drained);

  const RtRunStats& st = run.stats;
  EXPECT_EQ(st.state_posted, std::int64_t{kMsgs} * (kProcs - 1) * kProcs);
  EXPECT_GT(st.state_duplicated, 0);
  EXPECT_GT(st.state_dropped, 0);
  EXPECT_GT(st.latency_spikes, 0);
  EXPECT_EQ(st.state_posted + st.state_duplicated,
            st.state_delivered + st.state_dropped);

  // Duplicates ride right behind their original and drops leave gaps, so
  // each pair's stream is non-decreasing rather than strictly increasing.
  for (Rank dst = 0; dst < kProcs; ++dst)
    for (Rank src = 0; src < kProcs; ++src) {
      if (dst == src) continue;
      SCOPED_TRACE("src=" + std::to_string(src) +
                   " dst=" + std::to_string(dst));
      const std::vector<int> seqs = seqsFrom(run, dst, src);
      for (std::size_t i = 1; i < seqs.size(); ++i)
        ASSERT_LE(seqs[i - 1], seqs[i]) << "per-pair stream reordered";
    }
}

// ---- bounded shard visits --------------------------------------------------

// One worker, one shard, two ranks. Rank 0 runs a chain of closures, each
// posting the next to rank 0 itself, so its mailbox is never empty when
// its visit checks; the chain's first step also posts a probe to rank 1.
// The visit's capacity budget must hand the shard to rank 1 within one
// mailbox's worth of chain steps — without it the probe would wait for
// the whole chain.
TEST(RtExecutorShard, SelfFeedingRankYieldsAfterOneMailboxCapacity) {
  constexpr int kCapacity = 4;
  constexpr int kChain = 100 * kCapacity;
  RtConfig rcfg;
  rcfg.nprocs = 2;
  rcfg.executor.workers = 1;
  rcfg.executor.shards = 1;
  rcfg.mailbox.capacity = kCapacity;
  RtWorld world(rcfg);
  RecordingHandler h0, h1;
  world.attach(0, &h0);
  world.attach(1, &h1);
  world.start();
  ASSERT_EQ(world.shardCount(), 1);

  // Both ranks run under the one shard lock, so plain ints suffice.
  int steps = 0;
  int steps_at_probe = -1;
  std::function<void()> step = [&] {
    if (steps == 0) world.postTask(0, 1, [&] { steps_at_probe = steps; });
    if (++steps < kChain) world.postTask(0, 0, step);
  };
  world.post(0, step);
  ASSERT_TRUE(world.drain(30.0));
  world.stop();

  EXPECT_EQ(steps, kChain);
  EXPECT_GE(steps_at_probe, 1);
  EXPECT_LE(steps_at_probe, kCapacity)
      << "rank 0 held the shard past one mailbox capacity";
}

// ---- executor shape resolution ---------------------------------------------

TEST(RtExecutorShard, AutoShapeClampsWorkersToShardsAndRanks) {
  {
    RtConfig rcfg;
    rcfg.nprocs = 2;
    rcfg.executor.workers = 8;  // more workers than ranks
    RtWorld world(rcfg);
    RecordingHandler h0, h1;
    world.attach(0, &h0);
    world.attach(1, &h1);
    world.start();
    EXPECT_EQ(world.shardCount(), 2);   // shards clamp to nprocs
    EXPECT_EQ(world.workerCount(), 2);  // workers clamp to shards
    world.stop();
  }
  {
    RtConfig rcfg;
    rcfg.nprocs = 6;
    rcfg.executor.workers = 2;
    rcfg.executor.shards = 3;
    RtWorld world(rcfg);
    std::vector<RecordingHandler> handlers(6);
    for (Rank r = 0; r < 6; ++r) world.attach(r, &handlers[r]);
    world.start();
    EXPECT_EQ(world.shardCount(), 3);
    EXPECT_EQ(world.workerCount(), 2);
    world.stop();
  }
}

// ---- lifecycle preconditions -----------------------------------------------

// Owning a rank means holding its shard lock, and shards only exist from
// start() on: a crash before start() fails through LOADEX_EXPECT. A sweep
// before start() has nothing to sweep and stays a no-op.
TEST(RtExecutorShard, CrashBeforeStartFailsItsContract) {
  RtConfig rcfg;
  rcfg.nprocs = 4;
  rcfg.faults.manual_control = true;
  RtWorld world(rcfg);
  std::vector<RecordingHandler> handlers(4);
  for (Rank r = 0; r < 4; ++r) world.attach(r, &handlers[r]);

  EXPECT_THROW(world.crashRank(1), ContractViolation);
  EXPECT_EQ(world.rankLife(1), RankLife::kAlive);
  world.sweepCrashedMailboxes();

  // The failed call left the world intact: it still starts and runs.
  world.start();
  world.post(1, [] {});
  EXPECT_TRUE(world.drain(30.0));
  world.stop();
  EXPECT_EQ(world.runStats().crashes, 0);
  EXPECT_EQ(world.runStats().task_delivered, 1);
}

}  // namespace
}  // namespace loadex::rt
