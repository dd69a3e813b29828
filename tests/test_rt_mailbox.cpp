// Unit tests of the rt building blocks: the bounded MPSC mailbox (a Vyukov
// ring), the thread-confined timer wheel and the monotonic clock. The
// cross-thread cases run on real std::threads — they are small enough to
// be deterministic in what they assert (counts and per-producer FIFO),
// never in timing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "rt/clock.h"
#include "rt/mailbox.h"
#include "rt/timer_wheel.h"
#include "rt/transport.h"
#include "rt/world.h"
#include "sim/application.h"

namespace loadex::rt {
namespace {

Envelope taskEnvelope(std::function<void()> fn = {}) {
  Envelope e;
  e.kind = Envelope::Kind::kTask;
  e.fn = std::move(fn);
  return e;
}

/// Envelope carrying (producer, sequence) in the message header so the
/// consumer can check per-producer FIFO.
Envelope tagged(int producer, int seq) {
  Envelope e;
  e.kind = Envelope::Kind::kState;
  e.msg.src = producer;
  e.msg.tag = seq;
  return e;
}

MailboxConfig config(std::size_t capacity) {
  MailboxConfig cfg;
  cfg.capacity = capacity;
  return cfg;
}

/// Sole-consumer pop that polls (yielding) until an envelope arrives or
/// `timeout_s` passes: the mailbox has no blocking pop, since workers
/// poll with backoff.
bool popWithin(Mailbox& mb, Envelope& out, double timeout_s) {
  const MonotonicClock clock;
  while (!mb.tryPop(out)) {
    if (clock.now() >= timeout_s) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(Mailbox, CapacityRoundsUpToPowerOfTwo) {
  Mailbox mb(config(100));
  EXPECT_EQ(mb.capacity(), 128u);
}

TEST(Mailbox, SingleProducerFifo) {
  Mailbox mb(config(64));
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(mb.tryPush(tagged(0, i)));
  Envelope e;
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(mb.tryPop(e));
    EXPECT_EQ(e.msg.tag, i);
  }
  EXPECT_FALSE(mb.tryPop(e));
  const MailboxStats s = mb.stats();
  EXPECT_EQ(s.pushes, 40u);
  EXPECT_EQ(s.pops, 40u);
  EXPECT_EQ(s.full_rejections, 0u);
}

TEST(Mailbox, TryPushRejectsWhenFull) {
  Mailbox mb(config(4));
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(mb.tryPush(tagged(0, i)));
  EXPECT_FALSE(mb.tryPush(tagged(0, 99)));
  EXPECT_EQ(mb.stats().full_rejections, 1u);

  // Popping one frees one slot, and FIFO order survives the full episode.
  Envelope e;
  ASSERT_TRUE(mb.tryPop(e));
  EXPECT_EQ(e.msg.tag, 0);
  ASSERT_TRUE(mb.tryPush(tagged(0, 4)));
  for (int want = 1; want <= 4; ++want) {
    ASSERT_TRUE(mb.tryPop(e));
    EXPECT_EQ(e.msg.tag, want);
  }
}

TEST(Mailbox, MultiProducerPreservesPerProducerFifo) {
  constexpr int kProducers = 4;
  constexpr int kEach = 5000;
  Mailbox mb(config(256));  // much smaller than the traffic: forces retries

  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&mb, p] {
      for (int i = 0; i < kEach; ++i) mb.push(tagged(p, i));
    });
  }

  // Drain in batches, the way the executor does, yielding when empty.
  std::map<int, int> next_seq;
  int received = 0;
  std::vector<Envelope> batch(16);
  const MonotonicClock clock;
  while (received < kProducers * kEach && clock.now() < 60.0) {
    const std::size_t k = mb.tryPopBatch(batch.data(), batch.size());
    if (k == 0) std::this_thread::yield();
    for (std::size_t i = 0; i < k; ++i) {
      const int p = batch[i].msg.src;
      EXPECT_EQ(batch[i].msg.tag, next_seq[p])
          << "producer " << p << " reordered";
      ++next_seq[p];
      ++received;
    }
  }
  for (auto& t : producers) t.join();

  EXPECT_EQ(received, kProducers * kEach);
  const MailboxStats s = mb.stats();
  EXPECT_EQ(s.pushes, static_cast<std::uint64_t>(kProducers * kEach));
  EXPECT_EQ(s.pops, static_cast<std::uint64_t>(kProducers * kEach));
}

TEST(Mailbox, BlockingPushCompletesOnceConsumerDrains) {
  Mailbox mb(config(2));
  ASSERT_TRUE(mb.tryPush(tagged(0, 0)));
  ASSERT_TRUE(mb.tryPush(tagged(0, 1)));

  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    mb.push(tagged(0, 2));  // blocks: mailbox is full
    pushed.store(true);
  });

  Envelope e;
  ASSERT_TRUE(popWithin(mb, e, 10.0));
  EXPECT_EQ(e.msg.tag, 0);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_TRUE(popWithin(mb, e, 10.0));
  EXPECT_EQ(e.msg.tag, 1);
  ASSERT_TRUE(popWithin(mb, e, 10.0));
  EXPECT_EQ(e.msg.tag, 2);
}

// The executor's shard drain (tryPopBatch) must be observationally
// equivalent to a loop of single pops: same sequence, same stats, just
// fewer consumer-side synchronisation rounds.
TEST(Mailbox, TryPopBatchMatchesSinglePopSequence) {
  constexpr int kMsgs = 57;
  Mailbox batched(config(64));
  Mailbox singly(config(64));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(batched.tryPush(tagged(0, i)));
    ASSERT_TRUE(singly.tryPush(tagged(0, i)));
  }

  // Drain one with varied batch sizes (including max > available at the
  // tail), the other one envelope at a time.
  std::vector<int> batch_tags;
  std::vector<Envelope> scratch(16);
  const std::size_t batch_sizes[] = {1, 3, 7, 16, 16, 16, 16};
  for (const std::size_t max : batch_sizes) {
    const std::size_t k = batched.tryPopBatch(scratch.data(), max);
    EXPECT_LE(k, max);
    for (std::size_t i = 0; i < k; ++i) batch_tags.push_back(scratch[i].msg.tag);
  }
  std::vector<int> single_tags;
  Envelope e;
  while (singly.tryPop(e)) single_tags.push_back(e.msg.tag);

  EXPECT_EQ(batch_tags, single_tags);
  ASSERT_EQ(static_cast<int>(batch_tags.size()), kMsgs);
  // An empty mailbox yields an empty batch and counts nothing.
  EXPECT_EQ(batched.tryPopBatch(scratch.data(), scratch.size()), 0u);
  EXPECT_EQ(batched.stats().pops, singly.stats().pops);
  EXPECT_EQ(batched.stats().pops, static_cast<std::uint64_t>(kMsgs));
}

TEST(Mailbox, TaskEnvelopesCarryTheirClosure) {
  Mailbox mb(config(8));
  int ran = 0;
  ASSERT_TRUE(mb.tryPush(taskEnvelope([&ran] { ++ran; })));
  Envelope e;
  ASSERT_TRUE(mb.tryPop(e));
  ASSERT_EQ(e.kind, Envelope::Kind::kTask);
  e.fn();
  EXPECT_EQ(ran, 1);
}

// ---- timer wheel ----------------------------------------------------------

TEST(TimerWheel, FiresInDeadlineOrderAcrossLaps) {
  // Narrow wheel (4 slots) so deadlines wrap laps and collide in slots.
  TimerWheel wheel(/*slot_width_s=*/0.1, /*nslots=*/4);
  std::vector<int> fired;
  wheel.schedule(0.0, 1.25, [&] { fired.push_back(3); });  // lap 3, slot 0
  wheel.schedule(0.0, 0.05, [&] { fired.push_back(1); });
  wheel.schedule(0.0, 0.45, [&] { fired.push_back(2); });  // lap 1
  EXPECT_EQ(wheel.pending(), 3u);
  EXPECT_DOUBLE_EQ(wheel.nextDeadline(), 0.05);

  EXPECT_EQ(wheel.fireDue(0.5), 2);  // only the first two are due
  EXPECT_EQ(wheel.pending(), 1u);
  EXPECT_EQ(wheel.fireDue(2.0), 1);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(wheel.nextDeadline(),
                   std::numeric_limits<double>::infinity());
}

TEST(TimerWheel, EqualDeadlinesFireInArmOrder) {
  TimerWheel wheel;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    wheel.schedule(0.0, 0.25, [&fired, i] { fired.push_back(i); });
  EXPECT_EQ(wheel.fireDue(0.25), 5);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(TimerWheel, CallbacksMayRearm) {
  TimerWheel wheel;
  int hops = 0;
  std::function<void()> hop = [&] {
    if (++hops < 3) wheel.schedule(static_cast<double>(hops), 1.0, hop);
  };
  wheel.schedule(0.0, 1.0, hop);
  // Each fireDue fires one hop, which re-arms the next.
  EXPECT_EQ(wheel.fireDue(10.0), 1);
  EXPECT_EQ(wheel.fireDue(10.0), 1);
  EXPECT_EQ(wheel.fireDue(10.0), 1);
  EXPECT_EQ(wheel.fireDue(10.0), 0);
  EXPECT_EQ(hops, 3);
  EXPECT_EQ(wheel.firedTotal(), 3u);
}

TEST(TimerWheel, ZeroAndNegativeDelaysFireImmediately) {
  TimerWheel wheel;
  int fired = 0;
  wheel.schedule(5.0, 0.0, [&] { ++fired; });
  wheel.schedule(5.0, -1.0, [&] { ++fired; });  // clamped to now
  EXPECT_EQ(wheel.fireDue(5.0), 2);
  EXPECT_EQ(fired, 2);
}

// ---- monotonic clock ------------------------------------------------------

TEST(MonotonicClock, StartsNearZeroAndNeverGoesBack) {
  MonotonicClock clock;
  const SimTime t0 = clock.now();
  EXPECT_GE(t0, 0.0);
  EXPECT_LT(t0, 1.0);  // origin is captured at construction
  SimTime prev = t0;
  for (int i = 0; i < 1000; ++i) {
    const SimTime t = clock.now();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(MonotonicClock, SleepForAdvancesAtLeastThatLong) {
  MonotonicClock clock;
  const SimTime t0 = clock.now();
  MonotonicClock::sleepFor(0.01);
  EXPECT_GE(clock.now() - t0, 0.009);  // scheduler may round, never down
}

// ---- spill queue under bursty senders -------------------------------------
// World-level: two ranks flood a third through a deliberately tiny
// mailbox, so nearly every send hits a full ring and detours through the
// sender-side spill queue. Nothing may be lost, per-sender FIFO must
// survive the spill episodes, and the overflow shows up in
// mailbox_full_rejections / spill_enqueues.

/// Records (src, seq) arrival order; touched only by the receiving rank's
/// owner, read after stop().
struct RecordingHandler final : sim::StateHandler {
  std::vector<std::pair<Rank, Bytes>> received;
  void onStateMessage(const sim::Message& m) override {
    received.emplace_back(m.src, m.size);
  }
};

TEST(SpillQueue, BurstySendersOverflowWithoutLossOrReordering) {
  constexpr int kEach = 2000;
  RtConfig cfg;
  cfg.nprocs = 3;
  cfg.mailbox.capacity = 4;  // tiny on purpose: force constant overflow
  RtWorld world(cfg);
  std::vector<core::Transport*> tp = world.transports();

  RecordingHandler sink;
  world.attach(2, &sink);
  world.start();

  // Each sender blasts its burst from inside its own rank in one closure:
  // the receiver cannot keep up, so the tail of every burst spills.
  for (Rank src : {Rank{0}, Rank{1}}) {
    world.post(src, [&tp, src] {
      for (int i = 0; i < kEach; ++i)
        tp[static_cast<std::size_t>(src)]->sendState(
            2, core::StateTag::kUpdateAbsolute, /*size=*/i, nullptr);
    });
  }
  ASSERT_TRUE(world.drain(60.0));
  world.stop();

  const RtRunStats st = world.runStats();
  EXPECT_EQ(st.state_posted, 2 * kEach);
  EXPECT_EQ(st.state_delivered, 2 * kEach);
  EXPECT_GT(st.mailbox_full_rejections, 0u)
      << "a 4-slot mailbox absorbed a 4000-message burst?";
  EXPECT_GT(st.spill_enqueues, 0);

  // Per-sender FIFO: each sender's sequence numbers arrive in order.
  ASSERT_EQ(sink.received.size(), static_cast<std::size_t>(2 * kEach));
  Bytes next_seq[2] = {0, 0};
  for (const auto& [src, seq] : sink.received) {
    ASSERT_TRUE(src == 0 || src == 1);
    EXPECT_EQ(seq, next_seq[src]) << "reordered stream from P" << src;
    next_seq[src] = seq + 1;
  }
}

}  // namespace
}  // namespace loadex::rt
