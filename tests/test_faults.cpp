// Fault-injection subsystem tests: network faults, process faults, replay
// determinism, and end-to-end degradation behaviour of the hardened
// protocols (ctest label: faults).
#include <gtest/gtest.h>

#include <vector>

#include "sim_test_utils.h"
#include "sim/network.h"
#include "sim/world.h"
#include "solver/runner.h"
#include "sparse/generators.h"

namespace loadex {
namespace {

using core::MechanismConfig;
using core::MechanismKind;
using sim::Channel;
using sim::Message;
using sim::NetworkConfig;
using test::CoreHarness;

// ---- network-level faults --------------------------------------------------

struct NetFixture {
  sim::EventQueue queue;
  sim::Network net;
  std::vector<Message> delivered;

  explicit NetFixture(NetworkConfig cfg, int nprocs = 4)
      : net(queue, cfg, nprocs) {
    for (Rank r = 0; r < nprocs; ++r)
      net.setReceiver(r, [this](const Message& m) { delivered.push_back(m); });
  }

  void send(Rank src, Rank dst, Bytes size, Channel ch = Channel::kState) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.size = size;
    m.channel = ch;
    net.send(std::move(m));
  }
};

// ---- LinkBlackout::matches edge cases -------------------------------------
// The predicate is shared by the simulator and the rt runtime
// (common/faults.h), so its edge semantics must be pinned down once:
// kNoRank wildcards, a half-open [start, end) window, and the zero-width
// degenerate case that matches nothing.

TEST(LinkBlackoutMatches, ExactLinkAndWindow) {
  const LinkBlackout b{1, 2, 1.0, 2.0};
  EXPECT_TRUE(b.matches(1, 2, 1.5));
  EXPECT_FALSE(b.matches(2, 1, 1.5));  // direction matters
  EXPECT_FALSE(b.matches(1, 3, 1.5));
  EXPECT_FALSE(b.matches(0, 2, 1.5));
}

TEST(LinkBlackoutMatches, WindowIsHalfOpen) {
  const LinkBlackout b{1, 2, 1.0, 2.0};
  EXPECT_TRUE(b.matches(1, 2, 1.0));   // start is inclusive
  EXPECT_FALSE(b.matches(1, 2, 2.0));  // end is exclusive
  EXPECT_FALSE(b.matches(1, 2, 0.999999));
  EXPECT_TRUE(b.matches(1, 2, 1.999999));
}

TEST(LinkBlackoutMatches, WildcardsMatchAnyRank) {
  const LinkBlackout any_src{kNoRank, 2, 0.0, 1.0};
  EXPECT_TRUE(any_src.matches(0, 2, 0.5));
  EXPECT_TRUE(any_src.matches(7, 2, 0.5));
  EXPECT_FALSE(any_src.matches(0, 3, 0.5));

  const LinkBlackout any_dst{2, kNoRank, 0.0, 1.0};
  EXPECT_TRUE(any_dst.matches(2, 0, 0.5));
  EXPECT_TRUE(any_dst.matches(2, 7, 0.5));
  EXPECT_FALSE(any_dst.matches(3, 0, 0.5));

  const LinkBlackout total{kNoRank, kNoRank, 0.0, 1.0};
  EXPECT_TRUE(total.matches(0, 1, 0.5));
  EXPECT_TRUE(total.matches(5, 6, 0.0));
  EXPECT_FALSE(total.matches(5, 6, 1.0));  // window still half-open
}

TEST(LinkBlackoutMatches, ZeroWidthWindowMatchesNothing) {
  // [t, t) is empty by the half-open convention — even at t itself.
  const LinkBlackout b{kNoRank, kNoRank, 1.0, 1.0};
  EXPECT_FALSE(b.matches(0, 1, 1.0));
  EXPECT_FALSE(b.matches(0, 1, 1.0 - 1e-12));
  EXPECT_FALSE(b.matches(0, 1, 1.0 + 1e-12));
}

TEST(NetworkFaults, CertainDropLosesEveryMessage) {
  NetworkConfig cfg;
  cfg.faults.drop_prob = 1.0;
  NetFixture f(cfg);
  for (int i = 0; i < 10; ++i) f.send(0, 1, 100);
  f.queue.runUntil();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.net.messagesDropped(), 10);
  // Wire bytes are still counted at the sender: the NIC transmitted them.
  EXPECT_EQ(f.net.bytesSent(),
            10 * (100 + cfg.per_message_overhead_bytes));
}

TEST(NetworkFaults, BlackoutDropsOnlyMatchingWindow) {
  NetworkConfig cfg;
  cfg.faults.blackouts.push_back(LinkBlackout{0, 1, 1.0, 2.0});
  NetFixture f(cfg);
  f.send(0, 1, 8);                                     // t=0: before window
  f.queue.scheduleAt(1.5, [&] { f.send(0, 1, 8); });   // inside: dropped
  f.queue.scheduleAt(1.5, [&] { f.send(0, 2, 8); });   // other link: kept
  f.queue.scheduleAt(2.5, [&] { f.send(0, 1, 8); });   // after window
  f.queue.runUntil();
  EXPECT_EQ(f.delivered.size(), 3u);
  EXPECT_EQ(f.net.messagesDropped(), 1);
}

TEST(NetworkFaults, WildcardBlackoutSilencesARank) {
  NetworkConfig cfg;
  cfg.faults.blackouts.push_back(LinkBlackout{2, kNoRank, 0.0, 10.0});
  NetFixture f(cfg);
  f.send(2, 0, 8);
  f.send(2, 1, 8);
  f.send(1, 0, 8);
  f.queue.runUntil();
  EXPECT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.net.messagesDropped(), 2);
}

TEST(NetworkFaults, CertainDuplicationDeliversTwiceInOrder) {
  NetworkConfig cfg;
  cfg.faults.duplicate_prob = 1.0;
  NetFixture f(cfg);
  f.send(0, 1, 100);
  f.queue.runUntil();
  ASSERT_EQ(f.delivered.size(), 2u);
  EXPECT_EQ(f.net.messagesDuplicated(), 1);
  // The duplicated copy also crossed the wire.
  EXPECT_EQ(f.net.bytesSent(),
            2 * (100 + cfg.per_message_overhead_bytes));
}

TEST(NetworkFaults, LatencySpikeDelaysDelivery) {
  NetworkConfig cfg;
  cfg.latency_s = 1e-3;
  cfg.bandwidth_bytes_per_s = 1e9;
  cfg.per_message_overhead_bytes = 0;
  cfg.faults.latency_spike_prob = 1.0;
  cfg.faults.latency_spike_s = 0.5;

  sim::EventQueue q;
  sim::Network net(q, cfg, 2);
  SimTime arrival = -1.0;
  net.setReceiver(1, [&](const Message&) { arrival = q.now(); });
  net.setReceiver(0, [](const Message&) {});
  Message m;
  m.src = 0;
  m.dst = 1;
  m.size = 0;
  net.send(std::move(m));
  q.runUntil();
  EXPECT_EQ(net.latencySpikes(), 1);
  EXPECT_GE(arrival, 0.5);
}

TEST(NetworkFaults, ChannelScopingSparesTheOtherChannel) {
  NetworkConfig cfg;
  cfg.faults.drop_prob = 1.0;
  cfg.faults.affects_app = false;  // state-only faults
  NetFixture f(cfg);
  f.send(0, 1, 8, Channel::kState);
  f.send(0, 1, 8, Channel::kApp);
  f.queue.runUntil();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0].channel, Channel::kApp);
}

// An enabled-but-probability-free plan (a blackout that never matches)
// must not perturb the jitter stream: the fault RNG is a separate stream.
TEST(NetworkFaults, FaultPathDoesNotPerturbJitterDraws) {
  NetworkConfig base;
  base.jitter_s = 1e-4;

  NetworkConfig with_plan = base;
  with_plan.faults.blackouts.push_back(LinkBlackout{0, 1, 1e9, 2e9});
  ASSERT_TRUE(with_plan.faults.enabled());

  auto arrivals = [](NetworkConfig cfg) {
    sim::EventQueue q;
    sim::Network net(q, cfg, 4);
    std::vector<SimTime> times;
    for (Rank r = 0; r < 4; ++r)
      net.setReceiver(r, [&times, &q](const Message&) {
        times.push_back(q.now());
      });
    for (int i = 0; i < 20; ++i) {
      Message m;
      m.src = i % 3;
      m.dst = 3;
      m.size = 64;
      m.channel = Channel::kState;
      net.send(std::move(m));
    }
    q.runUntil();
    return times;
  };
  EXPECT_EQ(arrivals(base), arrivals(with_plan));
}

// ---- process-level faults --------------------------------------------------

TEST(ProcessFaults, CrashLosesQueuedAndLaterMessages) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = 2;
  wcfg.process_faults.push_back(
      {1, 0.5, ProcessFaultEvent::Kind::kCrash});
  CoreHarness h(2, MechanismKind::kNaive, MechanismConfig{}, wcfg);

  // Rank 1 busy until well past the crash; a message sent to it before the
  // crash sits in its queue and dies with it; one sent after is dropped at
  // delivery.
  h.app.pushTask(1, 1e9 * 2.0);  // 2 s of work at the default 1 GF/s
  h.at(0.1, [&] {
    test::sendWork(h.world.process(0), 1, 1e6, {1.0, 0.0}, false);
  });
  h.at(1.0, [&] {
    test::sendWork(h.world.process(0), 1, 1e6, {1.0, 0.0}, false);
  });
  const auto run = h.run();
  EXPECT_EQ(run.crashes, 1);
  EXPECT_EQ(run.messages_lost_at_down_procs, 2);
  EXPECT_TRUE(h.world.process(1).crashed());
  // The crashed process never ran the queued work message's task.
  EXPECT_EQ(h.world.process(1).tasksRun(), 1);
}

TEST(ProcessFaults, PauseStretchesCompletionTime) {
  auto runWith = [](std::vector<ProcessFaultEvent> faults) {
    sim::WorldConfig wcfg;
    wcfg.nprocs = 1;
    wcfg.process_faults = std::move(faults);
    CoreHarness h(1, MechanismKind::kNaive, MechanismConfig{}, wcfg);
    h.app.pushTask(0, 1e9);  // 1 s of work
    return h.run().end_time;
  };
  const SimTime clean = runWith({});
  const SimTime paused =
      runWith({{0, 0.2, ProcessFaultEvent::Kind::kPause},
               {0, 0.7, ProcessFaultEvent::Kind::kResume}});
  EXPECT_NEAR(paused - clean, 0.5, 1e-9);
}

TEST(ProcessFaults, RestartResumesProcessing) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = 2;
  wcfg.process_faults.push_back({1, 0.1, ProcessFaultEvent::Kind::kCrash});
  wcfg.process_faults.push_back(
      {1, 0.5, ProcessFaultEvent::Kind::kRestart});
  CoreHarness h(2, MechanismKind::kNaive, MechanismConfig{}, wcfg);
  // Work delivered after the restart runs normally.
  h.at(0.6, [&] {
    test::sendWork(h.world.process(0), 1, 1e6, {1.0, 0.0}, false);
  });
  const auto run = h.run();
  EXPECT_EQ(run.crashes, 1);
  EXPECT_EQ(run.restarts, 1);
  EXPECT_FALSE(h.world.process(1).crashed());
  EXPECT_EQ(h.world.process(1).tasksRun(), 1);
}

// ---- hardened increment under sustained random loss ------------------------

TEST(HardenedIncrement, ViewsConvergeDespiteLossAndDuplication) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = 4;
  wcfg.network.faults.drop_prob = 0.10;
  wcfg.network.faults.duplicate_prob = 0.05;
  wcfg.network.faults.affects_app = false;

  MechanismConfig mcfg;
  mcfg.threshold = {0.5, 1e18};  // broadcast nearly every change
  mcfg.reliability.reliable_updates = true;

  CoreHarness h(4, MechanismKind::kIncrement, mcfg, wcfg);
  for (int i = 0; i < 50; ++i) {
    const Rank r = i % 4;
    h.at(1e-3 * i, [&h, r] {
      h.mechs.at(r).addLocalLoad({1.0, 0.0});
    });
  }
  const auto run = h.run();
  ASSERT_FALSE(run.hit_limit);
  EXPECT_GT(run.messages_dropped, 0);

  core::MechanismStats total;
  for (Rank r = 0; r < 4; ++r) h.mechs.at(r).stats().mergeInto(total);
  EXPECT_GT(total.retransmissions, 0);

  // No permanent view divergence: every rank's view of every rank matches
  // that rank's actual local load.
  for (Rank viewer = 0; viewer < 4; ++viewer)
    for (Rank subject = 0; subject < 4; ++subject)
      EXPECT_DOUBLE_EQ(
          h.mechs.at(viewer).view().load(subject).workload,
          h.mechs.at(subject).localLoad().workload)
          << "viewer " << viewer << " subject " << subject;
}

TEST(HardenedIncrement, UnhardenedDivergesUnderSameLoss) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = 4;
  wcfg.network.faults.drop_prob = 0.10;
  wcfg.network.faults.affects_app = false;

  MechanismConfig mcfg;
  mcfg.threshold = {0.5, 1e18};

  CoreHarness h(4, MechanismKind::kIncrement, mcfg, wcfg);
  for (int i = 0; i < 50; ++i) {
    const Rank r = i % 4;
    h.at(1e-3 * i, [&h, r] {
      h.mechs.at(r).addLocalLoad({1.0, 0.0});
    });
  }
  const auto run = h.run();
  ASSERT_GT(run.messages_dropped, 0);
  bool diverged = false;
  for (Rank viewer = 0; viewer < 4 && !diverged; ++viewer)
    for (Rank subject = 0; subject < 4; ++subject)
      if (h.mechs.at(viewer).view().load(subject).workload !=
          h.mechs.at(subject).localLoad().workload) {
        diverged = true;
        break;
      }
  EXPECT_TRUE(diverged) << "expected the unhardened protocol to diverge";
}

// ---- replay determinism (satellite: identical seeds, identical runs) -------

sparse::Problem faultsGrid() {
  sparse::Problem p;
  p.name = "grid";
  p.pattern = sparse::grid2d(20, 20);
  p.symmetric = true;
  return p;
}

solver::SolverConfig faultySolverConfig() {
  solver::SolverConfig cfg;
  cfg.nprocs = 8;
  cfg.mechanism = MechanismKind::kIncrement;
  cfg.mapping.type2_min_front = 80;
  cfg.mapping.type2_min_border = 8;
  cfg.network.faults.drop_prob = 0.01;
  cfg.network.faults.duplicate_prob = 0.005;
  cfg.network.faults.latency_spike_prob = 0.01;
  cfg.network.faults.latency_spike_s = 1e-4;
  cfg.network.faults.affects_app = false;
  cfg.mech.reliability.reliable_updates = true;
  cfg.app.staleness_limit_s = 0.0;
  cfg.process_faults.push_back(
      {7, 1e-3, ProcessFaultEvent::Kind::kPause});
  cfg.process_faults.push_back(
      {7, 2e-3, ProcessFaultEvent::Kind::kResume});
  return cfg;
}

TEST(ReplayDeterminism, IdenticalSeedsGiveBitIdenticalRuns) {
  const auto problem = faultsGrid();
  const auto cfg = faultySolverConfig();
  const auto a = runProblem(problem, cfg);
  const auto b = runProblem(problem, cfg);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.factor_time, b.factor_time);  // bit-identical, not NEAR
  EXPECT_EQ(a.sim_events, b.sim_events);
  EXPECT_EQ(a.state_messages, b.state_messages);
  EXPECT_EQ(a.state_bytes, b.state_bytes);
  EXPECT_EQ(a.app_messages, b.app_messages);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_duplicated, b.messages_duplicated);
  EXPECT_EQ(a.latency_spikes, b.latency_spikes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.nacks_sent, b.nacks_sent);
  EXPECT_EQ(a.gaps_detected, b.gaps_detected);
  EXPECT_EQ(a.peak_active_mem, b.peak_active_mem);
  EXPECT_EQ(a.local_fallbacks, b.local_fallbacks);
}

TEST(ReplayDeterminism, DifferentFaultSeedsDiverge) {
  const auto problem = faultsGrid();
  auto cfg = faultySolverConfig();
  const auto a = runProblem(problem, cfg);
  cfg.network.faults.seed ^= 0x1234567;
  const auto b = runProblem(problem, cfg);
  EXPECT_NE(a.messages_dropped, b.messages_dropped);
}

// ---- end-to-end degradation ------------------------------------------------

TEST(SolverDegradation, HardenedIncrementCompletesAtFivePercentLoss) {
  const auto problem = faultsGrid();
  auto cfg = faultySolverConfig();
  cfg.network.faults.drop_prob = 0.05;
  cfg.process_faults.clear();
  const auto res = runProblem(problem, cfg);
  EXPECT_TRUE(res.completed);
  EXPECT_GT(res.messages_dropped, 0);
  EXPECT_GT(res.retransmissions, 0);
}

TEST(SolverDegradation, SchedulerSkipsDeadRanks) {
  core::LoadView view(4);
  view.set(0, {100.0, 0.0});
  view.set(1, {1.0, 0.0});  // least loaded — but dead
  view.set(2, {50.0, 0.0});
  view.set(3, {60.0, 0.0});
  view.markDead(1);

  solver::SelectionRequest req;
  req.master = 0;
  req.rows = 64;
  req.front = 128;
  req.slave_flops = 1e6;
  req.min_rows_per_slave = 8;
  req.max_slaves = 16;
  const auto sel = solver::WorkloadScheduler{}.select(view, req);
  ASSERT_FALSE(sel.empty());
  for (const auto& a : sel) EXPECT_NE(a.slave, 1);
}

TEST(SolverDegradation, AllCandidatesDeadYieldsEmptySelection) {
  core::LoadView view(3);
  view.markDead(1);
  view.markDead(2);
  solver::SelectionRequest req;
  req.master = 0;
  req.rows = 64;
  req.front = 128;
  req.slave_flops = 1e6;
  const auto sel = solver::WorkloadScheduler{}.select(view, req);
  EXPECT_TRUE(sel.empty());
}

TEST(SolverDegradation, StalenessLimitFiltersSilentRanks) {
  core::LoadView view(3);
  view.set(1, {1.0, 0.0});
  view.set(2, {2.0, 0.0});
  view.touch(1, 10.0);  // heard from recently
  view.touch(2, 1.0);   // silent for 9 s
  solver::SelectionRequest req;
  req.master = 0;
  req.rows = 64;
  req.front = 128;
  req.slave_flops = 1e6;
  req.now = 10.0;
  req.staleness_limit_s = 5.0;
  const auto sel = solver::WorkloadScheduler{}.select(view, req);
  ASSERT_FALSE(sel.empty());
  for (const auto& a : sel) EXPECT_EQ(a.slave, 1);
}

}  // namespace
}  // namespace loadex
