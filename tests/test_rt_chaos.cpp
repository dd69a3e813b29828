// Chaos verification of the rt fault layer (rt/faults.h + supervisor).
//
// Two kinds of coverage:
//
//   * a seeded chaos sweep — up to 32 ranks flooding a hostile script
//     while the supervisor executes scripted crash / pause / restart
//     events and the transports inject ~5% state-message loss plus
//     duplicates, latency spikes and a blackout window. Assertions are
//     the conservation identities that must hold under ANY fault
//     schedule (every posted envelope delivered or counted in exactly
//     one drop bucket, timers fired or cancelled, mailbox pushes ==
//     pops), a clean ProtocolAuditor under the fault-tolerant config
//     (loss legal, FIFO order still mandatory — this is what proves the
//     latency-spike path cannot reorder a pair stream), and view
//     coherence between a restarted rank and every surviving peer after
//     an explicit rejoin resync at quiescence. The sweep spans the
//     executor shapes: the auto-sized pool and pinned 1- and 2-worker
//     pools (ranks ≫ workers forces steals), plus a saturation flood of
//     1024 ranks on 4 workers;
//
//   * deterministic lifecycle units (FaultPlan::manual_control) — exact
//     drop accounting around a sealed mailbox, heartbeat detection
//     driving suspect -> dead -> revive transitions into peer views, a
//     manual crash/restart/resync round restoring coherence, and the
//     clean-path guarantee: with an inert plan (and with hooks enabled
//     but no fault configured) every fault counter stays zero and the
//     exact clean-run identities of test_rt_differential still hold.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/audit.h"
#include "harness/script.h"
#include "rt/audit_lock.h"
#include "rt/clock.h"
#include "rt/supervisor.h"
#include "rt/workload.h"
#include "rt/world.h"

namespace loadex {
namespace {

using core::MechanismKind;
using harness::Script;
using ProcKind = ProcessFaultEvent::Kind;

core::MechanismConfig chaosMechConfig(const Script& s) {
  core::MechanismConfig mcfg;
  mcfg.threshold = {s.threshold, s.threshold};
  mcfg.reliability.reliable_updates = s.hardened;
  if (s.kind == MechanismKind::kSnapshot) {
    // Mandatory under crashes/loss: the paper's snapshot deadlocks when
    // an answer is lost or an initiator dies mid-snapshot; the timeout
    // retries and eventually completes with a partial quorum.
    mcfg.reliability.snapshot_timeout_s = 10e-3;
    mcfg.reliability.max_snapshot_retries = 3;
  }
  return mcfg;
}

/// Sleep-poll until `pred` holds or `timeout_s` elapses.
bool pollUntil(const rt::RtWorld& world, double timeout_s,
               const std::function<bool()>& pred) {
  const SimTime deadline = world.now() + timeout_s;
  while (!pred()) {
    if (world.now() >= deadline) return false;
    rt::MonotonicClock::sleepFor(1e-3);
  }
  return true;
}

void expectFaultIdentities(const rt::RtRunStats& st) {
  EXPECT_EQ(st.state_posted + st.state_duplicated,
            st.state_delivered + st.state_dropped)
      << "state channel leaks envelopes under faults";
  EXPECT_EQ(st.task_posted + st.task_duplicated,
            st.task_delivered + st.task_dropped)
      << "task channel leaks envelopes under faults";
  EXPECT_EQ(st.timers_armed, st.timers_fired + st.timers_cancelled);
  EXPECT_EQ(st.mailbox_pushes, st.mailbox_pops)
      << "a sealed mailbox kept an unswept envelope";
}

// ---- seeded chaos sweep ----------------------------------------------------

struct ChaosCase {
  std::uint64_t seed = 0;
  int nprocs = 8;
  MechanismKind kind = MechanismKind::kNaive;
  bool hardened = false;        ///< increment only
  bool permanent_crash = false; ///< one victim stays down for good
  int workers = 0;              ///< worker pool size (0: auto)
};

/// Hostile script sized like test_rt_stress's, except masters are drawn
/// from the low ranks only — the chaos victims are the top three ranks,
/// so every scripted selection's initiator survives and the
/// committed+skipped bookkeeping stays exact.
Script chaosScript(const ChaosCase& c) {
  Rng rng(c.seed * 0x9e3779b97f4a7c15ull + 1);
  Script s;
  s.seed = c.seed;
  s.nprocs = c.nprocs;
  s.kind = c.kind;
  s.hardened = c.hardened;
  s.threshold = 1.0;

  const auto randRank = [&] {
    return static_cast<Rank>(
        rng.uniformInt(static_cast<std::uint64_t>(c.nprocs)));
  };
  const auto randMaster = [&] {
    return static_cast<Rank>(
        rng.uniformInt(static_cast<std::uint64_t>(c.nprocs - 3)));
  };

  const int nloads = c.nprocs * 30;
  for (int i = 0; i < nloads; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0), randRank(),
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < 6; ++i)
    s.selections.push_back(
        {rng.uniformReal(0.3, 0.9), randMaster(), rng.uniformReal(5.0, 40.0)});
  return s;
}

class RtChaos : public ::testing::TestWithParam<ChaosCase> {};

TEST_P(RtChaos, SurvivesCrashPauseRestartWithLoss) {
  const ChaosCase& c = GetParam();
  const Script s = chaosScript(c);
  SCOPED_TRACE("seed=" + std::to_string(c.seed) +
               " nprocs=" + std::to_string(c.nprocs) +
               " kind=" + core::mechanismKindName(c.kind) +
               (c.hardened ? " hardened" : "") +
               (c.permanent_crash ? " permanent_crash" : "") +
               (c.workers > 0 ? " workers=" + std::to_string(c.workers)
                              : ""));

  // Victims: top three ranks (never scripted as masters).
  const Rank restarted = static_cast<Rank>(c.nprocs - 1);
  const Rank paused = static_cast<Rank>(c.nprocs - 2);
  const Rank perma = static_cast<Rank>(c.nprocs - 3);

  rt::RtConfig rcfg;
  rcfg.nprocs = c.nprocs;
  rcfg.executor.workers = c.workers;
  rt::FaultPlan& fp = rcfg.faults;
  fp.messages.drop_prob = 0.05;
  fp.messages.duplicate_prob = 0.02;
  fp.messages.latency_spike_prob = 0.02;
  fp.messages.latency_spike_s = 2e-3;
  // Task closures must not be randomly lost (a vanished delegation would
  // double-count or lose real work); they still die with a crashed rank.
  fp.messages.affects_state = true;
  fp.messages.affects_app = false;
  fp.messages.seed = c.seed * 1069 + 7;
  fp.messages.blackouts.push_back({/*src=*/0, /*dst=*/1, 0.004, 0.012});
  // Script time spans [0.01, 1.0] at time_scale 0.05 => ~50ms of paced
  // traffic; all lifecycle events land inside it.
  fp.process.push_back({restarted, 0.008, ProcKind::kCrash});
  fp.process.push_back({paused, 0.010, ProcKind::kPause});
  if (c.permanent_crash) fp.process.push_back({perma, 0.014, ProcKind::kCrash});
  fp.process.push_back({restarted, 0.020, ProcKind::kRestart});
  fp.process.push_back({paused, 0.045, ProcKind::kResume});
  fp.suspicion.enabled = true;
  fp.suspicion.suspect_after_s = 20e-3;
  fp.suspicion.dead_after_s = 80e-3;
  fp.suspicion.sweep_period_s = 1e-3;

  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind, chaosMechConfig(s));

  core::AuditorConfig acfg;
  acfg.allow_message_loss = true;  // injected drops + duplicates are legal
  acfg.allow_crashes = true;       // sealed destinations + frozen ranks too
  acfg.check_conservation = false; // lost updates corrupt views by design
  core::ProtocolAuditor auditor(acfg);
  rt::RtAuditBinding audit_binding(auditor, mechs);

  for (Rank r = 0; r < c.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.superviseMechanisms(&mechs);
  world.start();

  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(s, /*time_scale=*/0.05, /*drain_timeout_s=*/120.0);
  EXPECT_TRUE(res.drained) << "chaos run failed to quiesce";

  // The supervisor owns the schedule; make sure every event has fired
  // before reasoning about end-state (drain can win the race on a fast
  // machine only by microseconds, but be explicit).
  const std::int64_t want_crashes = c.permanent_crash ? 2 : 1;
  EXPECT_TRUE(pollUntil(world, 10.0, [&] {
    const rt::RtWorld::LifecycleCounts lc = world.lifecycleCounts();
    return lc.crashes >= want_crashes && lc.restarts >= 1 &&
           world.rankLife(paused) == rt::RankLife::kAlive;
  })) << "scripted lifecycle events did not all fire";
  EXPECT_TRUE(world.drain(30.0));

  // The supervisor resynced `restarted` at restart time, but later script
  // traffic changed loads again; a final resync at quiescence is what
  // makes view coherence assertable below.
  rt::postRejoinResync(world, mechs, restarted);
  EXPECT_TRUE(world.drain(30.0));
  world.stop();

  // Every scripted selection's master survived, so each selection closure
  // ran exactly once (committed or skipped when the view had no slave).
  EXPECT_EQ(res.selections_committed + res.selections_skipped,
            static_cast<std::int64_t>(s.selections.size()));

  const rt::RtRunStats st = world.runStats();
  expectFaultIdentities(st);
  EXPECT_EQ(st.crashes, want_crashes);
  EXPECT_EQ(st.restarts, 1);
  EXPECT_GE(st.resyncs, 1);
  EXPECT_GT(st.fault_drops, 0) << "5% loss on a flood must drop something";
  EXPECT_EQ(world.pendingWork(), 0);
  if (c.permanent_crash) {
    EXPECT_EQ(world.rankLife(perma), rt::RankLife::kCrashed);
    EXPECT_GE(st.deaths_declared, 1);
  }

  // Auditor: loss and crashes are legal, reordering and double-execution
  // are not. Annotate the crash history for the finish-time checks.
  auditor.noteCrashed(restarted);
  auditor.noteRestarted(restarted);
  if (c.permanent_crash) auditor.noteCrashed(perma);
  auditor.finish();
  auditor.expectClean();

  // Rejoin coherence: after the final resync the restarted rank and every
  // surviving peer agree on each other's authoritative loads exactly
  // (resync copies localLoad, no threshold residue involved).
  for (Rank p = 0; p < c.nprocs; ++p) {
    if (p == restarted || (c.permanent_crash && p == perma)) continue;
    SCOPED_TRACE("peer=" + std::to_string(p));
    const core::LoadMetrics& mine = mechs.at(p).localLoad();
    const core::LoadMetrics& seen = mechs.at(restarted).view().load(p);
    EXPECT_NEAR(seen.workload, mine.workload, 1e-9);
    EXPECT_NEAR(seen.memory, mine.memory, 1e-9);
    const core::LoadMetrics& back = mechs.at(p).view().load(restarted);
    EXPECT_NEAR(back.workload, mechs.at(restarted).localLoad().workload, 1e-9);
    EXPECT_NEAR(back.memory, mechs.at(restarted).localLoad().memory, 1e-9);
    EXPECT_FALSE(mechs.at(p).view().dead(restarted));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RtChaos,
    ::testing::Values(
        // Auto-sized pool (the default runtime).
        ChaosCase{1, 8, MechanismKind::kNaive, false, false},
        ChaosCase{2, 8, MechanismKind::kIncrement, true, false},
        ChaosCase{3, 8, MechanismKind::kSnapshot, false, false},
        ChaosCase{4, 32, MechanismKind::kNaive, false, true},
        ChaosCase{5, 32, MechanismKind::kIncrement, true, true},
        ChaosCase{6, 32, MechanismKind::kSnapshot, false, true},
        // Pinned small pools: ranks ≫ workers, so crash teardown and
        // restart must interleave with foreign-shard steals.
        ChaosCase{7, 8, MechanismKind::kNaive, false, false, 2},
        ChaosCase{8, 32, MechanismKind::kSnapshot, false, true, 2},
        ChaosCase{9, 32, MechanismKind::kIncrement, true, true, 2},
        ChaosCase{10, 32, MechanismKind::kNaive, false, false, 1}));

// ---- M:N saturation flood --------------------------------------------------

// N=1024 ranks on 4 workers: every shard serves hundreds of ranks and
// every worker serves multiple shards, so mailbox drains, spill flushes,
// timer fires and crash teardown constantly hand ranks across OS threads.
// This is the TSan showcase for the M:N executor — the interesting output
// is the *absence* of races; the assertions are the same conservation
// identities as the sweep above, plus rejoin coherence at scale.
TEST(RtChaosFlood, ThousandRanksOnFourWorkersSurviveChaos) {
  constexpr int kProcs = 1024;
  const Rank restarted = kProcs - 1;
  const Rank paused = kProcs - 2;
  const Rank perma = kProcs - 3;

  // Bounded hostile script: one naive threshold crossing broadcasts to
  // 1023 peers, so it is the load-op count that prices the storm.
  Rng rng(0xF100Du);
  Script s;
  s.nprocs = kProcs;
  s.kind = MechanismKind::kNaive;
  s.threshold = 6.0;
  for (int i = 0; i < 256; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0),
                       static_cast<Rank>(rng.uniformInt(kProcs)),
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < 6; ++i)
    s.selections.push_back(
        {rng.uniformReal(0.3, 0.9),
         static_cast<Rank>(rng.uniformInt(kProcs - 3)),  // survivors only
         rng.uniformReal(5.0, 40.0)});

  rt::RtConfig rcfg;
  rcfg.nprocs = kProcs;
  rcfg.executor.workers = 4;
  // 1024 default-size rings would cost hundreds of MB; small rings also
  // keep the spill path hot for the whole flood.
  rcfg.mailbox.capacity = 256;
  rt::FaultPlan& fp = rcfg.faults;
  fp.messages.drop_prob = 0.05;
  fp.messages.duplicate_prob = 0.02;
  fp.messages.latency_spike_prob = 0.02;
  fp.messages.latency_spike_s = 2e-3;
  fp.messages.affects_state = true;
  fp.messages.affects_app = false;
  fp.messages.seed = 0xF100D5EEDull;
  fp.process.push_back({restarted, 0.008, ProcKind::kCrash});
  fp.process.push_back({paused, 0.010, ProcKind::kPause});
  fp.process.push_back({perma, 0.014, ProcKind::kCrash});
  fp.process.push_back({restarted, 0.020, ProcKind::kRestart});
  fp.process.push_back({paused, 0.045, ProcKind::kResume});
  // Generous detector thresholds: a 4-worker pass over 1024 ranks under
  // TSan can stretch heartbeat ages, and a spurious suspect transition
  // broadcasts to 1023 peers — advisory noise this test does not need.
  fp.suspicion.enabled = true;
  fp.suspicion.suspect_after_s = 250e-3;
  fp.suspicion.dead_after_s = 1.0;
  fp.suspicion.sweep_period_s = 5e-3;

  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind, chaosMechConfig(s));

  core::AuditorConfig acfg;
  acfg.allow_message_loss = true;
  acfg.allow_crashes = true;
  acfg.check_conservation = false;
  core::ProtocolAuditor auditor(acfg);
  rt::RtAuditBinding audit_binding(auditor, mechs);

  for (Rank r = 0; r < kProcs; ++r) world.attach(r, &mechs.at(r));
  world.superviseMechanisms(&mechs);
  world.start();
  EXPECT_EQ(world.workerCount(), 4);

  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(s, /*time_scale=*/0.05, /*drain_timeout_s=*/300.0);
  EXPECT_TRUE(res.drained) << "flood failed to quiesce";

  EXPECT_TRUE(pollUntil(world, 30.0, [&] {
    const rt::RtWorld::LifecycleCounts lc = world.lifecycleCounts();
    return lc.crashes >= 2 && lc.restarts >= 1 &&
           world.rankLife(paused) == rt::RankLife::kAlive;
  })) << "scripted lifecycle events did not all fire";
  EXPECT_TRUE(world.drain(60.0));

  rt::postRejoinResync(world, mechs, restarted);
  EXPECT_TRUE(world.drain(60.0));
  world.stop();

  EXPECT_EQ(res.selections_committed + res.selections_skipped,
            static_cast<std::int64_t>(s.selections.size()));

  const rt::RtRunStats st = world.runStats();
  expectFaultIdentities(st);
  EXPECT_EQ(st.crashes, 2);
  EXPECT_EQ(st.restarts, 1);
  EXPECT_GE(st.resyncs, 1);
  EXPECT_GT(st.fault_drops, 0);
  EXPECT_EQ(world.pendingWork(), 0);
  EXPECT_EQ(world.rankLife(perma), rt::RankLife::kCrashed);

  auditor.noteCrashed(restarted);
  auditor.noteRestarted(restarted);
  auditor.noteCrashed(perma);
  auditor.finish();
  auditor.expectClean();

  // Rejoin coherence at scale: after the final resync, every surviving
  // peer and the restarted rank agree on each other's loads exactly.
  for (Rank p = 0; p < kProcs; ++p) {
    if (p == restarted || p == perma) continue;
    const core::LoadMetrics& mine = mechs.at(p).localLoad();
    const core::LoadMetrics& seen = mechs.at(restarted).view().load(p);
    ASSERT_NEAR(seen.workload, mine.workload, 1e-9) << "peer=" << p;
    const core::LoadMetrics& back = mechs.at(p).view().load(restarted);
    ASSERT_NEAR(back.workload, mechs.at(restarted).localLoad().workload,
                1e-9) << "peer=" << p;
    ASSERT_FALSE(mechs.at(p).view().dead(restarted)) << "peer=" << p;
  }
}

// ---- deterministic lifecycle units ----------------------------------------

/// Fixture bits shared by the manual-control tests.
struct ManualRig {
  rt::RtWorld world;
  core::MechanismSet mechs;

  explicit ManualRig(rt::RtConfig rcfg, core::MechanismConfig mcfg,
                     MechanismKind kind = MechanismKind::kNaive)
      : world(rcfg), mechs(world.transports(), kind, mcfg) {
    for (Rank r = 0; r < world.nprocs(); ++r) world.attach(r, &mechs.at(r));
  }
};

rt::RtConfig manualConfig(int nprocs) {
  rt::RtConfig rcfg;
  rcfg.nprocs = nprocs;
  rcfg.faults.manual_control = true;
  return rcfg;
}

TEST(RtChaosUnit, CrashSealsMailboxWithExactDropAccounting) {
  core::MechanismConfig mcfg;
  mcfg.threshold = {1.0, 1.0};
  ManualRig rig(manualConfig(4), mcfg);
  rig.world.start();

  ASSERT_EQ(rig.world.rankLife(2), rt::RankLife::kAlive);
  rig.world.crashRank(2);
  EXPECT_EQ(rig.world.rankLife(2), rt::RankLife::kCrashed);

  // A blocking post to the sealed rank is dropped (counted), not hung on.
  rig.world.post(2, [] {});
  // A naive broadcast from rank 0 loses exactly the copy aimed at rank 2.
  rig.world.post(0, [&rig] { rig.mechs.at(0).addLocalLoad({10.0, 0.0}); });
  EXPECT_TRUE(rig.world.drain(30.0));
  rig.world.stop();

  const rt::RtRunStats st = rig.world.runStats();
  EXPECT_EQ(st.crashes, 1);
  EXPECT_EQ(st.state_posted, 3);  // broadcast to ranks 1, 2, 3
  EXPECT_EQ(st.state_delivered, 2);
  EXPECT_EQ(st.state_dropped, 1);
  EXPECT_EQ(st.task_dropped, 1);  // the empty closure
  EXPECT_EQ(st.dropped_at_sealed_mailbox, 2);
  expectFaultIdentities(st);
  EXPECT_EQ(rig.world.pendingWork(), 0);
}

TEST(RtChaosUnit, ManualRestartWithResyncRestoresCoherence) {
  core::MechanismConfig mcfg;
  // Threshold high enough that the naive mechanism never broadcasts on
  // its own: every view entry checked below came from the resync.
  mcfg.threshold = {100.0, 100.0};
  ManualRig rig(manualConfig(4), mcfg);
  rig.world.start();

  for (Rank r = 0; r < 4; ++r)
    rig.world.post(r, [&rig, r] {
      rig.mechs.at(r).addLocalLoad({5.0 + 2.0 * r, 1.0 * r});
    });
  ASSERT_TRUE(rig.world.drain(30.0));

  rig.world.crashRank(1);
  for (Rank r : {Rank{0}, Rank{2}, Rank{3}})
    rig.world.post(r, [&rig, r] {
      rig.mechs.at(r).addLocalLoad({2.0 * r + 2.0, 0.0});
    });
  ASSERT_TRUE(rig.world.drain(30.0));

  rig.world.restartRank(1);
  EXPECT_EQ(rig.world.rankLife(1), rt::RankLife::kAlive);
  // Mirror the supervisor's restart sequence: protocol reset first (FIFO
  // puts it ahead of the resync on rank 1's mailbox), then the exchange.
  rig.world.post(1, [&rig] { rig.mechs.at(1).onRestart(); });
  rt::postRejoinResync(rig.world, rig.mechs, 1);
  ASSERT_TRUE(rig.world.drain(30.0));
  rig.world.stop();

  const rt::RtRunStats st = rig.world.runStats();
  EXPECT_EQ(st.crashes, 1);
  EXPECT_EQ(st.restarts, 1);
  for (Rank p : {Rank{0}, Rank{2}, Rank{3}}) {
    SCOPED_TRACE("peer=" + std::to_string(p));
    EXPECT_DOUBLE_EQ(rig.mechs.at(1).view().load(p).workload,
                     rig.mechs.at(p).localLoad().workload);
    // localLoad survives the crash (checkpoint-restore semantics): peers
    // see rank 1's pre-crash load again after the resync.
    EXPECT_DOUBLE_EQ(rig.mechs.at(p).view().load(1).workload,
                     rig.mechs.at(1).localLoad().workload);
  }
  EXPECT_DOUBLE_EQ(rig.mechs.at(1).localLoad().workload, 7.0);
  expectFaultIdentities(st);
}

TEST(RtChaosUnit, DetectorSuspectsBuriesAndRevivesAPausedRank) {
  rt::RtConfig rcfg = manualConfig(4);
  rcfg.faults.suspicion.enabled = true;
  rcfg.faults.suspicion.suspect_after_s = 30e-3;
  rcfg.faults.suspicion.dead_after_s = 120e-3;
  rcfg.faults.suspicion.sweep_period_s = 2e-3;
  core::MechanismConfig mcfg;
  mcfg.threshold = {1.0, 1.0};
  ManualRig rig(rcfg, mcfg);
  rig.world.superviseMechanisms(&rig.mechs);
  rig.world.start();

  rig.world.pauseRank(3);
  EXPECT_TRUE(pollUntil(rig.world, 30.0, [&rig] {
    return rig.world.lifecycleCounts().suspects_flagged >= 1;
  })) << "paused rank never suspected";
  EXPECT_TRUE(pollUntil(rig.world, 30.0, [&rig] {
    return rig.world.lifecycleCounts().deaths_declared >= 1;
  })) << "paused rank never declared dead";

  rig.world.resumeRank(3);
  EXPECT_TRUE(pollUntil(rig.world, 30.0, [&rig] {
    return rig.world.lifecycleCounts().revives >= 1;
  })) << "resumed rank never revived";
  // Let the revive broadcasts land, then settle.
  EXPECT_TRUE(rig.world.drain(30.0));
  rig.world.stop();

  const rt::RtRunStats st = rig.world.runStats();
  EXPECT_GE(st.suspects_flagged, 1);
  EXPECT_GE(st.deaths_declared, 1);
  EXPECT_GE(st.revives, 1);
  EXPECT_GE(rig.mechs.aggregateStats().ranks_suspected, 1);
  for (Rank r : {Rank{0}, Rank{1}, Rank{2}}) {
    SCOPED_TRACE("peer=" + std::to_string(r));
    EXPECT_FALSE(rig.mechs.at(r).view().suspect(3));
    EXPECT_FALSE(rig.mechs.at(r).view().dead(3));
  }
  expectFaultIdentities(st);
}

// ---- clean-path guarantee --------------------------------------------------

/// Replays a drawn script and asserts the exact clean-run identities plus
/// all-zero fault counters. Run once with the inert default plan and once
/// with the hooks armed but no fault configured: the per-send fault
/// branch must change nothing when no fault fires.
void expectCleanRunDigest(bool arm_hooks) {
  const Script s = harness::drawScript(/*seed=*/7);
  rt::RtConfig rcfg;
  rcfg.nprocs = s.nprocs;
  rcfg.faults.manual_control = arm_hooks;

  rt::RtWorld world(rcfg);
  core::MechanismConfig mcfg;
  mcfg.threshold = {s.threshold, s.threshold};
  mcfg.reliability.reliable_updates = s.hardened;
  core::MechanismSet mechs(world.transports(), s.kind, mcfg);
  for (Rank r = 0; r < s.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();

  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(s, /*time_scale=*/0.0, /*drain_timeout_s=*/60.0);
  EXPECT_TRUE(res.drained);
  world.stop();

  const rt::RtRunStats st = world.runStats();
  // Clean-run identities, exactly as test_rt_differential asserts them.
  EXPECT_EQ(st.state_posted, st.state_delivered);
  EXPECT_EQ(st.task_posted, st.task_delivered);
  EXPECT_EQ(st.timers_armed, st.timers_fired);
  EXPECT_EQ(st.mailbox_pushes,
            static_cast<std::uint64_t>(st.state_posted + st.task_posted +
                                       s.nprocs));
  // Every fault counter stays zero.
  EXPECT_EQ(st.state_dropped, 0);
  EXPECT_EQ(st.task_dropped, 0);
  EXPECT_EQ(st.state_duplicated, 0);
  EXPECT_EQ(st.task_duplicated, 0);
  EXPECT_EQ(st.fault_drops, 0);
  EXPECT_EQ(st.latency_spikes, 0);
  EXPECT_EQ(st.dropped_at_sealed_mailbox, 0);
  EXPECT_EQ(st.crash_discards, 0);
  EXPECT_EQ(st.timers_cancelled, 0);
  EXPECT_EQ(st.crashes, 0);
  EXPECT_EQ(st.restarts, 0);
  EXPECT_EQ(st.resyncs, 0);
  EXPECT_EQ(st.suspects_flagged, 0);
  EXPECT_EQ(st.deaths_declared, 0);
  EXPECT_EQ(st.revives, 0);
}

TEST(RtChaosUnit, InertPlanKeepsEveryFaultCounterZero) {
  expectCleanRunDigest(/*arm_hooks=*/false);
}

TEST(RtChaosUnit, ArmedButEmptyPlanIsObservationallyClean) {
  expectCleanRunDigest(/*arm_hooks=*/true);
}

}  // namespace
}  // namespace loadex
