// Differential harness: the real-threads runtime vs the discrete-event
// simulator, replaying the same seeded harness::Script on both.
//
// The two runtimes cannot agree on timing — the simulator's clock is a
// fiction the event queue advances, the rt world's is the host's — so the
// comparison is restricted to conservation-style invariants any faithful
// replay must satisfy (see harness/script.h):
//
//   * every scripted selection commits exactly once (nprocs >= 2 means the
//     least-loaded policy always finds a slave);
//   * the total load at quiescence equals the scripted injections plus the
//     delegated shares, on both runtimes, to FP-accumulation tolerance;
//   * per-channel message conservation inside the rt world: every state
//     post is delivered, every task post is delivered, and the mechanisms'
//     own sender-side counts match what the transports posted;
//   * a ProtocolAuditor attached to BOTH runs (over the serialising
//     LockedAuditObserver on the rt side) finishes clean — reservation
//     bookkeeping closes, snapshot lifecycles are well-formed.
//
// What this deliberately does NOT claim: identical message counts (an rt
// flood coalesces threshold crossings differently), identical slave
// choices (view timing differs), or any latency property.
//
// The executor axis (RtExecutorAxis below) replays the same scripts over
// every shape of the rt executor — 1, 2 and 8 workers with stealing on
// and off — at N up to 1024 ranks. The invariants are schedule-blind,
// which is exactly the claim: scheduling is a performance decision, never
// a semantic one.
//
// The process axis (RtProcessAxis below) goes one level further down:
// the same script replayed across 8 separate OS processes over
// Unix-domain sockets (src/net), with the wire-level conservation
// identity folded in. Serialization and real kernels are transport
// decisions, never semantic ones either.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/audit.h"
#include "harness/script.h"
#include "harness/world_harness.h"
#include "net/launch.h"
#include "rt/audit_lock.h"
#include "rt/workload.h"
#include "rt/world.h"

namespace loadex {
namespace {

using core::MechanismConfig;
using core::MechanismKind;
using harness::Script;
using harness::ScriptExpectations;

core::MechanismConfig mechanismConfigOf(const Script& s) {
  MechanismConfig mcfg;
  mcfg.threshold = {s.threshold, s.threshold};
  mcfg.reliability.reliable_updates = s.hardened;
  return mcfg;
}

core::AuditorConfig auditorConfigOf(const Script& s) {
  core::AuditorConfig acfg;
  // A rank that announced No_more_master stops receiving updates, so its
  // view goes legitimately stale; mirror the sim differential suite.
  acfg.check_conservation = s.no_more_master == kNoRank;
  return acfg;
}

struct Replay {
  std::int64_t committed = 0;
  std::int64_t skipped = 0;
  core::LoadMetrics total_load;
  std::int64_t mech_messages_sent = 0;
};

// ---- simulator replay -----------------------------------------------------

Replay runOnSimulator(const Script& s) {
  harness::CoreHarness h(s.nprocs, s.kind, mechanismConfigOf(s));
  h.attachAuditor(auditorConfigOf(s));
  const harness::SimReplay replay(h, s);
  h.run();
  h.finishAudit();

  Replay rep;
  for (Rank r = 0; r < s.nprocs; ++r) {
    rep.committed += replay.tally(r).committed;
    rep.skipped += replay.tally(r).skipped;
    rep.total_load += h.mechs.at(r).localLoad();
  }
  rep.mech_messages_sent = h.mechs.aggregateStats().messagesSent();
  return rep;
}

// ---- rt replay ------------------------------------------------------------

/// One point on the executor axis. The default auto-sizes the pool to the
/// machine — what every non-axis test below runs on.
struct ExecVariant {
  const char* name = "mn_auto";
  rt::RtExecutorConfig config;
};

Replay runOnRt(const Script& s, const ExecVariant& ex = {},
               std::size_t mailbox_capacity = 0) {
  rt::RtConfig rcfg;
  rcfg.nprocs = s.nprocs;
  // Big-N runs shrink the rings: the default 4096 slots per rank would
  // cost hundreds of MB at N=1024, and a small ring exercises the spill
  // path the executor must keep FIFO anyway.
  if (mailbox_capacity != 0) rcfg.mailbox.capacity = mailbox_capacity;
  rcfg.executor = ex.config;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind, mechanismConfigOf(s));

  core::ProtocolAuditor auditor(auditorConfigOf(s));
  rt::RtAuditBinding audit_binding(auditor, mechs);

  for (Rank r = 0; r < s.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();
  if (ex.config.workers > 0 && ex.config.workers <= s.nprocs) {
    EXPECT_EQ(world.workerCount(), ex.config.workers);
  }

  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res = driver.run(s, /*time_scale=*/0.0,
                                            /*drain_timeout_s=*/60.0);
  EXPECT_TRUE(res.drained) << "rt world failed to quiesce";
  world.stop();

  auditor.finish();
  auditor.expectClean();

  // Message conservation per channel inside the rt world.
  const rt::RtRunStats st = world.runStats();
  EXPECT_EQ(st.state_posted, st.state_delivered)
      << "state envelopes lost or double-delivered";
  EXPECT_EQ(st.task_posted, st.task_delivered)
      << "task envelopes lost or double-delivered";
  EXPECT_EQ(st.timers_armed, st.timers_fired);
  EXPECT_EQ(st.mailbox_pushes,
            static_cast<std::uint64_t>(st.state_posted + st.task_posted +
                                       s.nprocs))  // + one kStop per node
      << "mailbox traffic does not reconcile with the posting counters";

  Replay rep;
  rep.committed = res.selections_committed;
  rep.skipped = res.selections_skipped;
  rep.total_load = res.total_load;
  rep.mech_messages_sent = mechs.aggregateStats().messagesSent();
  // What the mechanisms sent is exactly what the transports posted.
  EXPECT_EQ(rep.mech_messages_sent, st.state_posted);
  return rep;
}

// ---- the differential property --------------------------------------------

void expectLoadNear(const core::LoadMetrics& got,
                    const core::LoadMetrics& want) {
  const double tol_w = 1e-9 * (1.0 + std::abs(want.workload));
  const double tol_m = 1e-9 * (1.0 + std::abs(want.memory));
  EXPECT_NEAR(got.workload, want.workload, tol_w);
  EXPECT_NEAR(got.memory, want.memory, tol_m);
}

void checkScript(const Script& s) {
  SCOPED_TRACE("seed=" + std::to_string(s.seed) +
               " nprocs=" + std::to_string(s.nprocs) +
               " kind=" + core::mechanismKindName(s.kind) +
               (s.hardened ? " hardened" : "") +
               (s.no_more_master != kNoRank ? " no_more_master" : ""));
  const ScriptExpectations want = harness::expectationsOf(s);

  const Replay sim = runOnSimulator(s);
  const Replay rtr = runOnRt(s);

  // Selection conservation: both runtimes commit every scripted selection.
  EXPECT_EQ(sim.committed, want.selections);
  EXPECT_EQ(rtr.committed, want.selections);
  EXPECT_EQ(sim.skipped, 0);
  EXPECT_EQ(rtr.skipped, 0);

  // Load conservation: same final bookkeeping on both runtimes.
  expectLoadNear(sim.total_load, want.total_load);
  expectLoadNear(rtr.total_load, want.total_load);
}

class RtDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RtDifferential, RtAndSimAgreeOnConservationInvariants) {
  checkScript(harness::drawScript(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RtDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

// drawScript picks the mechanism from the seed; pin each kind explicitly
// so all three are exercised no matter how the draws fall.
class RtDifferentialPerKind
    : public ::testing::TestWithParam<core::MechanismKind> {};

TEST_P(RtDifferentialPerKind, EveryMechanismSurvivesTheDifferential) {
  for (std::uint64_t seed = 101; seed < 104; ++seed) {
    Script s = harness::drawScript(seed);
    s.kind = GetParam();
    if (s.kind != MechanismKind::kIncrement) s.hardened = false;
    checkScript(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RtDifferentialPerKind,
                         ::testing::Values(MechanismKind::kNaive,
                                           MechanismKind::kIncrement,
                                           MechanismKind::kSnapshot),
                         [](const ::testing::TestParamInfo<MechanismKind>& i) {
                           return std::string(
                               core::mechanismKindName(i.param));
                         });

// ---- executor axis ---------------------------------------------------------
//
// {1,2,8} workers × steal on/off × 3 mechanisms at N ∈ {32, 256, 1024}.
// All three axes shrink to the same claim: the conservation invariants of
// checkScript hold on every executor shape, and each is checked against
// the sim replay's expectations — scheduling changes, semantics do not.

// {workers, shards (0: auto), steal}
constexpr ExecVariant kExecMn1{"mn1", {1, 0, false}};
constexpr ExecVariant kExecMn1Steal{"mn1_steal", {1, 0, true}};
constexpr ExecVariant kExecMn2{"mn2", {2, 0, false}};
constexpr ExecVariant kExecMn2Steal{"mn2_steal", {2, 0, true}};
constexpr ExecVariant kExecMn8{"mn8", {8, 0, false}};
constexpr ExecVariant kExecMn8Steal{"mn8_steal", {8, 0, true}};

/// One deterministic script per (nprocs, kind): every executor variant
/// replays the SAME plan, so agreement across the axis is agreement on a
/// single ground truth. Op counts are bounded independently of nprocs —
/// at N=1024 one naive threshold crossing broadcasts to 1023 peers, so
/// it is the load-op count (not the rank count) that prices the storm.
Script scaleScript(int nprocs, MechanismKind kind) {
  Rng rng(0xE5ECA415u ^ (static_cast<std::uint64_t>(nprocs) << 8) ^
          static_cast<std::uint64_t>(static_cast<int>(kind)));
  Script s;
  s.seed = static_cast<std::uint64_t>(nprocs);
  s.nprocs = nprocs;
  s.kind = kind;
  // Hardened increments arm retransmit timers; running them across the
  // axis checks timers_armed == timers_fired on every executor.
  s.hardened = kind == MechanismKind::kIncrement;
  s.threshold = 6.0;
  const auto randRank = [&] {
    return static_cast<Rank>(
        rng.uniformInt(static_cast<std::uint64_t>(nprocs)));
  };
  const int nloads = std::min(nprocs * 4, 192);
  for (int i = 0; i < nloads; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0), randRank(),
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < 6; ++i)
    s.selections.push_back({rng.uniformReal(0.3, 0.9), randRank(),
                            rng.uniformReal(5.0, 40.0)});
  return s;
}

struct ExecAxisCase {
  int nprocs;
  MechanismKind kind;
  ExecVariant exec;
  std::size_t mailbox_capacity;  ///< 0: default ring size
};

std::vector<ExecAxisCase> execAxisCases() {
  const MechanismKind kinds[] = {MechanismKind::kNaive,
                                 MechanismKind::kIncrement,
                                 MechanismKind::kSnapshot};
  // N=32: the full cross — cheap enough to be exhaustive.
  const ExecVariant small_axis[] = {kExecMn1, kExecMn1Steal, kExecMn2,
                                    kExecMn2Steal, kExecMn8, kExecMn8Steal};
  // N=256: representative points (steal off at 2, on at 8).
  const ExecVariant mid_axis[] = {kExecMn2, kExecMn8Steal};
  // N=1024 is the executor's raison d'être — ranks ≫ cores on both
  // extremes of the pool (1 worker and 8, steal on/off).
  const ExecVariant big_axis[] = {kExecMn1, kExecMn8, kExecMn8Steal};
  std::vector<ExecAxisCase> cases;
  for (MechanismKind k : kinds) {
    for (const ExecVariant& e : small_axis) cases.push_back({32, k, e, 0});
    for (const ExecVariant& e : mid_axis) cases.push_back({256, k, e, 256});
    for (const ExecVariant& e : big_axis) cases.push_back({1024, k, e, 256});
  }
  return cases;
}

class RtExecutorAxis : public ::testing::TestWithParam<ExecAxisCase> {};

TEST_P(RtExecutorAxis, ConservationHoldsOnEveryExecutor) {
  const ExecAxisCase& c = GetParam();
  const Script s = scaleScript(c.nprocs, c.kind);
  SCOPED_TRACE("nprocs=" + std::to_string(c.nprocs) +
               " kind=" + core::mechanismKindName(c.kind) +
               " exec=" + c.exec.name);
  const ScriptExpectations want = harness::expectationsOf(s);

  const Replay sim = runOnSimulator(s);
  EXPECT_EQ(sim.committed, want.selections);
  EXPECT_EQ(sim.skipped, 0);
  expectLoadNear(sim.total_load, want.total_load);

  const Replay rtr = runOnRt(s, c.exec, c.mailbox_capacity);
  EXPECT_EQ(rtr.committed, want.selections);
  EXPECT_EQ(rtr.skipped, 0);
  expectLoadNear(rtr.total_load, want.total_load);
}

INSTANTIATE_TEST_SUITE_P(
    ExecutorAxis, RtExecutorAxis, ::testing::ValuesIn(execAxisCases()),
    [](const ::testing::TestParamInfo<ExecAxisCase>& i) {
      return std::string(core::mechanismKindName(i.param.kind)) + "_n" +
             std::to_string(i.param.nprocs) + "_" + i.param.exec.name;
    });

// ---- process axis ----------------------------------------------------------
//
// The third runtime: ranks as separate OS processes over Unix-domain
// sockets, state serialized through the versioned wire format. Same
// deterministic script as the executor axis at N=8, same invariants —
// plus the transport-level conservation identity the supervisor folds
// from the per-rank summaries (posted + duplicated == delivered +
// dropped on both channels) and a loss-free wire: no per-link FIFO gaps,
// no decode errors, every child's rank-local audit clean.

Replay runOnNet(const Script& s) {
  net::NetOptions opts;
  opts.transport = net::NetTransportKind::kUds;
  const net::NetRunReport rep = net::runMultiProcess(s, opts);

  EXPECT_TRUE(rep.ok) << "net run failed: " << rep.error;
  EXPECT_TRUE(rep.conservationHolds())
      << "state " << rep.state.posted << "+" << rep.state.duplicated
      << " != " << rep.state.delivered << "+" << rep.state.dropped;
  EXPECT_EQ(rep.seq_violations, 0) << "wire FIFO gaps on a loss-free run";
  EXPECT_EQ(rep.decode_errors, 0);
  EXPECT_EQ(rep.audit_violations, 0);
  for (const net::NetRankResult& r : rep.ranks) {
    EXPECT_EQ(r.exit_code, 0) << "rank " << r.rank << ": "
                              << r.first_violation;
  }
  // A fault-free plan must not drop or duplicate anything.
  EXPECT_EQ(rep.state.dropped, 0);
  EXPECT_EQ(rep.state.duplicated, 0);
  EXPECT_EQ(rep.work.posted, rep.work.delivered);

  Replay r;
  r.committed = rep.committed;
  r.skipped = rep.skipped;
  r.total_load = rep.total_load;
  r.mech_messages_sent = rep.mech_messages_sent;
  // What the mechanisms sent is exactly what the sockets carried.
  EXPECT_EQ(rep.mech_messages_sent, rep.state.posted);
  return r;
}

class RtProcessAxis : public ::testing::TestWithParam<core::MechanismKind> {};

TEST_P(RtProcessAxis, MultiProcessRunAgreesWithSimAndRt) {
  const Script s = scaleScript(8, GetParam());
  SCOPED_TRACE("kind=" + std::string(core::mechanismKindName(s.kind)));
  const ScriptExpectations want = harness::expectationsOf(s);

  const Replay sim = runOnSimulator(s);
  const Replay rtr = runOnRt(s);
  const Replay netr = runOnNet(s);

  // All three runtimes commit every scripted selection and agree on the
  // final load bookkeeping — the decision count and conservation claims
  // of the acceptance criteria.
  EXPECT_EQ(sim.committed, want.selections);
  EXPECT_EQ(rtr.committed, want.selections);
  EXPECT_EQ(netr.committed, want.selections);
  EXPECT_EQ(netr.skipped, sim.skipped);
  EXPECT_EQ(netr.skipped, rtr.skipped);
  expectLoadNear(sim.total_load, want.total_load);
  expectLoadNear(rtr.total_load, want.total_load);
  expectLoadNear(netr.total_load, want.total_load);
}

INSTANTIATE_TEST_SUITE_P(
    ProcessAxis, RtProcessAxis,
    ::testing::Values(MechanismKind::kNaive, MechanismKind::kIncrement,
                      MechanismKind::kSnapshot),
    [](const ::testing::TestParamInfo<core::MechanismKind>& i) {
      return std::string(core::mechanismKindName(i.param));
    });

// ---- the replay core's op rule ---------------------------------------------

/// One snapshot selection by rank 0 at t=0.5, after a load on every rank.
Script oneSnapshotSelection() {
  Script s;
  s.kind = MechanismKind::kSnapshot;
  for (Rank r = 0; r < s.nprocs; ++r) s.loads.push_back({0.1, r, {3.0, 1.0}});
  s.selections.push_back({0.5, 0, 12.0});
  return s;
}

// Every peer of the master is declared dead before its selection. The
// hardened snapshot completes at once on the empty quorum, the view has no
// eligible slave, and the skip must still commit an empty selection, or
// the snapshot never closes.
TEST(ReplayCore, SkippedSnapshotSelectionStillCommitsOnSimAndRt) {
  const Script s = oneSnapshotSelection();
  MechanismConfig mcfg = mechanismConfigOf(s);
  mcfg.reliability.snapshot_timeout_s = 0.05;
  const auto declarePeersDead = [&s](core::Mechanism& m) {
    for (Rank r = 1; r < s.nprocs; ++r) m.notePeerDead(r);
  };
  const auto expectOneEmptyCommit = [&s](const core::MechanismSet& mechs,
                                         std::int64_t committed,
                                         std::int64_t skipped) {
    EXPECT_EQ(committed, 0);
    EXPECT_EQ(skipped, 1);
    EXPECT_EQ(mechs.at(0).stats().selections, 1);
    for (Rank r = 0; r < s.nprocs; ++r)
      EXPECT_FALSE(mechs.at(r).blocksComputation()) << "snapshot live at " << r;
  };

  harness::CoreHarness h(s.nprocs, s.kind, mcfg);
  h.attachAuditor(auditorConfigOf(s));
  h.at(0.2, [&] { declarePeersDead(h.mechs.at(0)); });
  const harness::SimReplay replay(h, s);
  h.run();
  h.finishAudit();
  expectOneEmptyCommit(h.mechs, replay.tally(0).committed,
                       replay.tally(0).skipped);

  rt::RtConfig rcfg;
  rcfg.nprocs = s.nprocs;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind, mcfg);
  core::ProtocolAuditor auditor(auditorConfigOf(s));
  rt::RtAuditBinding audit_binding(auditor, mechs);
  for (Rank r = 0; r < s.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();
  // Rank 0's mailbox is FIFO: this runs before the driver's selection.
  world.post(0, [&] { declarePeersDead(mechs.at(0)); });
  const rt::WorkloadResult res = rt::WorkloadDriver(world, mechs).run(s);
  EXPECT_TRUE(res.drained);
  world.stop();
  auditor.finish();
  auditor.expectClean();
  expectOneEmptyCommit(mechs, res.selections_committed,
                       res.selections_skipped);
}

/// Records rank 0's scripted load changes ('L') and decisions ('S').
struct OrderProbe final : core::AuditObserver {
  std::string events;
  void onLocalLoad(const core::Mechanism&, const core::LoadMetrics&,
                   bool delegated) override {
    if (!delegated) events += 'L';
  }
  void onSelection(const core::Mechanism&,
                   const core::SlaveSelection&) override {
    events += 'S';
  }
};

// Loads scripted on a snapshot master between its selection and the view
// callback are not held behind the pending decision: on sim they apply
// while the snapshot gathers; on sim and net the load is conserved.
TEST(ReplayCore, MasterLoadsApplyWhileItsSnapshotIsPending) {
  Script s = oneSnapshotSelection();
  s.loads.push_back({0.5, 0, {7.0, 2.0}});  // same time, after the select
  s.loads.push_back({0.5, 0, {-1.5, 0.0}});
  const ScriptExpectations want = harness::expectationsOf(s);

  harness::CoreHarness h(s.nprocs, s.kind, mechanismConfigOf(s));
  OrderProbe probe;
  h.mechs.at(0).setAuditObserver(&probe);
  const harness::SimReplay replay(h, s);
  h.run();
  EXPECT_EQ(probe.events, "LLLS");
  EXPECT_EQ(replay.tally(0).committed, 1);
  core::LoadMetrics total;
  for (Rank r = 0; r < s.nprocs; ++r) total += h.mechs.at(r).localLoad();
  expectLoadNear(total, want.total_load);

  const Replay netr = runOnNet(s);
  EXPECT_EQ(netr.committed, 1);
  expectLoadNear(netr.total_load, want.total_load);
}

}  // namespace
}  // namespace loadex
