// Stress test of the rt runtime, intended primarily for ThreadSanitizer:
// 8-32 ranks flooding tens of thousands of mailbox messages through a
// random mix of mechanisms, with selections and No_more_master
// announcements racing the load storm. Assertions are conservation-only
// (the same invariants as test_rt_differential, against the sim replay's
// expectations) — the point is that TSan observes every cross-thread edge
// of the mailbox, the timer wheel deferrals and the drain protocol under
// real contention.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "harness/script.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "rt/workload.h"
#include "rt/world.h"

namespace loadex {
namespace {

using core::MechanismKind;
using harness::Script;

/// A deliberately hostile script: low threshold so nearly every load
/// change crosses it (naive broadcasts to nprocs-1 ranks each time),
/// several selections per master, all timestamps compressed so the driver
/// floods the world with zero pacing.
Script stressScript(std::uint64_t seed, int nprocs, MechanismKind kind) {
  Rng rng(seed);
  Script s;
  s.seed = seed;
  s.nprocs = nprocs;
  s.kind = kind;
  s.hardened = kind == MechanismKind::kIncrement && rng.uniformInt(2) == 0;
  s.threshold = 1.0;

  const int nloads = nprocs * 40;
  for (int i = 0; i < nloads; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0),
                       static_cast<Rank>(rng.uniformInt(
                           static_cast<std::uint64_t>(nprocs))),
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});

  for (int i = 0; i < 8; ++i)
    s.selections.push_back({rng.uniformReal(0.3, 0.9),
                            static_cast<Rank>(rng.uniformInt(
                                static_cast<std::uint64_t>(nprocs))),
                            rng.uniformReal(5.0, 40.0)});

  if (rng.uniformInt(3) == 0) {
    s.no_more_master = static_cast<Rank>(
        rng.uniformInt(static_cast<std::uint64_t>(nprocs)));
    s.no_more_master_at = rng.uniformReal(0.6, 0.9);
  }
  return s;
}

struct StressCase {
  std::uint64_t seed;
  int nprocs;
  MechanismKind kind;
};

class RtStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(RtStress, FloodsStayConservativeAndTSanClean) {
  const StressCase& c = GetParam();
  const Script s = stressScript(c.seed, c.nprocs, c.kind);
  SCOPED_TRACE("seed=" + std::to_string(c.seed) +
               " nprocs=" + std::to_string(c.nprocs) +
               " kind=" + core::mechanismKindName(c.kind));

  rt::RtConfig rcfg;
  rcfg.nprocs = c.nprocs;
  // Small mailboxes force the full-mailbox spill path under the storm.
  rcfg.mailbox.capacity = 256;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind,
                           [&] {
                             core::MechanismConfig m;
                             m.threshold = {s.threshold, s.threshold};
                             m.reliability.reliable_updates = s.hardened;
                             return m;
                           }());
  for (Rank r = 0; r < c.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();

  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(s, /*time_scale=*/0.0, /*drain_timeout_s=*/120.0);
  world.stop();

  ASSERT_TRUE(res.drained) << "rt world failed to quiesce under load";
  EXPECT_EQ(res.selections_committed + res.selections_skipped,
            static_cast<std::int64_t>(s.selections.size()));

  const rt::RtRunStats st = world.runStats();
  EXPECT_EQ(st.state_posted, st.state_delivered);
  EXPECT_EQ(st.task_posted, st.task_delivered);
  EXPECT_EQ(st.timers_armed, st.timers_fired);
  // The storm must be a real storm: naive/increment broadcast threshold
  // crossings to every peer, so state traffic dwarfs the op count. (The
  // snapshot mechanism is demand-driven — its traffic scales with the
  // selections, not the load changes.)
  if (s.kind != MechanismKind::kSnapshot) {
    EXPECT_GT(st.state_posted, static_cast<std::int64_t>(s.loads.size()));
  }

  const harness::ScriptExpectations want = harness::expectationsOf(s);
  const double tol =
      1e-9 * (1.0 + std::abs(want.total_load.workload));
  EXPECT_NEAR(res.total_load.workload, want.total_load.workload, tol);
}

std::string stressName(const ::testing::TestParamInfo<StressCase>& info) {
  const StressCase& c = info.param;
  return std::string(core::mechanismKindName(c.kind)) + "_n" +
         std::to_string(c.nprocs);
}

INSTANTIATE_TEST_SUITE_P(
    Mix, RtStress,
    ::testing::Values(
        StressCase{11, 8, MechanismKind::kNaive},
        StressCase{12, 16, MechanismKind::kIncrement},
        StressCase{13, 32, MechanismKind::kNaive},
        StressCase{14, 12, MechanismKind::kSnapshot},
        StressCase{15, 8, MechanismKind::kIncrement},
        StressCase{16, 16, MechanismKind::kNaive},
        StressCase{17, 8, MechanismKind::kSnapshot}),
    stressName);

// The obs layer attaches to an rt run unchanged: every rank thread then
// records trace events and metrics concurrently (the recorder and the
// registry serialise internally). This is the TSan coverage for those
// locks — the assertion itself only needs the session to have been used.
TEST(RtStress, ObservedFloodRecordsFromEveryRankThread) {
  const Script s = stressScript(/*seed=*/21, /*nprocs=*/12,
                                MechanismKind::kSnapshot);

  obs::TraceRecorder recorder;
  recorder.nameRankTracks(s.nprocs);
  obs::MetricsRegistry metrics;
  obs::ScopedObservation observe(&recorder, &metrics);

  rt::RtConfig rcfg;
  rcfg.nprocs = s.nprocs;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), s.kind,
                           [&] {
                             core::MechanismConfig m;
                             m.threshold = {s.threshold, s.threshold};
                             return m;
                           }());
  for (Rank r = 0; r < s.nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();
  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(s, /*time_scale=*/0.0, /*drain_timeout_s=*/120.0);
  world.stop();

  ASSERT_TRUE(res.drained);
  // The snapshot mechanism traces its protocol lane and records the
  // duration histogram; with 8 selections both must have fired.
  EXPECT_GT(recorder.recorded(), 0u);
  const auto* hist = metrics.findHistogram("snapshot/duration_s");
  ASSERT_NE(hist, nullptr);
  EXPECT_GT(hist->count(), 0);
}

}  // namespace
}  // namespace loadex
