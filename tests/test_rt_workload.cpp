// WorkloadDriver pacing: a paced replay (time_scale > 0) posts each op at
// its absolute deadline, t_start + (op.time - first op time) * time_scale.
//
// Sleeping the relative gap between consecutive ops instead lets every
// sleep's overshoot (the OS wakes a sleeper late by tens of µs) add up
// over the script, so a script of many short gaps replays several times
// slower than scheduled. This test replays exactly such a script and
// bounds the replay time by a small multiple of the scheduled span.
#include <gtest/gtest.h>

#include "core/binding.h"
#include "harness/script.h"
#include "rt/workload.h"
#include "rt/world.h"

namespace loadex::rt {
namespace {

TEST(RtWorkloadPacing, AbsoluteDeadlinesDoNotAccumulateOversleep) {
  constexpr int kProcs = 4;
  constexpr int kOps = 2000;
  constexpr double kGapS = 50e-6;
  constexpr double kSpanS = (kOps - 1) * kGapS;  // 0.1 s at time_scale 1

  harness::Script s;
  s.nprocs = kProcs;
  s.kind = core::MechanismKind::kNaive;
  s.threshold = 1e12;  // no threshold crossings: the ops are all there is
  for (int i = 0; i < kOps; ++i)
    s.loads.push_back({i * kGapS, i % kProcs, {1.0, 0.0}});

  RtConfig rcfg;
  rcfg.nprocs = kProcs;
  rcfg.executor.workers = 1;
  RtWorld world(rcfg);
  core::MechanismConfig mcfg;
  mcfg.threshold = {s.threshold, s.threshold};
  core::MechanismSet mechs(world.transports(), s.kind, mcfg);
  for (Rank r = 0; r < kProcs; ++r) world.attach(r, &mechs.at(r));
  world.start();

  WorkloadDriver driver(world, mechs);
  const WorkloadResult res =
      driver.run(s, /*time_scale=*/1.0, /*drain_timeout_s=*/30.0);
  world.stop();

  ASSERT_TRUE(res.drained);
  EXPECT_NEAR(res.total_load.workload, kOps, 1e-9 * kOps);
  // Never early: the last op is not posted before its deadline.
  EXPECT_GE(res.wall_s, kSpanS);
  // Relative sleeps pay ~kOps oversleeps and take well over twice the
  // span; absolute deadlines pay about one.
  EXPECT_LT(res.wall_s, 1.5 * kSpanS)
      << "paced replay drifted behind its schedule";
}

}  // namespace
}  // namespace loadex::rt
