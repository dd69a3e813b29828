// Randomized differential harness for the pooled/lazy simulation kernel.
//
// Every scenario draws a world size, mechanism kind, thresholds, jitter and
// message-fault configuration from a seeded RNG, builds the identical
// scripted workload (a harness::Script replayed by harness::SimReplay, plus
// plain compute tasks) twice — once with NetworkConfig::legacy_kernel (each
// broadcast destination scheduled as its own event, the pre-pool kernel's
// behaviour) and once with the lazy logical-broadcast fast path — and
// asserts the two runs are observably identical: same schedule digest,
// same makespan, same event count, same per-channel message counts and
// wire bytes, same fault statistics. A ProtocolAuditor rides along on both
// runs and must stay clean.
//
// This is the safety net that lets the kernel optimise representation
// (slab pool, 4-ary heap, O(1) broadcast enqueue) while proving it never
// changes *what* the simulator computes.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "harness/world_harness.h"

namespace loadex {
namespace {

using core::MechanismKind;

// ---- scenario plan --------------------------------------------------------

struct TaskOp {
  SimTime time = 0.0;
  Rank rank = 0;
  Flops work = 0.0;
};

/// A Script (loads, selections, No_more_master) plus the kernel knobs and
/// plain compute tasks this suite varies on top of it.
struct Scenario : harness::Script {
  double jitter_s = 0.0;
  FaultPlan faults;
  std::vector<TaskOp> tasks;
};

/// harness::drawScript's plan (at up to 32 ranks), then jitter, faults and
/// tasks from a second stream of the same seed.
Scenario drawScenario(std::uint64_t seed) {
  Scenario s;
  static_cast<harness::Script&>(s) = harness::drawScript(seed, 4, 32);
  Rng rng(seed ^ 0x5ca1edULL);
  if (rng.uniformInt(2) == 0) s.jitter_s = rng.uniformReal(1e-6, 1e-4);

  // One scenario in three runs on a lossy network. The snapshot protocol
  // has no recovery from a lost start_snp (the paper assumes MPI
  // reliability), so faults stay on the two update-style mechanisms.
  if (rng.uniformInt(3) == 0 && s.kind != MechanismKind::kSnapshot) {
    s.faults.drop_prob = rng.uniformReal(0.0, 0.08);
    s.faults.duplicate_prob = rng.uniformReal(0.0, 0.08);
    s.faults.latency_spike_prob = rng.uniformReal(0.0, 0.1);
    s.faults.latency_spike_s = rng.uniformReal(1e-5, 1e-3);
    s.faults.seed = seed * 0x9e3779b97f4a7c15ULL + 1;
    // State-only faults: a duplicated *app* message would double-apply
    // delegated work and trip the auditor's reservation accounting.
    s.faults.affects_app = false;
    if (rng.uniformInt(2) == 0) {
      const SimTime start = rng.uniformReal(0.1, 0.5);
      s.faults.blackouts.push_back(
          {kNoRank, static_cast<Rank>(rng.uniformInt(
                        static_cast<std::uint64_t>(s.nprocs))),
           start, start + rng.uniformReal(0.05, 0.2)});
    }
  }

  const auto n = static_cast<std::uint64_t>(s.nprocs);
  const int ntasks = s.nprocs + static_cast<int>(rng.uniformInt(12));
  for (int i = 0; i < ntasks; ++i)
    s.tasks.push_back({rng.uniformReal(0.01, 0.8),
                       static_cast<Rank>(rng.uniformInt(n)),
                       rng.uniformReal(1e3, 5e5)});
  return s;
}

// ---- running one kernel ---------------------------------------------------

struct Observed {
  std::uint64_t digest = 0;
  SimTime end_time = 0.0;
  std::uint64_t events = 0;
  std::map<std::string, std::int64_t> counts;
  Bytes bytes_sent = 0;
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  std::int64_t spikes = 0;
  sim::BroadcastPathStats bcast;
  sim::PoolStats pool;
};

Observed runScenario(const Scenario& s, bool legacy_kernel) {
  sim::WorldConfig wcfg;
  wcfg.network.jitter_s = s.jitter_s;
  wcfg.network.faults = s.faults;
  wcfg.network.legacy_kernel = legacy_kernel;
  core::MechanismConfig mcfg;
  mcfg.threshold = {s.threshold, s.threshold};
  mcfg.reliability.reliable_updates = s.hardened;
  harness::CoreHarness h(s.nprocs, s.kind, mcfg, wcfg);

  core::AuditorConfig acfg;
  acfg.allow_message_loss = s.faults.enabled();
  acfg.check_snapshot = !s.faults.enabled();
  // A rank that announced No_more_master stops receiving updates, so its
  // own view goes legitimately stale — the conservation invariant only
  // holds scenario-wide without that optimisation.
  acfg.check_conservation = s.no_more_master == kNoRank;
  h.attachAuditor(acfg);

  for (const TaskOp& op : s.tasks)
    h.at(op.time, [&h, op] {
      h.app.pushTask(op.rank, op.work);
      h.world.process(op.rank).notifyReadyWork();
    });
  const harness::SimReplay replay(h, s);

  const sim::RunResult res = h.run();
  h.finishAudit();

  Observed o;
  o.digest = res.schedule_digest;
  o.end_time = res.end_time;
  o.events = res.events;
  o.counts = h.world.network().messageCounts().all();
  o.bytes_sent = h.world.network().bytesSent();
  o.dropped = res.messages_dropped;
  o.duplicated = res.messages_duplicated;
  o.spikes = res.latency_spikes;
  o.bcast = h.world.network().broadcastStats();
  o.pool = h.world.queue().poolStats();
  return o;
}

// ---- the differential property --------------------------------------------

class ScaleDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScaleDifferential, LazyKernelIsObservablyIdenticalToLegacy) {
  const Scenario s = drawScenario(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(s.seed) +
               " nprocs=" + std::to_string(s.nprocs) +
               " kind=" + core::mechanismKindName(s.kind) +
               (s.hardened ? " hardened" : "") +
               (s.faults.enabled() ? " faults" : ""));

  const Observed legacy = runScenario(s, /*legacy_kernel=*/true);
  const Observed lazy = runScenario(s, /*legacy_kernel=*/false);

  EXPECT_EQ(legacy.digest, lazy.digest);
  EXPECT_DOUBLE_EQ(legacy.end_time, lazy.end_time);
  EXPECT_EQ(legacy.events, lazy.events);
  EXPECT_EQ(legacy.counts, lazy.counts);
  EXPECT_EQ(legacy.bytes_sent, lazy.bytes_sent);
  EXPECT_EQ(legacy.dropped, lazy.dropped);
  EXPECT_EQ(legacy.duplicated, lazy.duplicated);
  EXPECT_EQ(legacy.spikes, lazy.spikes);

  // The legacy escape hatch never coalesces; the lazy path accounts every
  // coalesced delivery it fans out.
  EXPECT_EQ(legacy.bcast.logical_broadcasts, 0);
  EXPECT_GE(lazy.bcast.fanout_deliveries, lazy.bcast.logical_broadcasts);
  EXPECT_EQ(lazy.pool.broadcast_deliveries,
            static_cast<std::uint64_t>(lazy.bcast.fanout_deliveries));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScaleDifferential,
                         ::testing::Range<std::uint64_t>(1, 51));

// A plain threshold-crossing broadcast storm must actually take the lazy
// path (the differential property above would trivially hold if
// broadcast() always fell back to per-destination sends).
TEST(ScaleDifferential, LazyPathEngagesOnBroadcastStorms) {
  Rng rng(1234);
  Scenario s;
  s.kind = MechanismKind::kNaive;
  s.nprocs = 24;
  s.threshold = 1.0;
  for (int i = 0; i < 120; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0),
                       static_cast<Rank>(rng.uniformInt(24)),
                       {rng.uniformReal(2.0, 24.0), 0.0}});
  const Observed lazy = runScenario(s, /*legacy_kernel=*/false);
  EXPECT_GT(lazy.bcast.logical_broadcasts, 0);
  EXPECT_GT(lazy.bcast.fanout_deliveries, lazy.bcast.logical_broadcasts);
  // Fan-out deliveries cost zero extra pool nodes, so the pooled kernel
  // allocates far fewer nodes than the legacy one for the same schedule.
  const Observed legacy = runScenario(s, /*legacy_kernel=*/true);
  EXPECT_LT(lazy.pool.node_allocations, legacy.pool.node_allocations);
  EXPECT_EQ(lazy.digest, legacy.digest);
}

}  // namespace
}  // namespace loadex
