// rt::WorkloadDriver — replays harness::Script plans on a running RtWorld.
//
// The driver thread walks the script in time order (optionally paced at
// `time_scale` real seconds per script second, each op posted at its
// absolute deadline from the first op so sleep overshoots do not add up;
// 0 floods the world as fast as backpressure allows) and posts every op
// onto the owning rank: load changes as plain closures, selections
// deferred while a live snapshot blocks the master, delegated work as a
// task envelope to the chosen slave. Which OS thread runs an op is the
// executor's business (any worker holding the rank's shard lock) — the
// driver only ever names ranks. The scheduling policy is the shared
// harness::leastLoadedSlave, so a sim replay of the same script commits
// the same number of selections and injects the same total load — the
// invariants tests/test_rt_differential.cpp checks.
#pragma once

#include <cstdint>
#include <vector>

#include "common/sync.h"
#include "core/binding.h"
#include "harness/script.h"
#include "rt/world.h"

namespace loadex::rt {

struct WorkloadResult {
  bool drained = false;               ///< reached quiescence in time
  std::int64_t selections_committed = 0;
  std::int64_t selections_skipped = 0;  ///< no eligible slave in the view
  core::LoadMetrics total_load;       ///< Σ final localLoad() (if drained)
  double wall_s = 0.0;                ///< replay + drain, world-clock
  std::vector<double> selection_latency_s;  ///< requestView → view cb
};

class WorkloadDriver {
 public:
  WorkloadDriver(RtWorld& world, core::MechanismSet& mechs)
      : world_(world), mechs_(mechs) {}

  /// Replay the script and drain. Call between world.start() and
  /// world.stop(), from a driver thread (never from inside a rank).
  WorkloadResult run(const harness::Script& script, double time_scale = 0.0,
                     double drain_timeout_s = 30.0);

 private:
  void postLoad(const harness::ScriptLoadOp& op);
  void postSelection(const harness::ScriptSelectOp& op);

  RtWorld& world_;
  core::MechanismSet& mechs_;

  /// Tally lock: node owners report selection outcomes in from their
  /// view callbacks — under M:N that is a worker already holding a
  /// kShard lock, which is why kWorkloadTally ranks above kShard.
  /// Nothing nests inside it.
  sync::Mutex mu_{sync::LockRank::kWorkloadTally};
  std::int64_t committed_ LOADEX_GUARDED_BY(mu_) = 0;
  std::int64_t skipped_ LOADEX_GUARDED_BY(mu_) = 0;
  std::vector<double> latencies_ LOADEX_GUARDED_BY(mu_);
};

}  // namespace loadex::rt
