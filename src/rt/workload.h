// rt::WorkloadDriver — replays harness::Script plans on a running RtWorld.
//
// The driver thread walks the script through the shared replay core
// (harness::ScriptReplay, harness/replay.h), flooding (time_scale 0) or
// paced at `time_scale` real seconds per script second, each op at its
// absolute deadline from the first op so sleep overshoots do not add up.
// Its host seam posts every op onto the owning rank: loads as plain
// closures, selections and No_more_master via postWhenFree, delegated work
// as a task envelope to the chosen slave. The driver only ever names ranks
// (which OS thread runs an op is the executor's business) and takes no
// lock: each master's tally is written by its owner and read after drain.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/binding.h"
#include "harness/replay.h"
#include "rt/world.h"

namespace loadex::rt {

struct WorkloadResult {
  bool drained = false;               ///< reached quiescence in time
  std::int64_t selections_committed = 0;
  std::int64_t selections_skipped = 0;  ///< no eligible slave in the view
  core::LoadMetrics total_load;       ///< Σ final localLoad() (if drained)
  double wall_s = 0.0;                ///< replay + drain, world-clock
  std::vector<double> selection_latency_s;  ///< view latencies (if drained)
};

class WorkloadDriver {
 public:
  WorkloadDriver(RtWorld& world, core::MechanismSet& mechs)
      : host_{world, mechs} {}
  WorkloadDriver(const WorkloadDriver&) = delete;  // closures hold `this`
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  /// Replay the script and drain. Call between world.start() and
  /// world.stop(), from a driver thread (never from inside a rank).
  WorkloadResult run(const harness::Script& script, double time_scale = 0.0,
                     double drain_timeout_s = 30.0);

 private:
  /// The replay core's host seam on an RtWorld.
  struct Host {
    RtWorld& world;
    core::MechanismSet& mechs;

    template <typename Fn>
    void runNow(Rank r, Fn fn) {
      world.post(r, [this, r, fn = std::move(fn)] { fn(mechs.at(r)); });
    }
    template <typename Fn>
    void runWhenFree(Rank r, Fn fn) {
      world.postWhenFree(r,
                         [this, r, fn = std::move(fn)] { fn(mechs.at(r)); });
    }
    void delegate(Rank master, Rank slave, double share) {
      world.postTask(master, slave, [this, slave, share] {
        mechs.at(slave).addLocalLoad({share, 0.0},
                                     /*is_slave_delegated=*/true);
      });
    }
    SimTime now() const { return world.now(); }
  };

  Host host_;
  /// Outlives run(): closures of an undrained run may still reach it.
  std::unique_ptr<harness::ScriptReplay<Host>> replay_;
};

}  // namespace loadex::rt
