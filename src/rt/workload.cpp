#include "rt/workload.h"

#include <utility>

#include "common/expect.h"
#include "harness/replay.h"
#include "rt/clock.h"

namespace loadex::rt {

void WorkloadDriver::postLoad(const harness::ScriptLoadOp& op) {
  world_.post(op.rank, [this, op] {
    mechs_.at(op.rank).addLocalLoad(op.delta);
  });
}

void WorkloadDriver::postSelection(const harness::ScriptSelectOp& op) {
  world_.postWhenFree(op.master, [this, op] {
    auto& m = mechs_.at(op.master);
    const SimTime t0 = world_.now();
    harness::selectAndCommit(
        m, {op.share, 0.0},
        [this, op, t0](const core::LoadView&, Rank slave) {
          const double latency = world_.now() - t0;
          {
            const sync::MutexLock lk(mu_);
            ++committed_;
            latencies_.push_back(latency);
          }
          // The delegated work travels to the slave as a task envelope;
          // its load lands with is_slave_delegated so the slave does not
          // self-report what the master's reservation already announced.
          world_.postTask(op.master, slave,
                          [this, slave, share = op.share] {
                            mechs_.at(slave).addLocalLoad(
                                {share, 0.0}, /*is_slave_delegated=*/true);
                          });
        },
        [this, t0](const core::LoadView&) {
          // Degraded decision: every peer is dead or untrusted in this
          // view, so the work stays local (the empty commit already
          // closed the view — see harness::selectAndCommit).
          const double latency = world_.now() - t0;
          const sync::MutexLock lk(mu_);
          ++skipped_;
          latencies_.push_back(latency);
        });
  });
}

WorkloadResult WorkloadDriver::run(const harness::Script& script,
                                   double time_scale,
                                   double drain_timeout_s) {
  LOADEX_EXPECT(world_.running(), "WorkloadDriver needs a started world");
  LOADEX_EXPECT(world_.nprocs() == script.nprocs &&
                    mechs_.size() == script.nprocs,
                "script/world size mismatch");

  const std::vector<harness::ScriptOpRef> ops =
      harness::orderedScriptOps(script);

  const SimTime t_start = world_.now();
  const SimTime first = ops.empty() ? 0.0 : ops.front().time;
  for (const harness::ScriptOpRef& op : ops) {
    // Sleep to the op's absolute deadline, not for the gap since the
    // previous op: every sleep overshoots, and relative sleeps would add
    // the overshoots up over the whole script.
    if (time_scale > 0.0)
      MonotonicClock::sleepFor(t_start + (op.time - first) * time_scale -
                               world_.now());
    switch (op.what) {
      case harness::ScriptOpRef::What::kLoad:
        postLoad(script.loads[op.index]);
        break;
      case harness::ScriptOpRef::What::kSelect:
        postSelection(script.selections[op.index]);
        break;
      case harness::ScriptOpRef::What::kNoMoreMaster:
        world_.postWhenFree(script.no_more_master,
                            [this, r = script.no_more_master] {
                              mechs_.at(r).noMoreMaster();
                            });
        break;
    }
  }

  WorkloadResult res;
  res.drained = world_.drain(drain_timeout_s);
  res.wall_s = world_.now() - t_start;
  {
    const sync::MutexLock lk(mu_);
    res.selections_committed = committed_;
    res.selections_skipped = skipped_;
    res.selection_latency_s = latencies_;
  }
  if (res.drained) {
    // Quiescent (pending == 0 read with acquire ordering): every node's
    // final state is visible to this thread.
    for (Rank r = 0; r < mechs_.size(); ++r)
      res.total_load += mechs_.at(r).localLoad();
  }
  return res;
}

}  // namespace loadex::rt
