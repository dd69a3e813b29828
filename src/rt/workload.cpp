#include "rt/workload.h"

#include "common/expect.h"
#include "rt/clock.h"

namespace loadex::rt {

WorkloadResult WorkloadDriver::run(const harness::Script& script,
                                   double time_scale,
                                   double drain_timeout_s) {
  RtWorld& world = host_.world;
  LOADEX_EXPECT(world.running(), "WorkloadDriver needs a started world");
  LOADEX_EXPECT(world.nprocs() == script.nprocs &&
                    host_.mechs.size() == script.nprocs,
                "script/world size mismatch");

  replay_ = std::make_unique<harness::ScriptReplay<Host>>(host_, script);
  harness::ScriptReplay<Host>& replay = *replay_;
  const SimTime t_start = world.now();
  const SimTime first = replay.done() ? 0.0 : replay.nextTime();
  while (!replay.done()) {
    // Sleep to the op's absolute deadline, not for the gap since the
    // previous op: every sleep overshoots, and relative sleeps would add
    // the overshoots up over the whole script.
    if (time_scale > 0.0)
      MonotonicClock::sleepFor(t_start + (replay.nextTime() - first) *
                                             time_scale -
                               world.now());
    replay.applyNext();
  }

  WorkloadResult res;
  res.drained = world.drain(drain_timeout_s);
  res.wall_s = world.now() - t_start;
  if (res.drained) {
    // Quiescent (pending == 0 read with acquire ordering): every node's
    // final state and every master's tally is visible to this thread.
    for (Rank r = 0; r < host_.mechs.size(); ++r) {
      const harness::SelectionTally& t = replay.tally(r);
      res.selections_committed += t.committed;
      res.selections_skipped += t.skipped;
      res.selection_latency_s.insert(res.selection_latency_s.end(),
                                     t.latency_s.begin(), t.latency_s.end());
      res.total_load += host_.mechs.at(r).localLoad();
    }
  }
  return res;
}

}  // namespace loadex::rt
