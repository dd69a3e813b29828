// Seeded selection scripts and their replay on an rt world, shared by the
// rt workloads and by net_flood (which replays its scripts in-process once
// to capture the payload mix its wire codec carries).
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "harness/script.h"
#include "rt/world.h"

namespace perfbench {

struct RtShape {
  int nprocs;
  int workers;
  std::size_t mailbox_capacity;  ///< 0: the rt default
  double time_scale;             ///< wall seconds per script second; 0 floods
  int loads;                     ///< load changes per script
  int selections;                ///< master selections per script
  double threshold;
};

/// One script per mechanism of kMechanismCycle, on sub-seeds of `seed`.
/// Script ops fall in [0, 1) script seconds.
std::vector<loadex::harness::Script> makeCycle(const RtShape& shape,
                                               std::uint64_t seed);

/// One script replayed on a fresh world, construction to stop.
struct ScriptRun {
  double wall_s = 0.0;       ///< world construction to stop() returning
  double replay_s = 0.0;     ///< WorkloadDriver::run (replay + drain)
  double scheduled_s = 0.0;  ///< the script's paced span, 0 when flooded
  double start_s = 0.0;      ///< RtWorld::start
  double stop_s = 0.0;       ///< RtWorld::stop
  loadex::rt::RtRunStats stats;
  std::vector<double> latency_s;  ///< requestView -> view callback
  // Seam wrappers (traced replays only):
  std::int64_t on_state_calls = 0, on_state_ns = 0;
  std::int64_t send_calls = 0, send_ns = 0;
  std::vector<TimedTransport::Sent> captured;
};

/// Replay `s` and check it: the world drains, every selection commits or
/// is skipped, both channels conserve messages and the total load is the
/// scripted one. With `spans` set the core seams are wrapped and timed;
/// `capture` > 0 also keeps up to that many sent payloads per rank.
ScriptRun replayScript(const RtShape& shape, const loadex::harness::Script& s,
                       Report& report, SpanLog* spans,
                       std::size_t capture = 0);

}  // namespace perfbench
