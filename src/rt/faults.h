// Fault injection and supervision plan for the real-threads runtime.
//
// The simulator's fault plan (common/faults.h) on real threads: the
// shared message-fault plan is applied at RtTransport send time, and the
// process events become actual rank lifecycle transitions — a crashed
// rank's mailbox is sealed and its timers/spill are torn down, a paused
// rank idles without consuming envelopes, a restarted rank is revived
// plus a rejoin resync so it re-enters with a coherent load view. These
// are shard-local state flips: no thread starts or exits.
//
// Spill-hold FIFO ownership: a latency spike holds an envelope in the
// *sender's* per-destination spill queue with a release time, so it can
// never overtake later sends on the same (src,dst) pair. The queue's
// correctness rule is single-OWNER, not single-thread: whoever owns the
// rank (holds its shard lock) enqueues and flushes.
// Under work-stealing the flushing worker is routinely a different OS
// thread from the one that enqueued — per-pair FIFO and the release-time
// gate must hold across that handoff (RtWorld::assertSenderOwned is the
// debug backstop; test_rt_executor pins the behaviour).
//
// Everything here is off by default. With the default plan RtWorld takes
// no fault branch at all: the clean path is bit-identical (same digests,
// same RtRunStats) to the pre-fault-layer runtime.
//
// Timebase: every `time` in the plan is wall-clock seconds since
// RtWorld::start(), i.e. the same axis as RtTransport::now().
#pragma once

#include <vector>

#include "common/faults.h"
#include "common/types.h"

namespace loadex::rt {

/// Lifecycle of one rank (written by the supervisor/driver, read by every
/// sender — stored as an atomic inside RtWorld::Node).
enum class RankLife : int {
  kAlive = 0,
  kPaused,   ///< parked: envelopes queue, nothing is consumed
  kCrashed,  ///< torn down, mailbox sealed: sends to it are dropped
};

inline const char* rankLifeName(RankLife s) {
  switch (s) {
    case RankLife::kAlive: return "alive";
    case RankLife::kPaused: return "paused";
    case RankLife::kCrashed: return "crashed";
  }
  return "?";
}

/// What the failure detector believes about a peer. Advisory: suspicion is
/// derived from heartbeat age, so a merely-slow rank can be suspected and
/// later cleared. Death is authoritative only for crashed ranks.
enum class Suspicion : int { kAlive = 0, kSuspect, kDead };

/// Heartbeat-based failure detection knobs. Each node publishes a
/// heartbeat timestamp on every loop turn; the supervisor classifies a
/// rank by the age of its last heartbeat and broadcasts transitions to
/// the surviving mechanisms (notePeerSuspect / notePeerDead /
/// notePeerAlive).
struct SuspicionConfig {
  bool enabled = false;
  double suspect_after_s = 10e-3;  ///< heartbeat age before "suspect"
  double dead_after_s = 50e-3;     ///< heartbeat age before "dead"
  double sweep_period_s = 1e-3;    ///< supervisor loop period
};

/// The full rt fault plan: message faults + scripted lifecycle events +
/// failure-detection settings.
struct FaultPlan {
  /// Per-send message faults (drop / duplicate / latency spike /
  /// blackouts), drawn from a per-sender seeded RNG stream.
  loadex::FaultPlan messages;

  /// Scripted crash / pause / resume / restart events, executed by the
  /// supervisor thread at `time` seconds after start().
  std::vector<loadex::ProcessFaultEvent> process;

  /// Failure detection (off by default even when other faults are on).
  SuspicionConfig suspicion;

  /// After restarting a crashed rank, run the rejoin resync protocol
  /// (authoritative load exchange with every surviving peer) so its view
  /// and the peers' views of it are coherent again.
  bool resync_on_restart = true;

  /// Unlock the lifecycle hooks (crashRank / pauseRank / ...) for direct
  /// calls from a test driver without scripting events or starting a
  /// supervisor.
  bool manual_control = false;

  /// Any fault machinery requested? When false RtWorld compiles the plan
  /// away at start(): no per-send branch, no supervisor, no lifecycle
  /// checks — the clean path stays bit-identical.
  bool enabled() const {
    return messages.enabled() || !process.empty() || suspicion.enabled ||
           manual_control;
  }

  /// Does this plan need the supervisor thread?
  bool needsSupervisor() const {
    return !process.empty() || suspicion.enabled;
  }
};

}  // namespace loadex::rt
