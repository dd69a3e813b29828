// Shared fault-injection plan types, runtime-agnostic.
//
// The paper analyses the mechanisms on a perfectly reliable platform; the
// repo scripts the imperfections a production deployment must survive:
// message loss / duplication / latency spikes on the links, scripted
// per-link blackout windows, and process-level crash / pause / restart
// events. These plan types are pure data — the simulator
// (sim/network.cpp + sim/process.cpp) interprets them deterministically against virtual
// time, and the real-threads runtime (rt/faults.h + rt/world.cpp)
// interprets the same plan against wall-clock seconds since start().
// Everything is seeded; with the default (inert) plan no random draw is
// ever taken.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace loadex {

/// A scripted outage of one directed link (or a set of links, using
/// kNoRank as a wildcard): every message *sent* on a matching link inside
/// [start, end) is silently discarded. Used by the adversarial tests to
/// drop one specific protocol message at a known instant.
struct LinkBlackout {
  Rank src = kNoRank;  ///< sender rank, kNoRank = any
  Rank dst = kNoRank;  ///< receiver rank, kNoRank = any
  SimTime start = 0.0;
  SimTime end = 0.0;   ///< half-open window [start, end)

  bool matches(Rank s, Rank d, SimTime t) const {
    return (src == kNoRank || src == s) && (dst == kNoRank || dst == d) &&
           t >= start && t < end;
  }
};

/// Per-message random faults plus scripted blackouts. The default plan is
/// inert: no random draw is ever taken and the run is bit-for-bit
/// identical to a fault-free one.
struct FaultPlan {
  /// Probability that a message is dropped in transit.
  double drop_prob = 0.0;

  /// Probability that a message is delivered twice (the copy arrives one
  /// extra latency later, FIFO order preserved).
  double duplicate_prob = 0.0;

  /// Probability that a message suffers an extra `latency_spike_s` delay.
  double latency_spike_prob = 0.0;
  double latency_spike_s = 0.0;

  /// Which channels the random faults and blackouts apply to. State-only
  /// faults isolate the load-exchange protocols (the object of study)
  /// while keeping the application's task traffic intact.
  bool affects_state = true;
  bool affects_app = true;

  /// Scripted outages, checked at send time.
  std::vector<LinkBlackout> blackouts;

  /// Seed of the dedicated fault RNG stream (independent from the jitter
  /// stream, so enabling faults does not perturb jitter draws).
  std::uint64_t seed = 0xfa017ed;

  bool enabled() const {
    return drop_prob > 0.0 || duplicate_prob > 0.0 ||
           latency_spike_prob > 0.0 || !blackouts.empty();
  }
};

/// One scripted process-level fault event.
struct ProcessFaultEvent {
  enum class Kind {
    kCrash,    ///< fail-stop: queues flushed, in-flight messages to it lost
    kPause,    ///< slow-node stall: stops computing, messages keep queueing
    kResume,   ///< end of a pause
    kRestart,  ///< crashed process comes back (in-flight state was lost)
  };

  Rank rank = 0;
  SimTime time = 0.0;
  Kind kind = Kind::kCrash;
};

inline const char* processFaultKindName(ProcessFaultEvent::Kind k) {
  switch (k) {
    case ProcessFaultEvent::Kind::kCrash: return "crash";
    case ProcessFaultEvent::Kind::kPause: return "pause";
    case ProcessFaultEvent::Kind::kResume: return "resume";
    case ProcessFaultEvent::Kind::kRestart: return "restart";
  }
  return "?";
}

}  // namespace loadex
