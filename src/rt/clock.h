// The real-threads runtime's one and only window onto host time.
//
// The simulator is deterministic by construction: loadex-lint bans the
// <chrono> clocks everywhere in src/. The rt runtime, by contrast, *is*
// wall-clock driven — mechanisms ask Transport::now() for timestamps and
// arm real timers — so the ban needs a single, auditable escape hatch.
// That hatch is this pair of files: only src/rt/clock.{h,cpp} may name a
// std::chrono clock (the lint rule whitelists exactly these two paths),
// and everything else in src/rt speaks seconds-since-origin doubles,
// which slot directly into the SimTime-typed Transport interface.
#pragma once

#include <cstdint>

#include "common/types.h"

namespace loadex::rt {

/// Monotonic clock reporting seconds since construction. The origin is
/// captured once, so timestamps are small doubles (µs precision holds for
/// days) directly comparable across all threads of one RtWorld.
class MonotonicClock {
 public:
  MonotonicClock();

  /// Seconds elapsed since this clock was constructed. Monotonic,
  /// thread-safe, never goes backwards.
  SimTime now() const;

  /// Block the *calling* thread for about `seconds` (driver pacing, test
  /// backoff and idle-worker backoff — never called from inside a rank's
  /// handler).
  static void sleepFor(double seconds);

 private:
  static std::uint64_t nowNs();

  std::uint64_t origin_ns_ = 0;
};

}  // namespace loadex::rt
