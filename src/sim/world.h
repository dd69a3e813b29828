// World: owns the event queue, the network and the N simulated processes,
// and runs the simulation to quiescence.
#pragma once

#include <memory>
#include <vector>

#include "common/faults.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/process.h"

namespace loadex::sim {

struct WorldConfig {
  int nprocs = 4;
  NetworkConfig network;
  ProcessConfig process;
  /// Optional per-rank compute-speed multipliers (heterogeneous platform,
  /// cf. the paper's §4 remark). Empty = homogeneous; otherwise must have
  /// nprocs entries, each > 0.
  std::vector<double> speed_factors;
  /// Scripted crash / pause / resume / restart events, scheduled when the
  /// simulation starts (see common/faults.h).
  std::vector<ProcessFaultEvent> process_faults;
};

struct RunResult {
  SimTime end_time = 0.0;        ///< simulated time of the last event
  std::uint64_t events = 0;      ///< number of events fired
  bool hit_limit = false;        ///< stopped by the time/event guard
  /// Replay-determinism fingerprint (EventQueue::scheduleDigest): identical
  /// across runs iff the exact same event schedule executed.
  std::uint64_t schedule_digest = 0;

  // ---- fault statistics (all zero on a clean run) ----------------------
  std::int64_t messages_dropped = 0;     ///< random drops + blackouts
  std::int64_t messages_duplicated = 0;
  std::int64_t latency_spikes = 0;
  std::int64_t messages_lost_at_down_procs = 0;
  int crashes = 0;
  int restarts = 0;
};

class World {
 public:
  explicit World(WorldConfig config);

  int nprocs() const { return static_cast<int>(processes_.size()); }
  Process& process(Rank rank);
  const Process& process(Rank rank) const;
  EventQueue& queue() { return queue_; }
  Network& network() { return network_; }
  SimTime now() const { return queue_.now(); }
  const WorldConfig& config() const { return config_; }

  /// Attach the same application object (with per-rank internal state) and
  /// per-rank state handlers. Handlers may be null.
  void attach(Rank rank, Application* app, StateHandler* handler);

  /// Start all processes (fires Application::onStart) and run until the
  /// event queue drains, `until` is reached, or `max_events` fire.
  RunResult run(SimTime until = kInfiniteTime,
                std::uint64_t max_events = 2'000'000'000ULL);

  /// True when every process is idle and no event is pending.
  bool quiescent() const;

 private:
  WorldConfig config_;
  EventQueue queue_;
  Network network_;
  std::vector<std::unique_ptr<Process>> processes_;
  bool started_ = false;
};

}  // namespace loadex::sim
