// Supervision thread of the rt fault layer (rt/faults.h).
//
// One extra OS thread, started by RtWorld::start() whenever the fault
// plan scripts process events or enables suspicion, doing three jobs on a
// short period:
//
//   schedule execution — the plan's crash / pause / resume / restart
//     events fire at their wall-clock offsets, driving the RtWorld
//     lifecycle hooks. The hooks are shard-local state flips (crashRank
//     tears the victim down under its shard lock, restartRank revives it
//     for the next worker pass); restartRank is followed by the rejoin
//     resync below;
//   sealed-mailbox sweeps — a sender racing a crash can land an envelope
//     after the seal; periodic sweeps keep the pending-work conservation
//     honest so drain() still quiesces;
//   failure detection — every rank publishes a heartbeat whenever its
//     owner runs it (once per shard visit); the
//     detector polls the shard tables, classifies heartbeat age into
//     alive / suspect / dead and broadcasts transitions to the surviving
//     mechanisms (notePeerSuspect / notePeerDead / notePeerAlive), which
//     the degradation-aware selection policies consume.
//
// The supervisor is the only component besides RtWorld allowed to retire
// threads: loadex-lint bans std::thread::detach and std::terminate across
// src/, and thread joins in src/ outside RtWorld/Supervisor code.
#pragma once

#include <atomic>
#include <thread>
#include <vector>

#include "common/faults.h"
#include "common/sync.h"
#include "common/types.h"
#include "rt/faults.h"

namespace loadex::core {
class MechanismSet;
}  // namespace loadex::core

namespace loadex::rt {

class RtWorld;

/// Rejoin resync: every surviving peer publishes its authoritative load
/// to `restarted`, and `restarted` publishes its (recovered) load back,
/// via Mechanism::applyPeerResync closures on the owning threads. After
/// the exchange quiesces, the rejoiner's view of the survivors and their
/// views of it are coherent again. Exposed for tests driving lifecycle
/// transitions manually (FaultPlan::manual_control).
void postRejoinResync(RtWorld& world, core::MechanismSet& mechs,
                      Rank restarted);

class Supervisor {
 public:
  Supervisor(RtWorld& world, core::MechanismSet* mechs);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  void start();
  void stop();  ///< idempotent: request exit + join

 private:
  void loop();
  void applyEvent(const loadex::ProcessFaultEvent& ev);
  void restartWithResync(Rank r);
  void runDetector(SimTime now);
  void setSuspicion(Rank r, Suspicion next);

  RtWorld& world_;
  core::MechanismSet* mechs_;
  /// Confines the detector/schedule state below to the supervisor thread
  /// (constructed on the starting thread, then owned by loop()).
  LOADEX_THREAD_CONFINED(confined_);
  std::vector<loadex::ProcessFaultEvent> schedule_;  ///< time-sorted
  std::size_t next_event_ = 0;
  std::vector<Suspicion> suspicion_;
  std::thread thread_;
  std::atomic<bool> stop_requested_{false};
};

}  // namespace loadex::rt
