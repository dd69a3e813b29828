// Glue between the mechanisms and the simulated processes.
//
// SimTransport sends on a Process's state channel; MechanismSet builds one
// (transport, mechanism) pair per rank and attaches each mechanism as the
// process's StateHandler.
#pragma once

#include <memory>
#include <vector>

#include "core/mechanism.h"
#include "sim/process.h"
#include "sim/world.h"

namespace loadex::core {

class SimTransport final : public Transport {
 public:
  explicit SimTransport(sim::Process& process) : process_(process) {}

  Rank self() const override { return process_.rank(); }
  int nprocs() const override { return process_.nprocs(); }
  SimTime now() const override { return process_.now(); }
  void sendState(Rank dst, StateTag tag, Bytes size,
                 std::shared_ptr<const sim::Payload> payload) override {
    process_.send(dst, sim::Channel::kState, static_cast<int>(tag), size,
                  std::move(payload));
  }
  void sendStateBroadcast(
      const std::vector<Rank>& dsts, StateTag tag, Bytes size,
      std::shared_ptr<const sim::Payload> payload) override {
    process_.broadcast(dsts, sim::Channel::kState, static_cast<int>(tag),
                       size, std::move(payload));
  }
  void schedule(SimTime delay, std::function<void()> fn) override {
    // A mechanism timer can unfreeze the process or make local work ready
    // (snapshot answer timeout firing the view callback, a foreign guard
    // force-closing a snapshot); unlike a message delivery, a bare queue
    // event does not pump the process, so re-pump after the callback.
    process_.queue().scheduleAfter(delay,
                                   [this, fn = std::move(fn)] {
                                     fn();
                                     process_.notifyReadyWork();
                                   });
  }

 private:
  sim::Process& process_;
};

/// Create a mechanism of the given kind over a transport.
std::unique_ptr<Mechanism> makeMechanism(MechanismKind kind,
                                         Transport& transport,
                                         const MechanismConfig& config);

/// One mechanism per rank of a world, each attached as the process's state
/// handler (the application is attached separately by the solver).
class MechanismSet {
 public:
  MechanismSet(sim::World& world, MechanismKind kind,
               const MechanismConfig& config);

  /// Over externally-owned transports, one per rank in rank order. This is
  /// the seam the real-threads runtime uses: rt::RtWorld owns one
  /// RtTransport per rank and binds the same mechanism code to them;
  /// the ProtocolAuditor and the obs layer attach exactly as they do over a
  /// sim::World. The transports must outlive the set.
  MechanismSet(const std::vector<Transport*>& transports, MechanismKind kind,
               const MechanismConfig& config);

  Mechanism& at(Rank rank);
  const Mechanism& at(Rank rank) const;
  int size() const { return static_cast<int>(mechanisms_.size()); }
  MechanismKind kind() const { return kind_; }

  /// Sum of per-process statistics (Table 6 totals).
  MechanismStats aggregateStats() const;

 private:
  MechanismKind kind_;
  std::vector<std::unique_ptr<SimTransport>> transports_;
  std::vector<std::unique_ptr<Mechanism>> mechanisms_;
};

}  // namespace loadex::core
