// RtTransport: the mechanisms' view of a real-threads node.
//
// One instance per rank, owned by the RtWorld. sendState becomes a mailbox
// post to the destination node (never blocking — the world spills to a
// per-destination queue when the peer's mailbox is full), schedule arms a
// one-shot timer on the owning node's wheel, and now() reads the world's
// shared monotonic clock, so the same mechanism code that runs on
// simulated time runs here on real time with no changes.
//
// Both calls must come from the node's current *owner* — the context the
// rank's handlers run in: whichever worker holds the rank's shard lock (a
// different OS thread from visit to visit once work-stealing is on).
// Mechanisms cannot tell the difference: they only ever send and schedule
// from inside their own handlers, which is by construction the owner.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/mechanism.h"

namespace loadex::rt {

class RtWorld;

class RtTransport final : public core::Transport {
 public:
  RtTransport(RtWorld& world, Rank self) : world_(world), self_(self) {}

  Rank self() const override { return self_; }
  int nprocs() const override;
  SimTime now() const override;
  void sendState(Rank dst, core::StateTag tag, Bytes size,
                 std::shared_ptr<const sim::Payload> payload) override;
  /// Same envelopes as one sendState per destination, but the world's
  /// pending-work counter is raised once for the whole fan-out.
  void sendStateBroadcast(const std::vector<Rank>& dsts, core::StateTag tag,
                          Bytes size,
                          std::shared_ptr<const sim::Payload> payload) override;
  /// Timers are node-confined: mechanisms arm them from inside handlers,
  /// which only ever run on this rank's thread. Hard-fails elsewhere.
  void schedule(SimTime delay, std::function<void()> fn) override;

 private:
  RtWorld& world_;
  Rank self_;
};

}  // namespace loadex::rt
