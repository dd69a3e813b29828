// Serialising shim that lets the single-threaded ProtocolAuditor observe a
// mechanism set running on real threads.
//
// The auditor's online hooks assume one caller at a time (true in the
// simulator by construction). Under rt, the workers fire hooks
// concurrently, so the world interposes this wrapper: attach the auditor
// normally — it sizes its per-pair state from the MechanismSet — then
// point every mechanism at a LockedAuditObserver that forwards each hook
// under one global mutex. Per-pair FIFO ordering survives the interposition
// because a sender's onStateSend runs before its mailbox post and the
// receiver's onStateDeliver runs after the pop, and the mailbox is FIFO
// per producer. finish()/expectClean() need no lock: call them after
// RtWorld::stop() has joined every worker.
#pragma once

#include "common/sync.h"
#include "core/audit.h"
#include "core/binding.h"
#include "core/mechanism.h"

namespace loadex::rt {

class LockedAuditObserver final : public core::AuditObserver {
 public:
  explicit LockedAuditObserver(core::AuditObserver& inner) : inner_(&inner) {}

  void onLocalLoad(const core::Mechanism& m, const core::LoadMetrics& delta,
                   bool is_slave_delegated) override {
    const sync::MutexLock lk(mu_);
    inner_->onLocalLoad(m, delta, is_slave_delegated);
  }
  void onViewRequest(const core::Mechanism& m) override {
    const sync::MutexLock lk(mu_);
    inner_->onViewRequest(m);
  }
  void onSelection(const core::Mechanism& m,
                   const core::SlaveSelection& selection) override {
    const sync::MutexLock lk(mu_);
    inner_->onSelection(m, selection);
  }
  void onStateSend(const core::Mechanism& m, Rank dst, core::StateTag tag,
                   Bytes size, const sim::Payload* payload) override {
    const sync::MutexLock lk(mu_);
    inner_->onStateSend(m, dst, tag, size, payload);
  }
  void onStateDeliver(const core::Mechanism& m, Rank src, core::StateTag tag,
                      const sim::Payload* p) override {
    const sync::MutexLock lk(mu_);
    inner_->onStateDeliver(m, src, tag, p);
  }

 private:
  sync::Mutex mu_{sync::LockRank::kAuditSerial};
  /// The wrapped auditor: the pointer is set once at construction, but
  /// every call through it must hold mu_ — the auditor's online hooks
  /// assume a single caller at a time.
  core::AuditObserver* const inner_ LOADEX_PT_GUARDED_BY(mu_);
};

/// Attach `auditor` to a mechanism set bound to rt transports: size its
/// state via the normal attach (no sim::World — liveness checks that need
/// one stay off), then interpose the serialising wrapper on every rank.
/// The binding must outlive the run; detaches on destruction.
class RtAuditBinding {
 public:
  RtAuditBinding(core::ProtocolAuditor& auditor, core::MechanismSet& mechs)
      : locked_(auditor), mechs_(mechs) {
    auditor.attach(mechs, /*world=*/nullptr);
    for (Rank r = 0; r < mechs.size(); ++r)
      mechs.at(r).setAuditObserver(&locked_);
  }

  ~RtAuditBinding() {
    for (Rank r = 0; r < mechs_.size(); ++r)
      mechs_.at(r).setAuditObserver(nullptr);
  }

  RtAuditBinding(const RtAuditBinding&) = delete;
  RtAuditBinding& operator=(const RtAuditBinding&) = delete;

 private:
  LockedAuditObserver locked_;
  core::MechanismSet& mechs_;
};

}  // namespace loadex::rt
