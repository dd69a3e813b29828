// Abstract interface of a load information exchange mechanism.
//
// A mechanism gives every process (a) a way to account for its own load
// changes, and (b) a way for a *master* to obtain a view of all loads right
// before a dynamic scheduling decision (slave selection), plus a way to
// publish the decision so subsequent decisions can take it into account.
//
// The three implementations are the paper's:
//   NaiveMechanism      — §2.1, Algorithm 2 (absolute broadcasts)
//   IncrementMechanism  — §2.2, Algorithm 3 (+ Master_To_All reservations)
//   SnapshotMechanism   — §3 (demand-driven distributed snapshot)
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "core/election.h"
#include "core/load.h"
#include "core/payloads.h"
#include "sim/application.h"

namespace loadex::core {

enum class MechanismKind { kNaive, kIncrement, kSnapshot };

const char* mechanismKindName(MechanismKind kind);
MechanismKind parseMechanismKind(const std::string& name);

/// How a mechanism talks to the outside world. The production transport
/// binds to a simulated process (binding.h); tests use a scripted one.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual Rank self() const = 0;
  virtual int nprocs() const = 0;
  virtual SimTime now() const = 0;
  virtual void sendState(Rank dst, StateTag tag, Bytes size,
                         std::shared_ptr<const sim::Payload> payload) = 0;

  /// Send one shared payload to every rank in `dsts`, in order. The
  /// default expands into per-destination sendState calls; transports
  /// over the simulator override it with the kernel's O(1) logical
  /// broadcast (identical observable behaviour, fewer allocations).
  virtual void sendStateBroadcast(const std::vector<Rank>& dsts, StateTag tag,
                                  Bytes size,
                                  std::shared_ptr<const sim::Payload> payload);

  /// Arm a one-shot timer `delay` seconds from now. Only the hardened
  /// (reliability-enabled) protocol paths use timers; the default
  /// implementation hard-fails so that a transport without timer support
  /// cannot silently drop a retry/timeout.
  virtual void schedule(SimTime delay, std::function<void()> fn);
};

/// Knobs of the protocol hardening layer (ack/timeout/retry). Everything
/// defaults to OFF: with the default config the mechanisms behave exactly
/// as the paper's pseudocode on a reliable network, bit for bit.
struct ReliabilityConfig {
  /// Master switch for the hardened increment protocol: sequence-numbered
  /// load updates with gap detection, NACK/resend and heartbeat tail
  /// flush. Requires a Transport with timer support.
  bool reliable_updates = false;
  /// Retry period of a pending NACK while a gap persists.
  double nack_timeout_s = 2e-4;
  /// NACK retries before the source is declared dead in the local view.
  int max_nack_retries = 8;
  /// Flush-beacon period; each active (sender, receiver) stream gets one
  /// heartbeat per period so tail losses are detected.
  double heartbeat_period_s = 2e-3;
  /// Idle heartbeat rounds sent after the stream goes quiet (each one is
  /// an independent chance to detect a lost tail).
  int tail_heartbeats = 4;
  /// Per-destination retransmission buffer depth (messages).
  int resend_window = 512;

  /// Snapshot hardening: answer-collection timeout. 0 disables it (paper
  /// behaviour: a lost snp answer deadlocks the initiator forever).
  double snapshot_timeout_s = 0.0;
  /// Full re-arm/retry rounds before the initiator completes with a
  /// partial quorum (missing ranks are declared dead, their entries kept
  /// from the maintained view and flagged stale).
  int max_snapshot_retries = 3;

  bool snapshotHardened() const { return snapshot_timeout_s > 0.0; }
};

struct MechanismConfig {
  /// "Significant variation" threshold (per metric) that triggers an
  /// Update broadcast in the maintained-view mechanisms.
  LoadMetrics threshold{1e6, 1e4};

  /// Fault-tolerance hardening, all off by default (see above).
  ReliabilityConfig reliability;

  /// Enable the §2.3 No_more_master optimisation.
  bool no_more_master = true;

  /// Snapshot: leader election criterion.
  ElectionPolicy election = ElectionPolicy::kMinRank;

  /// Snapshot hardening toggle. true (default): a pending initiator
  /// re-arms (fresh request id + re-broadcast) whenever *any* other
  /// snapshot completes, so its view postdates every earlier decision —
  /// end-driven, hence free of re-arm broadcast cascades. false: the
  /// paper's pseudocode rule (re-arm inside the start_snp handler, only
  /// while nb_snp == 1), which leaves a stale-answer window with three or
  /// more simultaneous snapshots. bench_ablation_election compares both.
  bool rearm_on_every_preemption = true;
};

/// Message statistics, counted at the sender (Table 6 reports these).
struct MechanismStats {
  CounterSet sent_by_tag;   ///< point-to-point sends, keyed by tag name
  Bytes bytes_sent = 0;
  std::int64_t view_requests = 0;   ///< dynamic decisions served
  std::int64_t selections = 0;      ///< commitSelection calls
  // Snapshot-specific (zero for the other mechanisms):
  std::int64_t snapshots_initiated = 0;
  std::int64_t snapshot_rearms = 0;
  double time_blocked = 0.0;        ///< time this process spent frozen
  Accumulator snapshot_duration;    ///< requestView -> view delivery

  // Hardened-protocol statistics (all zero with reliability off):
  std::int64_t gaps_detected = 0;        ///< sequence gaps seen as receiver
  std::int64_t nacks_sent = 0;
  std::int64_t retransmissions = 0;      ///< messages resent on NACK
  std::int64_t duplicates_dropped = 0;   ///< stale/duplicate seq discarded
  std::int64_t gaps_abandoned = 0;       ///< NACK retries exhausted
  std::int64_t snapshot_timeouts = 0;    ///< answer timeouts fired
  std::int64_t partial_snapshots = 0;    ///< completed with a partial quorum
  std::int64_t snapshot_aborts = 0;      ///< foreign snapshots force-closed
  std::int64_t ranks_declared_dead = 0;

  // Supervision statistics (rt failure detector + rejoin resync; zero
  // whenever no supervisor is attached):
  std::int64_t ranks_suspected = 0;      ///< notePeerSuspect transitions
  std::int64_t resyncs_applied = 0;      ///< applyPeerResync entries taken

  std::int64_t messagesSent() const { return sent_by_tag.total(); }
  void mergeInto(MechanismStats& out) const;
};

class Mechanism;

/// Passive observation hooks on the semantic events of a mechanism:
/// local load accounting, view requests, committed selections, and state
/// traffic (at the sender and at the receiver). The ProtocolAuditor
/// (core/audit.h) implements this to verify paper-level invariants online;
/// with no observer attached every hook collapses to a null-pointer check.
class AuditObserver {
 public:
  virtual ~AuditObserver() = default;

  virtual void onLocalLoad(const Mechanism& /*m*/, const LoadMetrics& /*delta*/,
                           bool /*is_slave_delegated*/) {}
  virtual void onViewRequest(const Mechanism& /*m*/) {}
  virtual void onSelection(const Mechanism& /*m*/,
                           const SlaveSelection& /*selection*/) {}
  virtual void onStateSend(const Mechanism& /*m*/, Rank /*dst*/,
                           StateTag /*tag*/, Bytes /*size*/,
                           const sim::Payload* /*payload*/) {}
  virtual void onStateDeliver(const Mechanism& /*m*/, Rank /*src*/,
                              StateTag /*tag*/, const sim::Payload* /*p*/) {}
};

class Mechanism : public sim::StateHandler {
 public:
  using ViewCallback = std::function<void(const LoadView&)>;

  Mechanism(Transport& transport, MechanismConfig config);
  ~Mechanism() override = default;

  virtual MechanismKind kind() const = 0;

  // ---- application-side API -------------------------------------------
  // The entry points are non-virtual: they notify the attached audit
  // observer (if any), then forward to the mechanism-specific
  // doAddLocalLoad / doRequestView / doCommitSelection implementations.

  /// Account a change of this process's own load. `is_slave_delegated`
  /// marks deltas caused by a task delegated by a master (Alg. 3 line (1):
  /// positive such deltas must not be self-reported — the master's
  /// reservation message already carried them).
  void addLocalLoad(const LoadMetrics& delta, bool is_slave_delegated = false);

  /// Ask for a view of the system to take a dynamic decision. Maintained-
  /// view mechanisms invoke `cb` synchronously; the snapshot mechanism
  /// invokes it once the snapshot completes. Exactly one commitSelection()
  /// must follow each requestView() before the next requestView().
  void requestView(ViewCallback cb);

  /// Publish the decision taken from the last requested view.
  void commitSelection(const SlaveSelection& selection);

  /// This process will never again be a master (§2.3).
  virtual void noMoreMaster();

  // ---- failure detection / crash recovery (rt supervision layer) -------
  // Called on this process's own execution context (inside its rank in
  // the rt world); the simulator never calls them, so with no supervisor
  // attached they are dead code and the clean path is untouched.

  /// Advisory: the failure detector missed heartbeats from `peer`.
  /// Reversible — notePeerAlive clears it.
  void notePeerSuspect(Rank peer);
  /// The detector heard from `peer` again (or it was restarted).
  void notePeerAlive(Rank peer);
  /// The detector declared `peer` dead (crashed or silent past the dead
  /// threshold). Marks the view like any protocol-level death.
  void notePeerDead(Rank peer);

  /// Rejoin resync: overwrite the maintained entry for `peer` with its
  /// authoritative load and clear the staleness/suspicion marks. Driven
  /// by the supervisor after a restart (rt/supervisor.h).
  void applyPeerResync(Rank peer, const LoadMetrics& load);

  /// Called on a restarted process before it rejoins: shed in-flight
  /// protocol state that died with the crash (a snapshot mid-flight, a
  /// pending view callback). The base clears suspicion marks only; the
  /// maintained seq streams survive a crash untouched (the mechanism
  /// object persists — only the thread, its timers and in-flight
  /// messages are lost).
  virtual void onRestart();

  /// Attach (or detach, with nullptr) a passive audit observer. The
  /// observer must outlive the mechanism or be detached before it dies.
  void setAuditObserver(AuditObserver* observer) { audit_ = observer; }

  // ---- sim::StateHandler ----------------------------------------------
  void onStateMessage(const sim::Message& msg) final;
  bool blocksComputation() const override { return false; }

  // ---- introspection ----------------------------------------------------
  const LoadMetrics& localLoad() const { return my_load_; }
  const LoadView& view() const { return view_; }
  const MechanismStats& stats() const { return stats_; }
  const MechanismConfig& config() const { return config_; }
  Rank self() const { return transport_.self(); }
  int nprocs() const { return transport_.nprocs(); }

 protected:
  /// Mechanism-specific bodies of the public API above.
  virtual void doAddLocalLoad(const LoadMetrics& delta,
                              bool is_slave_delegated) = 0;
  virtual void doRequestView(ViewCallback cb) = 0;
  virtual void doCommitSelection(const SlaveSelection& selection) = 0;

  /// Tag-dispatched handler implemented by each mechanism.
  virtual void handleState(Rank src, StateTag tag, const sim::Payload& p) = 0;

  void sendState(Rank dst, StateTag tag, Bytes size,
                 std::shared_ptr<const sim::Payload> payload);

  /// Send to every other process that still wants load information
  /// (No_more_master senders are skipped for load-bearing tags).
  void broadcastState(StateTag tag, Bytes size,
                      std::shared_ptr<const sim::Payload> payload,
                      bool respect_no_more_master);

  /// Send one shared payload to an explicit destination list through the
  /// transport's broadcast path, with per-destination audit / stats /
  /// trace accounting identical to a sendState loop.
  void broadcastStateTo(const std::vector<Rank>& dsts, StateTag tag,
                        Bytes size,
                        std::shared_ptr<const sim::Payload> payload);

  /// Sender-side accounting of one outgoing state message (audit hook,
  /// per-tag counters, wire bytes, trace instant) — everything sendState
  /// does except the transport call itself.
  void noteStateSend(Rank dst, StateTag tag, Bytes size,
                     const sim::Payload* payload);

  /// Reusable destination-list scratch for broadcastState (sized once,
  /// avoids a per-broadcast allocation on the hot path).
  std::vector<Rank>& broadcastScratch() {
    bcast_dsts_.clear();
    return bcast_dsts_;
  }

  /// Record a No_more_master received from `src`.
  void markNoMoreMaster(Rank src);

  /// Declare `src` dead in the local view (crashed or persistently
  /// unreachable); any later message from it revives it.
  void declareDead(Rank src) {
    if (view_.dead(src)) return;
    view_.markDead(src);
    ++stats_.ranks_declared_dead;
  }

  Transport& transport_;
  MechanismConfig config_;
  AuditObserver* audit_ = nullptr;
  LoadMetrics my_load_;
  LoadView view_;
  MechanismStats stats_;
  /// stop_sending_to_[r]: r announced No_more_master.
  std::vector<bool> stop_sending_to_;
  bool no_more_master_sent_ = false;

 private:
  std::vector<Rank> bcast_dsts_;  ///< broadcastState destination scratch
};

}  // namespace loadex::core
