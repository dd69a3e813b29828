// RtWorld: real-thread ranks, mirroring sim::World's lifecycle.
//
//   RtWorld world(cfg);                         // build nodes + transports
//   core::MechanismSet mechs(world.transports(), kind, mcfg);
//   world.attach(r, &mechs.at(r));              // per rank, before start
//   world.start();                              // spawn the worker pool
//   world.post(...); world.drain(timeout);      // drive + quiesce
//   world.stop();                               // join; stats now stable
//
// Each node owns a bounded MPSC mailbox (rt/mailbox.h) and a timer wheel
// (rt/timer_wheel.h), but no thread: an M:N sharded executor gives nodes
// CPU time (RtExecutorConfig). Ranks are partitioned over shards
// (rank % shards) and a fixed worker pool runs them, so N=1024 ranks fit
// on 8 cores. A shard's mutex (sync::LockRank::kShard) is the
// ownership token for every member rank's mailbox, wheel and spill
// queues — to own a rank is to hold its shard lock. A worker locks a
// shard, runs each member (fire due timers, flush spill, drain the
// mailbox's backlog in tryPopBatch chunks, at most one mailbox capacity
// per visit), and releases. Workers own shards round-robin (shard s is
// home to worker s % workers) and, with steal enabled, opportunistically
// try_lock foreign shards so an imbalanced or blocked shard cannot strand
// its ranks. A worker never holds two shard locks at once.
//
// Two rules make the system deadlock-free and drainable:
//
//   no node blocks  — a rank's owner only ever tryPushes to a peer; when
//     the peer's mailbox is full the envelope goes to a per-destination
//     spill queue on the sender, flushed on every visit (per-pair FIFO
//     preserved: once a destination spills, later sends to it spill too).
//     Only external driver threads may use the blocking post().
//   conservation of pending work — a global counter is incremented before
//     any envelope/timer is enqueued and decremented only after its
//     handler completes, so work a handler spawns is counted before its
//     own count drops: pending == 0 is a stable quiescent state, which is
//     exactly what drain() polls for. The executor batches both
//     edges: a state broadcast is counted once, for all its copies,
//     before the first copy is visible to any receiver, and a shard
//     visit settles once, for every timer and handler it ran, after the
//     last of them returned. Both only delay the decrement relative to
//     per-envelope accounting, so pending never reads a false zero. A
//     kStop settles at once (the stop protocol counts on it), and every
//     fault path that discards an envelope still settles it singly.
//
// Fault injection (rt/faults.h) extends both rules to an unreliable
// platform while keeping them true. With cfg.faults enabled:
//
//   message faults — every send from a rank may be dropped (random or
//     blackout), duplicated (the copy rides right behind the original,
//     per-pair FIFO intact) or held back by a latency spike. A held
//     envelope waits in the sender's spill queue with a release time, so
//     it still cannot overtake later sends — spikes delay the whole pair
//     stream, exactly like the simulator's FIFO-preserving spike.
//   rank lifecycle — crashRank seals the victim's mailbox (senders drop,
//     counted), cancels its armed timers and discards its outbound spill;
//     pauseRank parks the rank without consuming anything; restartRank
//     sweeps the sealed backlog and revives it. These are shard-local
//     state transitions: the driver takes the victim's shard lock
//     (becoming the unique owner of its wheel and spill), flips the
//     per-rank life atomic and tears down inline — no thread is spawned
//     or joined. Every discarded envelope and cancelled timer settles
//     the pending-work counter, so drain() still reaches a true
//     quiescent zero under any crash schedule.
//
// With the default (inert) plan none of this code runs: no per-send
// branch, no supervisor thread, and RtRunStats is bit-identical to the
// pre-fault-layer runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sync.h"
#include "common/types.h"
#include "rt/clock.h"
#include "rt/faults.h"
#include "rt/mailbox.h"
#include "rt/timer_wheel.h"
#include "rt/transport.h"
#include "sim/application.h"

namespace loadex::core {
class MechanismSet;
}  // namespace loadex::core

namespace loadex::rt {

class Supervisor;

/// How ranks get CPU time (see the file comment). The defaults auto-size
/// the worker pool to the machine; tests pin workers and shards for
/// reproducible schedules.
struct RtExecutorConfig {
  /// Worker pool size; 0 auto-sizes to min(nprocs, hardware threads).
  int workers = 0;
  /// Shard count; 0 auto-sizes to min(nprocs, 2 * workers). Clamped to
  /// [1, nprocs] and workers is clamped to the shard count (an extra
  /// worker would never find an ownable shard).
  int shards = 0;
  /// Idle workers try_lock foreign shards. Off: shard s is touched only
  /// by worker s % workers, which serialises each shard's schedule.
  bool steal = true;
};

struct RtConfig {
  int nprocs = 4;
  MailboxConfig mailbox;
  RtExecutorConfig executor;
  /// Timer wheel shape (per node).
  double timer_slot_s = 1e-4;
  std::size_t timer_slots = 256;
  /// Longest an idle worker sleeps with nothing due: bounds spill-flush
  /// and stop latency, and caps the cost of any missed wakeup.
  double max_idle_wait_s = 1e-3;
  /// Fault injection + supervision plan; inert by default.
  FaultPlan faults;
};

/// Aggregated run counters; exact once stop() has joined the workers.
struct RtRunStats {
  std::int64_t state_posted = 0;     ///< sendState calls (one per dst)
  std::int64_t state_delivered = 0;  ///< onStateMessage invocations
  Bytes state_bytes = 0;             ///< payload bytes posted on kState
  std::int64_t task_posted = 0;      ///< closures posted (driver + nodes)
  std::int64_t task_delivered = 0;
  std::int64_t timers_armed = 0;
  std::int64_t timers_fired = 0;
  std::int64_t spill_enqueues = 0;   ///< sends deferred by a full mailbox
  /// Successful shard acquisitions by the M:N pool, split by provenance:
  /// a home visit is a worker entering a shard it owns (s ≡ w mod
  /// workers), a stolen visit is an idle worker's try_lock on someone
  /// else's shard. stolen / (home + stolen) is the steal rate the weak-
  /// scaling bench reports.
  std::int64_t shard_visits_home = 0;
  std::int64_t shard_visits_stolen = 0;
  std::uint64_t mailbox_pushes = 0;
  std::uint64_t mailbox_pops = 0;
  std::uint64_t mailbox_full_rejections = 0;
  std::uint64_t mailbox_blocking_waits = 0;

  // ---- fault & lifecycle counters (all zero on a clean run) ------------
  // Conservation under faults: every posted envelope is either delivered
  // or counted in exactly one drop bucket, and injected copies are
  // counted too, so
  //   state_posted + state_duplicated == state_delivered + state_dropped
  //   task_posted  + task_duplicated  == task_delivered  + task_dropped
  //   timers_armed == timers_fired + timers_cancelled
  // hold at stop() under any fault schedule.
  std::int64_t state_dropped = 0;     ///< state envelopes lost to any fault
  std::int64_t task_dropped = 0;      ///< task envelopes lost to any fault
  std::int64_t state_duplicated = 0;  ///< injected copies on the state channel
  std::int64_t task_duplicated = 0;
  std::int64_t fault_drops = 0;       ///< random drops + blackout hits
  std::int64_t latency_spikes = 0;    ///< sends held back by a spike
  std::int64_t dropped_at_sealed_mailbox = 0;  ///< sends to a crashed rank
  std::int64_t crash_discards = 0;    ///< a crashed rank's swept backlog
  std::int64_t timers_cancelled = 0;  ///< wheel entries dropped at crash
  std::int64_t crashes = 0;
  std::int64_t restarts = 0;
  std::int64_t resyncs = 0;           ///< rejoin resync rounds driven
  std::int64_t suspects_flagged = 0;  ///< detector alive -> suspect edges
  std::int64_t deaths_declared = 0;   ///< detector dead declarations
  std::int64_t revives = 0;           ///< detector suspect/dead -> alive edges
};

class RtWorld {
 public:
  explicit RtWorld(RtConfig cfg = {});
  ~RtWorld();  ///< stops (joins the workers) if still running

  RtWorld(const RtWorld&) = delete;
  RtWorld& operator=(const RtWorld&) = delete;

  int nprocs() const { return cfg_.nprocs; }
  SimTime now() const { return clock_.now(); }
  const FaultPlan& faultPlan() const { return cfg_.faults; }

  /// Resolved executor shape (auto-sizing applied); 0 before start().
  int workerCount() const { return n_workers_; }
  int shardCount() const { return n_shards_; }

  /// Per-rank transports, in rank order — feed to MechanismSet.
  std::vector<core::Transport*> transports();

  /// Bind the state-channel handler of rank r (normally &mechs.at(r)).
  /// Must be called before start().
  void attach(Rank r, sim::StateHandler* handler);

  /// Hand the mechanism set to the supervision layer (suspicion
  /// broadcasts, onRestart + rejoin resync after a scripted restart).
  /// Optional, but must precede start(); without it the supervisor still
  /// runs the crash schedule, it just cannot resync anyone.
  void superviseMechanisms(core::MechanismSet* mechs);

  void start();
  bool running() const { return started_ && !stopped_; }

  /// Run a closure as rank r. Blocking backpressure — driver threads
  /// only, never from inside a rank (use postTask there). With
  /// fault hooks enabled a post to a crashed rank is dropped (counted),
  /// not blocked on.
  void post(Rank r, std::function<void()> fn);

  /// Non-blocking post: false if the destination is sealed or its mailbox
  /// is full (nothing is counted as posted then). Supervisor + tests.
  bool tryPost(Rank r, std::function<void()> fn);

  /// Like post(), but the closure is deferred (re-armed every `retry_s`)
  /// while the rank's handler blocks computation — a live snapshot freeze.
  /// Mirrors harness::CoreHarness::atWhenFree.
  void postWhenFree(Rank r, std::function<void()> fn, double retry_s = 1e-4);

  /// Node-to-node closure post (application work delegation). Must be
  /// called from inside rank `from`; never blocks (spills when `to` is
  /// full).
  void postTask(Rank from, Rank to, std::function<void()> fn);

  /// Wait until the pending-work counter reaches its stable zero, i.e. no
  /// envelope is queued or executing and no timer is armed anywhere.
  /// False on timeout (something still in flight) — the per-rank pending
  /// depths (mailbox, spill, armed timers) are then logged at warn level,
  /// unless `log_on_timeout` is false (progress-polling callers drain in
  /// short slices and expect most of them to time out).
  bool drain(double timeout_s, bool log_on_timeout = true);

  /// Post a stop envelope to every node and join the workers. Idempotent.
  void stop();

  // ---- rank lifecycle (fault hooks enabled only) -----------------------
  // Callable from driver or supervisor threads, never from inside a rank.
  // crashRank seals the mailbox, takes ownership of the victim (its shard
  // lock), tears down its wheel + spill and sweeps the backlog;
  // restartRank revives a crashed rank with a life flip. Both need a
  // started world (the shards exist from start() on). Concurrent use
  // against stop() is not supported: scripted plans are executed by the
  // supervisor, which stop() joins first.

  void crashRank(Rank r) LOADEX_EXCLUDES(lifecycle_mu_);
  void pauseRank(Rank r) LOADEX_EXCLUDES(lifecycle_mu_);
  void resumeRank(Rank r) LOADEX_EXCLUDES(lifecycle_mu_);
  void restartRank(Rank r) LOADEX_EXCLUDES(lifecycle_mu_);
  RankLife rankLife(Rank r) const;

  /// Drain sealed mailboxes of crashed ranks (racing senders can land a
  /// push between the seal and their next life check; the sweep settles
  /// the pending-work counter). drain() and the supervisor call this
  /// periodically; safe from any thread outside the ranks, and a no-op
  /// before start().
  void sweepCrashedMailboxes() LOADEX_EXCLUDES(lifecycle_mu_);

  /// Snapshot of the run counters (exact after stop()). Not safe to call
  /// while the workers run: it folds in owner-written per-node counters.
  /// To poll progress mid-run use lifecycleCounts().
  RtRunStats runStats() const;

  /// Detector / lifecycle counters only, read from atomics — safe to
  /// poll from any thread while the world is running.
  struct LifecycleCounts {
    std::int64_t crashes = 0;
    std::int64_t restarts = 0;
    std::int64_t suspects_flagged = 0;
    std::int64_t deaths_declared = 0;
    std::int64_t revives = 0;
  };
  LifecycleCounts lifecycleCounts() const;

  /// Current pending-work count (diagnostics; racy while running).
  std::int64_t pendingWork() const {
    return pending_.load(std::memory_order_acquire);
  }

 private:
  friend class RtTransport;
  friend class Supervisor;

  /// Sender-side spill entry: an envelope waiting for mailbox space, or —
  /// under a latency-spike fault — for its release time. Keeping held
  /// envelopes in the same per-destination queue preserves per-pair FIFO:
  /// a spike delays the whole (src,dst) stream, never one message past
  /// its successors.
  struct SpillEntry {
    Envelope e;
    SimTime not_before = 0.0;  ///< 0: send as soon as the mailbox has room
  };

  struct Shard;

  struct Node {
    Rank rank = kNoRank;
    Mailbox mailbox;
    TimerWheel wheel;
    std::unique_ptr<RtTransport> transport;
    sim::StateHandler* handler = nullptr;
    /// The shard that owns this rank (fixed at start(); holding
    /// shard->mu is what owning the node means).
    Shard* shard = nullptr;
    /// This rank consumed its kStop (guarded by the shard mutex —
    /// workers skip the rank from then on).
    bool stopped = false;
    /// Per-destination spill queues (sender side), touched only by the
    /// node's current owner. Deques are allocated lazily on first spill
    /// to a destination — an eager nprocs-sized deque table would be
    /// O(N^2) memory across the world at N=1024.
    std::vector<std::unique_ptr<std::deque<SpillEntry>>> spill;
    /// Destinations with a non-empty spill queue (each appears once);
    /// flushSpill walks and compacts this instead of scanning all N.
    std::vector<Rank> spill_dirty;
    std::size_t spill_size = 0;
    // Counters written only by the node's owner (any worker holding the
    // shard lock), read after the executor quiesces. Cumulative across
    // restarts (the shard lock orders the old incarnation's writes before
    // the new owner's).
    std::int64_t delivered_state = 0;
    std::int64_t delivered_task = 0;
    std::int64_t timers_fired = 0;
    std::int64_t state_posted = 0;
    Bytes state_bytes = 0;
    std::int64_t spill_enqueues = 0;

    // ---- lifecycle + published diagnostics -----------------------------
    std::atomic<int> life{static_cast<int>(RankLife::kAlive)};
    /// Wall-clock of the last shard visit (failure-detector heartbeat).
    std::atomic<double> heartbeat{0.0};
    /// Per-visit snapshots of owner-confined depths, so drain timeout
    /// diagnostics can read them without racing the owner.
    std::atomic<std::size_t> pub_wheel_pending{0};
    std::atomic<std::size_t> pub_spill{0};
    /// Per-sender fault RNG stream (owner only).
    std::unique_ptr<Rng> fault_rng;

    Node(const RtConfig& cfg, Rank r)
        : rank(r),
          mailbox(cfg.mailbox),
          wheel(cfg.timer_slot_s, cfg.timer_slots),
          spill(static_cast<std::size_t>(cfg.nprocs)) {}
  };

  /// A run-queue partition. The mutex is the ownership token for every
  /// member rank (sync::LockRank::kShard, the bottom of the hierarchy:
  /// handlers run under it and may take any other lock). Membership is
  /// fixed at start().
  struct Shard {
    sync::Mutex mu{sync::LockRank::kShard};
    std::vector<Node*> members LOADEX_GUARDED_BY(mu);
  };

  /// Per-pass outcome a worker accumulates over the shards it visited.
  struct Pass {
    bool did_work = false;  ///< fired a timer or delivered an envelope
    bool urgent = false;    ///< armed timers / spill seen: short sleep
  };

  Node& node(Rank r);
  const Node& node(Rank r) const;
  Node& callingNode();  ///< hard-fails unless called from inside a rank

  /// The node the current worker is running (null on driver threads and
  /// between visits). Thread-local by definition: no synchronisation.
  static thread_local Node* t_current_node;

  // RtTransport backends.
  void postState(Rank src, Rank dst, core::StateTag tag, Bytes size,
                 std::shared_ptr<const sim::Payload> payload);
  /// One payload to every rank in `dsts`, in order: the pending-work
  /// counter is raised once for all copies, then each copy takes the
  /// same sendFromNode path as postState.
  void postStateBroadcast(Rank src, const std::vector<Rank>& dsts,
                          core::StateTag tag, Bytes size,
                          const std::shared_ptr<const sim::Payload>& payload);
  void scheduleOnCallingNode(double delay, std::function<void()> fn);

  /// Enqueue from a node's owner: fault draws (when enabled), then direct
  /// tryPush, spill on full / on hold.
  void sendFromNode(Node& src, Rank dst, Envelope&& e);
  void sendFromNodeFaulty(Node& src, Rank dst, Envelope&& e);
  void enqueueFromNode(Node& src, Rank dst, Envelope&& e, SimTime not_before);
  void flushSpill(Node& n);
  void runWhenFree(Node& n, std::function<void()>&& fn, double retry_s);

  // ---- executor ------------------------------------------------------
  void workerLoop(int w);
  /// One attempt at a shard: skipped (false) when another worker holds
  /// it — under steal that worker is already doing the shard's work.
  bool tryRunShard(Shard& sh, std::vector<Envelope>& scratch, Pass& pass);
  void runShardLocked(Shard& sh, std::vector<Envelope>& scratch, Pass& pass)
      LOADEX_REQUIRES(sh.mu);
  /// Run one member rank: timers, spill flush, then the mailbox backlog
  /// (up to one mailbox capacity per visit).
  void processShardNode(Shard& sh, Node& n, std::vector<Envelope>& scratch,
                        Pass& pass) LOADEX_REQUIRES(sh.mu);
  /// Debug check that the calling thread owns `n`'s sender-side state,
  /// i.e. holds n.shard->mu. This (not thread identity) is the spill-hold
  /// FIFO ownership rule — under stealing, consecutive flushes of one
  /// rank's spill legally run on different worker threads.
  void assertSenderOwned(const Node& n) const;

  // Fault accounting: every path that loses an envelope must settle the
  // pending-work counter and hit exactly one drop bucket + the channel
  // counter, or the conservation identities above break.
  void noteDropped(const Envelope& e, std::atomic<std::int64_t>& reason);
  RankLife lifeOf(const Node& n) const {
    return static_cast<RankLife>(n.life.load(std::memory_order_acquire));
  }

  /// Crash teardown: cancel timers, discard the outbound spill, clear
  /// published depths. Run by the driver thread holding the victim's
  /// shard lock.
  void crashTeardown(Node& n);
  /// Drain a sealed mailbox. Caller holds the node's shard lock (so it is
  /// the unique consumer) and lifecycle_mu_.
  void sweepMailboxLocked(Node& n) LOADEX_REQUIRES(lifecycle_mu_);
  void logDrainDiagnostics() const;

  RtConfig cfg_;
  MonotonicClock clock_;
  std::vector<std::unique_ptr<Node>> nodes_;
  // Executor state, built by start().
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::thread> workers_;
  int n_workers_ = 0;  ///< resolved pool size
  int n_shards_ = 0;
  /// Stop-protocol countdown: set to the number of kStop envelopes
  /// before stopping_ is raised; workers exit only once every one has
  /// been consumed, so no kStop (or envelope ahead of it) is stranded.
  std::atomic<std::int64_t> stops_remaining_{0};
  bool started_ = false;
  bool stopped_ = false;
  /// True once any fault machinery is configured; every fault branch in
  /// the hot paths is gated on this single bool.
  bool fault_hooks_ = false;
  core::MechanismSet* mechs_ = nullptr;
  std::unique_ptr<Supervisor> supervisor_;
  /// Serialises crash/restart/sweep transitions (cold paths). Guards no
  /// member directly — the lifecycle states are per-node atomics — but
  /// mutual exclusion makes each transition's seal/teardown/sweep atomic.
  mutable sync::Mutex lifecycle_mu_{sync::LockRank::kLifecycle};
  /// Raised by stop(): paused ranks get visited again so the kStop can
  /// drain.
  std::atomic<bool> stopping_{false};

  /// The conservation counter drain() polls (see file comment).
  std::atomic<std::int64_t> pending_{0};

  // World-level posting counters (any thread). The state-channel and
  // spill counters live on Node: only a rank's owner writes them.
  std::atomic<std::int64_t> task_posted_{0};
  std::atomic<std::int64_t> timers_armed_{0};
  std::atomic<std::int64_t> shard_visits_home_{0};
  std::atomic<std::int64_t> shard_visits_stolen_{0};

  // Fault counters (any thread; all stay zero on the clean path).
  std::atomic<std::int64_t> state_dropped_{0};
  std::atomic<std::int64_t> task_dropped_{0};
  std::atomic<std::int64_t> state_duplicated_{0};
  std::atomic<std::int64_t> task_duplicated_{0};
  std::atomic<std::int64_t> fault_drops_{0};
  std::atomic<std::int64_t> latency_spikes_{0};
  std::atomic<std::int64_t> dropped_at_sealed_mailbox_{0};
  std::atomic<std::int64_t> crash_discards_{0};
  std::atomic<std::int64_t> timers_cancelled_{0};
  std::atomic<std::int64_t> crashes_{0};
  std::atomic<std::int64_t> restarts_{0};
  std::atomic<std::int64_t> resyncs_{0};
  std::atomic<std::int64_t> suspects_flagged_{0};
  std::atomic<std::int64_t> deaths_declared_{0};
  std::atomic<std::int64_t> revives_{0};
};

}  // namespace loadex::rt
