#include "rt/world.h"

#include <algorithm>
#include <utility>

#include "common/expect.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "rt/supervisor.h"

namespace loadex::rt {

namespace {
/// Envelopes a worker takes from a mailbox per tryPopBatch (its scratch
/// buffer size); one shard visit drains as many chunks as the backlog
/// needs, up to the mailbox's capacity.
constexpr std::size_t kDrainChunk = 16;

/// One callable per Envelope alternative, for std::visit.
template <typename... Fs>
struct Overloaded : Fs... {
  using Fs::operator()...;
};
}  // namespace

// ---- RtTransport ----------------------------------------------------------

int RtTransport::nprocs() const { return world_.nprocs(); }

SimTime RtTransport::now() const { return world_.now(); }

void RtTransport::sendState(Rank dst, core::StateTag tag, Bytes size,
                            std::shared_ptr<const sim::Payload> payload) {
  world_.postState(self_, dst, tag, size, std::move(payload));
}

void RtTransport::sendStateBroadcast(
    const std::vector<Rank>& dsts, core::StateTag tag, Bytes size,
    std::shared_ptr<const sim::Payload> payload) {
  world_.postStateBroadcast(self_, dsts, tag, size, payload);
}

void RtTransport::schedule(SimTime delay, std::function<void()> fn) {
  world_.scheduleOnCallingNode(delay, std::move(fn));
}

// ---- RtWorld lifecycle ----------------------------------------------------

RtWorld::RtWorld(RtConfig cfg) : cfg_(cfg) {
  LOADEX_EXPECT(cfg_.nprocs >= 1, "RtWorld needs at least one rank");
  fault_hooks_ = cfg_.faults.enabled();
  nodes_.reserve(static_cast<std::size_t>(cfg_.nprocs));
  for (Rank r = 0; r < cfg_.nprocs; ++r) {
    nodes_.push_back(std::make_unique<Node>(cfg_, r));
    nodes_.back()->transport = std::make_unique<RtTransport>(*this, r);
    if (cfg_.faults.messages.enabled())
      nodes_.back()->fault_rng = std::make_unique<Rng>(
          cfg_.faults.messages.seed ^
          (0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(r + 1)));
  }
}

RtWorld::~RtWorld() { stop(); }

std::vector<core::Transport*> RtWorld::transports() {
  std::vector<core::Transport*> out;
  out.reserve(nodes_.size());
  for (auto& n : nodes_) out.push_back(n->transport.get());
  return out;
}

void RtWorld::attach(Rank r, sim::StateHandler* handler) {
  LOADEX_EXPECT(!started_, "attach() must precede start()");
  node(r).handler = handler;
}

void RtWorld::superviseMechanisms(core::MechanismSet* mechs) {
  LOADEX_EXPECT(!started_, "superviseMechanisms() must precede start()");
  mechs_ = mechs;
}

void RtWorld::start() {
  LOADEX_EXPECT(!started_, "RtWorld can only start once");
  started_ = true;
  const SimTime t0 = clock_.now();
  for (auto& n : nodes_) n->heartbeat.store(t0, std::memory_order_relaxed);
  // Resolve the pool shape: enough shards that workers rarely contend,
  // never more than ranks (an empty shard is pure overhead), and never
  // more workers than shards (the surplus could not own anything).
  const auto hw = static_cast<int>(std::thread::hardware_concurrency());
  int workers = cfg_.executor.workers > 0
                    ? cfg_.executor.workers
                    : std::max(1, std::min(cfg_.nprocs, hw > 0 ? hw : 4));
  int shards = cfg_.executor.shards > 0 ? cfg_.executor.shards : 2 * workers;
  shards = std::max(1, std::min(shards, cfg_.nprocs));
  workers = std::max(1, std::min(workers, shards));
  n_workers_ = workers;
  n_shards_ = shards;
  shards_.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) shards_.push_back(std::make_unique<Shard>());
  for (auto& n : nodes_) {
    Shard& sh = *shards_[static_cast<std::size_t>(n->rank) %
                         static_cast<std::size_t>(shards)];
    {
      const sync::MutexLock lk(sh.mu);
      sh.members.push_back(n.get());
    }
    n->shard = &sh;
    n->wheel.bindToShard(&sh.mu);
  }
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w)
    workers_.emplace_back(&RtWorld::workerLoop, this, w);
  if (cfg_.faults.needsSupervisor()) {
    supervisor_ = std::make_unique<Supervisor>(*this, mechs_);
    supervisor_->start();
  }
}

void RtWorld::stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Join the supervisor first: once it is gone the lifecycle states are
  // frozen, so the per-node checks below cannot race a scripted crash.
  if (supervisor_) supervisor_->stop();
  // Publish the countdown before raising stopping_, or a worker could
  // observe (stopping && remaining == 0) and exit with Stops (and the
  // envelopes ahead of them) still queued.
  std::int64_t count = 0;
  for (auto& n : nodes_)
    if (!(fault_hooks_ && lifeOf(*n) == RankLife::kCrashed)) ++count;
  stops_remaining_.store(count, std::memory_order_release);
  stopping_.store(true, std::memory_order_release);
  for (auto& n : nodes_) {
    if (fault_hooks_ && lifeOf(*n) == RankLife::kCrashed)
      continue;  // sealed: nobody consumes there, nothing to stop
    pending_.fetch_add(1, std::memory_order_relaxed);
    n->mailbox.push(Stop{});
  }
  for (auto& w : workers_)
    if (w.joinable()) w.join();
  // Last sealed-mailbox sweep: racing senders may have landed envelopes
  // after the supervisor's final sweep.
  if (fault_hooks_) sweepCrashedMailboxes();
}

bool RtWorld::drain(double timeout_s, bool log_on_timeout) {
  const SimTime deadline = clock_.now() + timeout_s;
  for (int iter = 0;; ++iter) {
    if (pending_.load(std::memory_order_acquire) == 0) return true;
    // Crashed mailboxes have no consumer: collect what racing senders
    // landed after the seal, or pending never reaches zero.
    if (fault_hooks_ && iter % 20 == 0) sweepCrashedMailboxes();
    if (clock_.now() >= deadline) break;
    MonotonicClock::sleepFor(50e-6);
  }
  if (fault_hooks_) sweepCrashedMailboxes();
  if (pending_.load(std::memory_order_acquire) == 0) return true;
  if (log_on_timeout) logDrainDiagnostics();
  return false;
}

void RtWorld::logDrainDiagnostics() const {
  LOG_WARN("rt drain timed out with "
           << pending_.load(std::memory_order_acquire)
           << " pending work item(s); per-rank depths:");
  for (const auto& n : nodes_) {
    const std::size_t mb = n->mailbox.approxSize();
    const std::size_t sp = n->pub_spill.load(std::memory_order_relaxed);
    const std::size_t tw =
        n->pub_wheel_pending.load(std::memory_order_relaxed);
    const RankLife life = lifeOf(*n);
    if (mb == 0 && sp == 0 && tw == 0 && life == RankLife::kAlive) continue;
    LOG_WARN("  rank " << n->rank << " [" << rankLifeName(life)
                       << "]: mailbox=" << mb << " spill=" << sp
                       << " armed_timers=" << tw);
  }
}

// ---- node access ----------------------------------------------------------

RtWorld::Node& RtWorld::node(Rank r) {
  LOADEX_EXPECT(r >= 0 && r < nprocs(), "rank out of range");
  return *nodes_[static_cast<std::size_t>(r)];
}

const RtWorld::Node& RtWorld::node(Rank r) const {
  LOADEX_EXPECT(r >= 0 && r < nprocs(), "rank out of range");
  return *nodes_[static_cast<std::size_t>(r)];
}

thread_local RtWorld::Node* RtWorld::t_current_node = nullptr;

RtWorld::Node& RtWorld::callingNode() {
  LOADEX_EXPECT(t_current_node != nullptr, "not running inside a rank");
  return *t_current_node;
}

// ---- posting --------------------------------------------------------------

void RtWorld::postState(Rank src, Rank dst, core::StateTag tag, Bytes size,
                        std::shared_ptr<const sim::Payload> payload) {
  // Mechanisms send only from inside their own rank; route through that
  // node's spill queue so a full peer mailbox never blocks the sender.
  Node& sender = node(src);
  LOADEX_EXPECT(&callingNode() == &sender,
                "mechanism API driven from outside its rank (post a closure "
                "with RtWorld::post instead)");
  ++sender.state_posted;
  sender.state_bytes += size;
  pending_.fetch_add(1, std::memory_order_relaxed);
  sendFromNode(sender, dst,
               sim::Message{src, dst, sim::Channel::kState,
                            static_cast<int>(tag), size, std::move(payload)});
}

void RtWorld::postStateBroadcast(
    Rank src, const std::vector<Rank>& dsts, core::StateTag tag, Bytes size,
    const std::shared_ptr<const sim::Payload>& payload) {
  Node& sender = node(src);
  LOADEX_EXPECT(&callingNode() == &sender,
                "mechanism API driven from outside its rank (post a closure "
                "with RtWorld::post instead)");
  const auto copies = static_cast<std::int64_t>(dsts.size());
  sender.state_posted += copies;
  sender.state_bytes += copies * size;
  // Counted before the first copy can reach a receiver, so no handler
  // can settle a copy the counter has not seen yet.
  pending_.fetch_add(copies, std::memory_order_relaxed);
  for (const Rank dst : dsts)
    sendFromNode(sender, dst,
                 sim::Message{src, dst, sim::Channel::kState,
                              static_cast<int>(tag), size, payload});
}

void RtWorld::scheduleOnCallingNode(double delay, std::function<void()> fn) {
  Node& n = callingNode();
  timers_armed_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_relaxed);
  n.wheel.schedule(clock_.now(), delay, std::move(fn));
}

void RtWorld::post(Rank r, std::function<void()> fn) {
  LOADEX_EXPECT(started_ && !stopped_, "post() needs a running world");
  task_posted_.fetch_add(1, std::memory_order_relaxed);
  Envelope e = std::move(fn);
  pending_.fetch_add(1, std::memory_order_relaxed);
  Node& d = node(r);
  if (!fault_hooks_) {
    d.mailbox.push(std::move(e));  // blocking backpressure: driver only
    return;
  }
  // Under a fault plan the destination can crash at any moment; a
  // blocking push would then wait forever on a consumer that is gone.
  // Bounded-slice retries re-checking the seal keep the driver safe.
  for (;;) {
    if (lifeOf(d) == RankLife::kCrashed) {
      noteDropped(e, dropped_at_sealed_mailbox_);
      return;
    }
    if (d.mailbox.tryPush(std::move(e))) return;
    MonotonicClock::sleepFor(20e-6);
  }
}

bool RtWorld::tryPost(Rank r, std::function<void()> fn) {
  LOADEX_EXPECT(started_, "tryPost() needs a started world");
  Node& d = node(r);
  if (fault_hooks_ && lifeOf(d) == RankLife::kCrashed) return false;
  Envelope e = std::move(fn);
  pending_.fetch_add(1, std::memory_order_relaxed);
  if (!d.mailbox.tryPush(std::move(e))) {
    pending_.fetch_sub(1, std::memory_order_release);
    return false;
  }
  task_posted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RtWorld::postWhenFree(Rank r, std::function<void()> fn, double retry_s) {
  post(r, [this, r, fn = std::move(fn), retry_s]() mutable {
    runWhenFree(node(r), std::move(fn), retry_s);
  });
}

void RtWorld::postTask(Rank from, Rank to, std::function<void()> fn) {
  task_posted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_relaxed);
  Node& src = node(from);
  LOADEX_EXPECT(&callingNode() == &src,
                "postTask must run inside the `from` rank");
  sendFromNode(src, to, std::move(fn));
}

// ---- sending + fault injection --------------------------------------------

void RtWorld::noteDropped(const Envelope& e,
                          std::atomic<std::int64_t>& reason) {
  reason.fetch_add(1, std::memory_order_relaxed);
  (std::holds_alternative<sim::Message>(e) ? state_dropped_ : task_dropped_)
      .fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_sub(1, std::memory_order_release);
}

void RtWorld::sendFromNode(Node& src, Rank dst, Envelope&& e) {
  if (fault_hooks_) {
    sendFromNodeFaulty(src, dst, std::move(e));
    return;
  }
  enqueueFromNode(src, dst, std::move(e), 0.0);
}

void RtWorld::sendFromNodeFaulty(Node& src, Rank dst, Envelope&& e) {
  const bool is_state = std::holds_alternative<sim::Message>(e);
  const auto& fp = cfg_.faults.messages;
  SimTime hold = 0.0;
  bool duplicate = false;
  if (fp.enabled() && (is_state ? fp.affects_state : fp.affects_app)) {
    const SimTime t = clock_.now();
    for (const auto& b : fp.blackouts) {
      if (!b.matches(src.rank, dst, t)) continue;
      noteDropped(e, fault_drops_);
      return;
    }
    // Draw order is fixed (drop, duplicate, spike) so a sender's fault
    // stream depends only on its seed and send sequence.
    Rng& rng = *src.fault_rng;
    if (fp.drop_prob > 0.0 && rng.uniformReal() < fp.drop_prob) {
      noteDropped(e, fault_drops_);
      return;
    }
    if (fp.duplicate_prob > 0.0 && rng.uniformReal() < fp.duplicate_prob)
      duplicate = true;
    if (fp.latency_spike_prob > 0.0 &&
        rng.uniformReal() < fp.latency_spike_prob) {
      hold = t + fp.latency_spike_s;
      latency_spikes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (duplicate) {
    // The copy rides right behind the original: per-pair FIFO holds, the
    // receiver just sees the payload twice.
    (is_state ? state_duplicated_ : task_duplicated_)
        .fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1, std::memory_order_relaxed);
    Envelope copy = e;
    enqueueFromNode(src, dst, std::move(e), hold);
    enqueueFromNode(src, dst, std::move(copy), hold);
    return;
  }
  enqueueFromNode(src, dst, std::move(e), hold);
}

void RtWorld::assertSenderOwned(const Node& n) const {
  // Ownership is the shard lock, not thread identity: the worker flushing
  // a rank's spill is routinely not the one that filled it.
  n.shard->mu.assertHeld();
}

void RtWorld::enqueueFromNode(Node& src, Rank dst, Envelope&& e,
                              SimTime not_before) {
  assertSenderOwned(src);
  Node& d = node(dst);
  if (fault_hooks_ && lifeOf(d) == RankLife::kCrashed) {
    noteDropped(e, dropped_at_sealed_mailbox_);
    return;
  }
  auto& q = src.spill[static_cast<std::size_t>(dst)];
  // Once a destination has spilled (or holds a delayed envelope), later
  // envelopes to it must queue behind the spill or per-pair FIFO breaks.
  if (not_before <= 0.0 && (q == nullptr || q->empty()) &&
      d.mailbox.tryPush(std::move(e)))
    return;
  if (not_before <= 0.0) ++src.spill_enqueues;
  if (q == nullptr) q = std::make_unique<std::deque<SpillEntry>>();
  if (q->empty()) src.spill_dirty.push_back(dst);
  q->push_back({std::move(e), not_before});
  ++src.spill_size;
}

void RtWorld::flushSpill(Node& n) {
  assertSenderOwned(n);
  if (n.spill_size == 0) return;
  SimTime now = -1.0;  // read lazily: only held entries need the clock
  std::size_t keep = 0;  // compaction cursor over the dirty list
  for (std::size_t i = 0; i < n.spill_dirty.size(); ++i) {
    const Rank d = n.spill_dirty[i];
    auto& q = *n.spill[static_cast<std::size_t>(d)];
    while (!q.empty()) {
      SpillEntry& front = q.front();
      if (front.not_before > 0.0) {
        if (now < 0.0) now = clock_.now();
        if (front.not_before > now) break;  // held: successors wait too
      }
      if (fault_hooks_ && lifeOf(node(d)) == RankLife::kCrashed) {
        noteDropped(front.e, dropped_at_sealed_mailbox_);
        q.pop_front();
        --n.spill_size;
        continue;
      }
      // tryPush only consumes its argument on success, so a failed
      // attempt leaves the entry intact for the next loop turn.
      if (!node(d).mailbox.tryPush(std::move(front.e))) break;
      q.pop_front();
      --n.spill_size;
    }
    if (!q.empty()) n.spill_dirty[keep++] = d;
  }
  n.spill_dirty.resize(keep);
}

void RtWorld::runWhenFree(Node& n, std::function<void()>&& fn,
                          double retry_s) {
  if (n.handler != nullptr && n.handler->blocksComputation()) {
    // Defer: arm a retry timer carrying the closure forward. No
    // self-referencing callback — each deferral builds a fresh one.
    timers_armed_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_add(1, std::memory_order_relaxed);
    n.wheel.schedule(clock_.now(), retry_s,
                     [this, &n, fn = std::move(fn), retry_s]() mutable {
                       runWhenFree(n, std::move(fn), retry_s);
                     });
    return;
  }
  fn();
}

// ---- rank lifecycle -------------------------------------------------------

RankLife RtWorld::rankLife(Rank r) const { return lifeOf(node(r)); }

void RtWorld::crashRank(Rank r) {
  LOADEX_EXPECT(fault_hooks_, "crashRank needs an enabled fault plan");
  LOADEX_EXPECT(started_, "crashRank needs a started world");
  LOADEX_EXPECT(t_current_node == nullptr,
                "lifecycle transitions must come from a driver/supervisor "
                "thread, not from inside a rank");
  Node& n = node(r);
  // A crash is a shard-local state transition. Taking the shard lock
  // (rank kShard, below kLifecycle) makes this thread the unique owner of
  // the victim's wheel, spill and mailbox consumption — no thread exits;
  // workers simply skip the rank from the seal on.
  const sync::MutexLock shlk(n.shard->mu);
  const sync::MutexLock lk(lifecycle_mu_);
  if (lifeOf(n) == RankLife::kCrashed) return;
  n.life.store(static_cast<int>(RankLife::kCrashed),
               std::memory_order_release);
  crashTeardown(n);
  crashes_.fetch_add(1, std::memory_order_relaxed);
  sweepMailboxLocked(n);
}

void RtWorld::pauseRank(Rank r) {
  LOADEX_EXPECT(fault_hooks_, "pauseRank needs an enabled fault plan");
  const sync::MutexLock lk(lifecycle_mu_);
  Node& n = node(r);
  if (lifeOf(n) != RankLife::kAlive) return;
  n.life.store(static_cast<int>(RankLife::kPaused),
               std::memory_order_release);
}

void RtWorld::resumeRank(Rank r) {
  LOADEX_EXPECT(fault_hooks_, "resumeRank needs an enabled fault plan");
  const sync::MutexLock lk(lifecycle_mu_);
  Node& n = node(r);
  if (lifeOf(n) != RankLife::kPaused) return;
  // Refresh the heartbeat before unparking so the failure detector sees
  // the rank alive as soon as it is.
  n.heartbeat.store(clock_.now(), std::memory_order_relaxed);
  n.life.store(static_cast<int>(RankLife::kAlive),
               std::memory_order_release);
}

void RtWorld::restartRank(Rank r) {
  LOADEX_EXPECT(fault_hooks_, "restartRank needs an enabled fault plan");
  LOADEX_EXPECT(started_, "restartRank needs a started world");
  LOADEX_EXPECT(t_current_node == nullptr,
                "lifecycle transitions must come from a driver/supervisor "
                "thread, not from inside a rank");
  Node& n = node(r);
  // Revival is a life flip under the shard lock — the next worker pass
  // picks the rank up again. No thread to spawn.
  const sync::MutexLock shlk(n.shard->mu);
  const sync::MutexLock lk(lifecycle_mu_);
  if (lifeOf(n) != RankLife::kCrashed) return;
  sweepMailboxLocked(n);  // envelopes landed while sealed die with the crash
  n.heartbeat.store(clock_.now(), std::memory_order_relaxed);
  n.life.store(static_cast<int>(RankLife::kAlive), std::memory_order_release);
  restarts_.fetch_add(1, std::memory_order_relaxed);
}

void RtWorld::sweepCrashedMailboxes() {
  if (!fault_hooks_) return;
  LOADEX_EXPECT(t_current_node == nullptr,
                "sweeps must come from a driver/supervisor thread");
  // Sweeping pops a sealed mailbox, so the sweeper must hold the victim's
  // shard lock to be its unique consumer (workers check life under the
  // same lock). Shard-by-shard keeps the stall local; before start()
  // there are no shards and nothing to sweep.
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    const sync::MutexLock shlk(sh.mu);
    const sync::MutexLock lk(lifecycle_mu_);
    for (Node* np : sh.members)
      if (lifeOf(*np) == RankLife::kCrashed) sweepMailboxLocked(*np);
  }
}

void RtWorld::sweepMailboxLocked(Node& n) {
  LOADEX_ASSERT_HELD(lifecycle_mu_);
  n.shard->mu.assertHeld();  // the sweeper must be the unique consumer
  Envelope e;
  while (n.mailbox.tryPop(e)) {
    if (std::holds_alternative<Stop>(e)) {
      pending_.fetch_sub(1, std::memory_order_release);
      continue;
    }
    noteDropped(e, crash_discards_);
  }
}

void RtWorld::crashTeardown(Node& n) {
  // Armed timers die with the rank: their closures never run.
  const std::size_t cancelled = n.wheel.cancelAll();
  if (cancelled != 0) {
    timers_cancelled_.fetch_add(static_cast<std::int64_t>(cancelled),
                                std::memory_order_relaxed);
    pending_.fetch_sub(static_cast<std::int64_t>(cancelled),
                       std::memory_order_release);
  }
  // The outbound backlog dies too; the inbound mailbox is swept by
  // whoever drove the crash, once it is the unique consumer.
  for (auto& q : n.spill) {
    if (q == nullptr) continue;
    for (auto& entry : *q) noteDropped(entry.e, crash_discards_);
    q->clear();
  }
  n.spill_dirty.clear();
  n.spill_size = 0;
  n.pub_wheel_pending.store(0, std::memory_order_relaxed);
  n.pub_spill.store(0, std::memory_order_relaxed);
}

// ---- M:N sharded executor -------------------------------------------------

void RtWorld::workerLoop(int w) {
  // Fastest idle re-poll; backs off exponentially to max_idle_wait_s so
  // a sparse message chain sees ~tens of µs latency while a truly idle
  // pool costs one wake per worker per max_idle_wait_s.
  constexpr double kMinIdleS = 20e-6;
  std::vector<Envelope> scratch(kDrainChunk);
  double backoff = kMinIdleS;
  // Steal-rate accounting: plain worker-locals on the hot path, folded
  // into the world atomics (and the obs registry, per worker) at exit.
  std::int64_t visits_home = 0;
  std::int64_t visits_stolen = 0;
  const auto fold_visits = [&] {
    shard_visits_home_.fetch_add(visits_home, std::memory_order_relaxed);
    shard_visits_stolen_.fetch_add(visits_stolen, std::memory_order_relaxed);
    LOADEX_METRIC(counter("rt/worker" + std::to_string(w) + "/visits_home")
                      .add(visits_home));
    LOADEX_METRIC(counter("rt/worker" + std::to_string(w) + "/visits_stolen")
                      .add(visits_stolen));
  };
  for (;;) {
    Pass pass;
    // Home pass: the shards this worker owns (s ≡ w mod workers). A
    // try_lock miss means another worker is in there stealing — the
    // shard's work is being done either way.
    for (int s = w; s < n_shards_; s += n_workers_)
      if (tryRunShard(*shards_[static_cast<std::size_t>(s)], scratch, pass))
        ++visits_home;
    // Steal pass: opportunistically visit everyone else's shards. One
    // shard lock at a time (the home pass released before this), so no
    // worker ever nests two kShard acquisitions.
    if (cfg_.executor.steal) {
      for (int off = 1; off < n_shards_; ++off) {
        const int s = (w + off) % n_shards_;
        if (s % n_workers_ == w) continue;  // home, already visited
        if (tryRunShard(*shards_[static_cast<std::size_t>(s)], scratch, pass))
          ++visits_stolen;
      }
    }
    if (stopping_.load(std::memory_order_acquire) &&
        stops_remaining_.load(std::memory_order_acquire) <= 0) {
      fold_visits();
      return;
    }
    if (pass.did_work) {
      backoff = kMinIdleS;
      continue;
    }
    // Armed timers / pending spill cap the sleep so neither is stalled
    // by a full backoff.
    MonotonicClock::sleepFor(pass.urgent ? std::min(backoff, 1e-4)
                                         : backoff);
    backoff = std::min(backoff * 2.0, cfg_.max_idle_wait_s);
  }
}

bool RtWorld::tryRunShard(Shard& sh, std::vector<Envelope>& scratch,
                          Pass& pass) {
  if (!sh.mu.try_lock()) return false;
  runShardLocked(sh, scratch, pass);
  sh.mu.unlock();
  return true;
}

void RtWorld::runShardLocked(Shard& sh, std::vector<Envelope>& scratch,
                             Pass& pass) {
  for (Node* np : sh.members) processShardNode(sh, *np, scratch, pass);
}

void RtWorld::processShardNode(Shard& sh, Node& n,
                               std::vector<Envelope>& scratch, Pass& pass) {
  (void)sh;  // the capability the annotation names; unused at runtime
  if (n.stopped) return;
  if (fault_hooks_) {
    const RankLife life = lifeOf(n);
    if (life == RankLife::kCrashed) return;  // sealed: driver tore it down
    if (life == RankLife::kPaused) {
      // Parked: consume nothing until resumed — except during stop,
      // when the Stop must drain.
      if (!stopping_.load(std::memory_order_acquire)) return;
    } else {
      n.heartbeat.store(clock_.now(), std::memory_order_relaxed);
    }
  }
  // Handlers observe the rank they run as via a thread-local, reset
  // before the worker moves to the next rank.
  t_current_node = &n;
  n.pub_wheel_pending.store(n.wheel.pending(), std::memory_order_relaxed);
  n.pub_spill.store(n.spill_size, std::memory_order_relaxed);

  const int fired = n.wheel.fireDue(clock_.now());
  n.timers_fired += fired;
  flushSpill(n);

  // Drain the whole backlog: the fixed cost above, the spill rescan
  // above all, is then paid once per backlog rather than once per
  // chunk. Capping a visit at one mailbox capacity keeps a rank whose
  // handlers feed its own mailbox from holding the shard lock forever.
  const std::size_t budget = n.mailbox.capacity();
  std::size_t taken = 0;
  std::int64_t ran = fired;  // settled in one step once they all returned
  while (taken < budget) {
    const std::size_t k = n.mailbox.tryPopBatch(
        scratch.data(), std::min(scratch.size(), budget - taken));
    if (k == 0) break;
    taken += k;
    for (std::size_t i = 0; i < k; ++i) {
      Envelope& e = scratch[i];
      std::visit(Overloaded{
                     [&](const sim::Message& m) {
                       ++n.delivered_state;
                       LOADEX_EXPECT(n.handler != nullptr,
                                     "state message with no handler");
                       n.handler->onStateMessage(m);
                       ++ran;
                     },
                     [&](std::function<void()>& fn) {
                       ++n.delivered_task;
                       fn();
                       ++ran;
                     },
                     [&](Stop) {
                       // Mark the rank done but deliver the rest of the
                       // backlog — an envelope behind a Stop only exists
                       // on undrained stops, and delivering beats
                       // stranding it. The stop protocol needs this one
                       // settled now, not at the end of the visit.
                       n.stopped = true;
                       pending_.fetch_sub(1, std::memory_order_release);
                       stops_remaining_.fetch_sub(1,
                                                  std::memory_order_release);
                     },
                 },
                 e);
      e = Envelope{};  // drop payload/closure refs eagerly
    }
  }
  // Settle only after every handler of the visit ran: anything they
  // posted is already counted, so pending can never dip to a false zero.
  if (ran > 0) pending_.fetch_sub(ran, std::memory_order_release);
  if (ran > 0 || taken > 0) pass.did_work = true;
  if (n.wheel.pending() > 0 || n.spill_size > 0) pass.urgent = true;
  t_current_node = nullptr;
}

// ---- stats ----------------------------------------------------------------

RtWorld::LifecycleCounts RtWorld::lifecycleCounts() const {
  LifecycleCounts c;
  c.crashes = crashes_.load(std::memory_order_relaxed);
  c.restarts = restarts_.load(std::memory_order_relaxed);
  c.suspects_flagged = suspects_flagged_.load(std::memory_order_relaxed);
  c.deaths_declared = deaths_declared_.load(std::memory_order_relaxed);
  c.revives = revives_.load(std::memory_order_relaxed);
  return c;
}

RtRunStats RtWorld::runStats() const {
  RtRunStats s;
  s.task_posted = task_posted_.load(std::memory_order_relaxed);
  s.timers_armed = timers_armed_.load(std::memory_order_relaxed);
  s.shard_visits_home = shard_visits_home_.load(std::memory_order_relaxed);
  s.shard_visits_stolen =
      shard_visits_stolen_.load(std::memory_order_relaxed);
  s.state_dropped = state_dropped_.load(std::memory_order_relaxed);
  s.task_dropped = task_dropped_.load(std::memory_order_relaxed);
  s.state_duplicated = state_duplicated_.load(std::memory_order_relaxed);
  s.task_duplicated = task_duplicated_.load(std::memory_order_relaxed);
  s.fault_drops = fault_drops_.load(std::memory_order_relaxed);
  s.latency_spikes = latency_spikes_.load(std::memory_order_relaxed);
  s.dropped_at_sealed_mailbox =
      dropped_at_sealed_mailbox_.load(std::memory_order_relaxed);
  s.crash_discards = crash_discards_.load(std::memory_order_relaxed);
  s.timers_cancelled = timers_cancelled_.load(std::memory_order_relaxed);
  s.crashes = crashes_.load(std::memory_order_relaxed);
  s.restarts = restarts_.load(std::memory_order_relaxed);
  s.resyncs = resyncs_.load(std::memory_order_relaxed);
  s.suspects_flagged = suspects_flagged_.load(std::memory_order_relaxed);
  s.deaths_declared = deaths_declared_.load(std::memory_order_relaxed);
  s.revives = revives_.load(std::memory_order_relaxed);
  for (const auto& n : nodes_) {
    s.state_posted += n->state_posted;
    s.state_bytes += n->state_bytes;
    s.spill_enqueues += n->spill_enqueues;
    s.state_delivered += n->delivered_state;
    s.task_delivered += n->delivered_task;
    s.timers_fired += n->timers_fired;
    const MailboxStats ms = n->mailbox.stats();
    s.mailbox_pushes += ms.pushes;
    s.mailbox_pops += ms.pops;
    s.mailbox_full_rejections += ms.full_rejections;
    s.mailbox_blocking_waits += ms.blocking_waits;
  }
  return s;
}

}  // namespace loadex::rt
