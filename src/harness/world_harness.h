// Shared world-building harness for scripted mechanism scenarios.
//
// Tests and benchmark drivers both need the same scaffolding: a World, one
// mechanism per rank, a minimal application that accounts delegated work,
// and scheduling helpers that respect snapshot blocking. This header is the
// single home for that scaffolding — tests/sim_test_utils.h re-exports it
// under the historical loadex::test names, and the scale benches build
// their synthetic workloads on top of it. SimReplay is the simulator's host
// for the shared script replay core (harness/replay.h).
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/audit.h"
#include "core/binding.h"
#include "core/mechanism.h"
#include "harness/replay.h"
#include "sim/application.h"
#include "sim/world.h"

namespace loadex::harness {

/// Application task payload used by scripted scenarios.
struct WorkPayload final : sim::Payload {
  Flops work = 0.0;
  core::LoadMetrics load_delta;   ///< applied on arrival via addLocalLoad
  bool is_slave_delegated = false;
};

inline constexpr int kWorkTag = 100;

/// A minimal application: per-rank FIFO of compute tasks; received
/// WorkPayload messages account their load with the local mechanism and
/// enqueue a task of the given size.
class ScriptedApp : public sim::Application {
 public:
  explicit ScriptedApp(int nprocs) : queues_(static_cast<std::size_t>(nprocs)) {}

  void setMechanisms(core::MechanismSet* mechs) { mechs_ = mechs; }

  void pushTask(Rank r, Flops work,
                std::function<void(sim::Process&)> on_complete = {}) {
    queues_[static_cast<std::size_t>(r)].push_back(
        sim::ComputeTask{work, "scripted", std::move(on_complete)});
  }

  void onAppMessage(sim::Process& p, const sim::Message& m) override {
    const auto& w = m.as<WorkPayload>();
    if (mechs_ != nullptr && !w.load_delta.isZero()) {
      mechs_->at(p.rank()).addLocalLoad(w.load_delta, w.is_slave_delegated);
    }
    pushTask(p.rank(), w.work);
  }

  std::optional<sim::ComputeTask> nextTask(sim::Process& p) override {
    auto& q = queues_[static_cast<std::size_t>(p.rank())];
    if (q.empty()) return std::nullopt;
    sim::ComputeTask t = std::move(q.front());
    q.pop_front();
    return t;
  }

  bool finished(const sim::Process& p) const override {
    return queues_[static_cast<std::size_t>(p.rank())].empty();
  }

 private:
  std::vector<std::deque<sim::ComputeTask>> queues_;
  core::MechanismSet* mechs_ = nullptr;
};

/// World + per-rank mechanisms + scripted app, wired together.
struct CoreHarness {
  sim::World world;
  core::MechanismSet mechs;
  ScriptedApp app;

  explicit CoreHarness(int nprocs, core::MechanismKind kind,
                       core::MechanismConfig config = {},
                       sim::WorldConfig wcfg = {})
      : world([&] {
          wcfg.nprocs = nprocs;
          return wcfg;
        }()),
        mechs(world, kind, config),
        app(nprocs) {
    app.setMechanisms(&mechs);
    for (Rank r = 0; r < nprocs; ++r) world.attach(r, &app, &mechs.at(r));
  }

  /// Attach a ProtocolAuditor verifying paper-level invariants online.
  /// Call finishAudit() after run() to add the quiescence checks and
  /// hard-fail on any recorded violation.
  core::ProtocolAuditor& attachAuditor(core::AuditorConfig cfg = {}) {
    auditor = std::make_unique<core::ProtocolAuditor>(cfg);
    auditor->attach(mechs, &world);
    return *auditor;
  }

  void finishAudit() {
    if (auditor == nullptr) return;
    auditor->finish();
    auditor->expectClean();
  }

  std::unique_ptr<core::ProtocolAuditor> auditor;

  /// Schedule an action at an absolute simulated time.
  void at(SimTime t, std::function<void()> fn) {
    world.queue().scheduleAt(t, std::move(fn));
  }

  /// Schedule an action at time t, deferring (by `retry` steps) while the
  /// rank's mechanism blocks computation — mirrors how a real process can
  /// only take decisions between tasks, never while a snapshot is live.
  /// The retry closure lives in retry_tasks_ (stable deque addresses) so it
  /// can re-schedule itself without a shared_ptr self-reference cycle.
  void atWhenFree(SimTime t, Rank who, std::function<void()> fn,
                  SimTime retry = 1e-5) {
    retry_tasks_.emplace_back();
    std::function<void()>* task = &retry_tasks_.back();
    *task = [this, who, fn = std::move(fn), retry, task] {
      if (mechs.at(who).blocksComputation()) {
        world.queue().scheduleAfter(retry, *task);
        return;
      }
      fn();
    };
    world.queue().scheduleAt(t, *task);
  }

  sim::RunResult run() { return world.run(); }

 private:
  std::deque<std::function<void()>> retry_tasks_;
};

/// Send a work message between processes (helper for scenarios).
inline void sendWork(sim::Process& from, Rank to, Flops work,
                     core::LoadMetrics load_delta, bool is_slave_delegated,
                     Bytes size = 1024) {
  auto payload = std::make_shared<WorkPayload>();
  payload->work = work;
  payload->load_delta = load_delta;
  payload->is_slave_delegated = is_slave_delegated;
  from.send(to, sim::Channel::kApp, kWorkTag, size, std::move(payload));
}

/// The sim host of the replay core: each op runs at its script time, and a
/// delegated share travels as a WorkPayload of share·1e3 flops. Construct
/// before run(); read tally() after it.
class SimReplay {
 public:
  SimReplay(CoreHarness& h, const Script& script)
      : h_(h), replay_(*this, script) {
    if (!replay_.done()) scheduleNext();
  }
  SimReplay(const SimReplay&) = delete;  // scheduled closures hold `this`
  SimReplay& operator=(const SimReplay&) = delete;

  const SelectionTally& tally(Rank r) const { return replay_.tally(r); }

  template <typename Fn>
  void runNow(Rank r, Fn fn) { fn(h_.mechs.at(r)); }
  template <typename Fn>
  void runWhenFree(Rank r, Fn fn) {
    h_.atWhenFree(now(), r, [this, r, fn] { fn(h_.mechs.at(r)); });
  }
  void delegate(Rank master, Rank slave, double share) {
    sendWork(h_.world.process(master), slave, /*work=*/share * 1e3,
             {share, 0.0}, /*is_slave_delegated=*/true);
  }
  SimTime now() const { return h_.world.now(); }

 private:
  void scheduleNext() {
    h_.at(replay_.nextTime(), [this] {
      replay_.applyNext();
      if (!replay_.done()) scheduleNext();
    });
  }

  CoreHarness& h_;
  ScriptReplay<SimReplay> replay_;
};

}  // namespace loadex::harness
