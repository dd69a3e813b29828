#include "svc/service_app.h"

#include <utility>

#include "common/expect.h"
#include "harness/replay.h"

namespace loadex::svc {

core::AuditorConfig svcAuditorConfig(bool faulty) {
  core::AuditorConfig a;
  // Requests carry ~1e6-flop work values and a long run delegates 1e5+ of
  // them, so the reservation ledger accumulates double rounding far above
  // the default 1e-6 absolute slack. One flop of tolerance is negligible
  // against any request yet orders of magnitude above that drift.
  a.tolerance = 1.0;
  if (faulty) {
    // A lossy / crashing run violates these by design: delivery gaps,
    // lost increments corrupting remote views, reservations unmatched at
    // a dead server. That degradation is the measurement, not a bug.
    a.allow_message_loss = true;
    a.allow_crashes = true;
    a.check_conservation = false;
    a.check_reservations = false;
  }
  return a;
}

Dispatcher::Dispatcher(PolicyKind policy, double stale_refresh_s,
                       std::uint64_t policy_seed, const ArrivalScript& script,
                       SvcLedger& ledger, core::Mechanism* mech, Clock now,
                       Deliver deliver)
    : script_(script),
      ledger_(ledger),
      mech_(mech),
      now_(std::move(now)),
      deliver_(std::move(deliver)),
      policy_rng_(policy_seed) {
  LOADEX_EXPECT((mech != nullptr) == policyUsesMechanism(policy),
                "mechanism must match the policy kind");
  if (mech == nullptr) policy_ = makePolicy(policy, stale_refresh_s);
}

void Dispatcher::arrive(std::size_t idx) {
  const Arrival& a = script_.arrivals[idx];
  ledger_.arrived(a.id, now_());
  digest_.fold(a);
  pending_.push_back(idx);
  dispatchPending();
}

void Dispatcher::dispatchPending() {
  if (draining_) return;  // the active loop below picks the request up
  draining_ = true;
  while (!pending_.empty()) {
    if (mech_ != nullptr && view_in_flight_) break;
    const std::size_t idx = pending_.front();
    pending_.pop_front();
    const Arrival& a = script_.arrivals[idx];
    if (mech_ != nullptr) {
      dispatchViaMechanism(a);
    } else {
      dispatchDirect(a);
    }
  }
  draining_ = false;
}

void Dispatcher::dispatchDirect(const Arrival& a) {
  ledger_.snapshotBoard(board_scratch_);
  DispatchContext ctx;
  ctx.servers = &board_scratch_;
  ctx.self = 0;
  ctx.now = now_();
  const Rank server = policy_->choose(ctx, policy_rng_);
  if (server == kNoRank) {
    ledger_.dropped(a.id, DropCause::kNoCandidate, ctx.now);
    return;
  }
  sendRequest(a, server, policy_->lastInfoAge());
}

void Dispatcher::dispatchViaMechanism(const Arrival& a) {
  view_in_flight_ = true;
  harness::selectAndCommit(
      *mech_, {a.work, 0.0},
      [this, a](const core::LoadView& v, Rank slave) {
        // Age of the entry the decision acted on. lastHeardFrom is 0 for
        // a rank never heard from, so early decisions read as "as old as
        // the run" — correct: the view really is that uninformed.
        sendRequest(a, slave, now_() - v.lastHeardFrom(slave));
        view_in_flight_ = false;
        dispatchPending();
      },
      [this, a](const core::LoadView&) {
        ledger_.dropped(a.id, DropCause::kNoCandidate, now_());
        view_in_flight_ = false;
        dispatchPending();
      });
}

void Dispatcher::sendRequest(const Arrival& a, Rank server,
                             double info_age) {
  ledger_.dispatched(a.id, server, a.work, now_(), info_age);
  deliver_(a, server);
}

ServiceApp::ServiceApp(const SvcSimConfig& cfg, const ArrivalScript& script,
                       SvcLedger& ledger, core::MechanismSet* mechs)
    : cfg_(cfg),
      script_(script),
      ledger_(ledger),
      mechs_(mechs),
      dispatcher_(
          cfg.policy, cfg.stale_refresh_s, cfg.policy_seed, script, ledger,
          mechs != nullptr ? &mechs->at(0) : nullptr,
          [this] { return front_end_->now(); },
          [this](const Arrival& a, Rank server) {
            auto payload = std::make_shared<RequestPayload>();
            payload->id = a.id;
            payload->work = a.work;
            front_end_->send(server, sim::Channel::kApp, kSvcRequestTag,
                             a.bytes, std::move(payload));
          }),
      queues_(static_cast<std::size_t>(cfg.nprocs)) {
  LOADEX_EXPECT(cfg.nprocs >= 2, "svc needs a dispatcher and a server");
}

void ServiceApp::onStart(sim::Process& p) {
  const Rank r = p.rank();
  if (r == 0) {
    front_end_ = &p;
    if (!script_.arrivals.empty())
      p.queue().scheduleAt(script_.arrivals.front().time,
                           [this] { injectArrival(0); });
    return;
  }
  if (mechs_ != nullptr && cfg_.servers_announce_no_more_master)
    mechs_->at(r).noMoreMaster();
}

void ServiceApp::injectArrival(std::size_t idx) {
  if (idx + 1 < script_.arrivals.size())
    front_end_->queue().scheduleAt(script_.arrivals[idx + 1].time,
                                   [this, idx] { injectArrival(idx + 1); });
  dispatcher_.arrive(idx);
}

void ServiceApp::onAppMessage(sim::Process& p, const sim::Message& m) {
  if (m.tag != kSvcRequestTag) return;
  const auto& req = m.as<RequestPayload>();
  // Zombie delivery: the request was already dropped at a crash (it was
  // in flight while the server was down and got here after the restart).
  if (ledger_.terminal(req.id)) return;
  const Rank r = p.rank();
  ledger_.enqueued(req.id, p.now());
  queues_[static_cast<std::size_t>(r)].push_back({req.id, req.work});
  // Delegated load: the master's reservation already announced it
  // (Alg. 3 line (1) — positive delegated deltas are not self-reported).
  if (mechs_ != nullptr)
    mechs_->at(r).addLocalLoad({req.work, 0.0}, /*is_slave_delegated=*/true);
}

std::optional<sim::ComputeTask> ServiceApp::nextTask(sim::Process& p) {
  const Rank r = p.rank();
  if (r == 0) return std::nullopt;  // the dispatcher never computes
  auto& q = queues_[static_cast<std::size_t>(r)];
  if (q.empty()) return std::nullopt;
  const QueuedRequest req = q.front();
  q.pop_front();
  ledger_.started(req.id, p.now());
  sim::ComputeTask task;
  task.work = req.work;
  task.label = "svc";
  task.on_complete = [this, req](sim::Process& pp) {
    ledger_.completed(req.id, pp.now());
    if (mechs_ != nullptr)
      mechs_->at(pp.rank()).addLocalLoad({-req.work, 0.0});
  };
  return task;
}

bool ServiceApp::finished(const sim::Process& p) const {
  const Rank r = p.rank();
  if (r == 0) return dispatcher_.idle();
  return queues_[static_cast<std::size_t>(r)].empty();
}

void ServiceApp::onProcessFault(sim::Process& p,
                                loadex::ProcessFaultEvent::Kind kind) {
  const Rank r = p.rank();
  if (r == 0) return;  // svc scenarios never crash the dispatcher
  if (kind == loadex::ProcessFaultEvent::Kind::kCrash) {
    ledger_.setAlive(r, false);
    ledger_.dropAssignedTo(r, p.now());
    queues_[static_cast<std::size_t>(r)].clear();
    if (mechs_ != nullptr) {
      // Zero the dead server's load accounting. The broadcast this would
      // normally trigger is silently lost (a crashed process transmits
      // nothing), so the survivors keep reading the stale pre-crash
      // value — the exact staleness pathology under study.
      const core::LoadMetrics lost = mechs_->at(r).localLoad();
      if (!lost.isZero())
        mechs_->at(r).addLocalLoad({-lost.workload, -lost.memory});
    }
  } else if (kind == loadex::ProcessFaultEvent::Kind::kRestart) {
    ledger_.setAlive(r, true);
    if (mechs_ != nullptr) mechs_->at(r).onRestart();
  }
}

SvcSimResult runSvcSim(const SvcSimConfig& cfg,
                       const ArrivalScript& script) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = cfg.nprocs;
  wcfg.network = cfg.network;
  wcfg.process = cfg.process;
  wcfg.speed_factors = cfg.speed_factors;
  wcfg.process_faults = cfg.process_faults;
  sim::World world(wcfg);

  std::unique_ptr<core::MechanismSet> mechs;
  std::unique_ptr<core::ProtocolAuditor> auditor;
  if (policyUsesMechanism(cfg.policy)) {
    mechs = std::make_unique<core::MechanismSet>(
        world, mechanismKindOf(cfg.policy), cfg.mech);
    if (cfg.attach_auditor) {
      core::AuditorConfig acfg = cfg.audit;
      // Announcers stop receiving updates, so their views go stale on
      // purpose; the cross-view coherence check no longer applies (same
      // gating as the rt differential suite).
      if (cfg.servers_announce_no_more_master)
        acfg.check_conservation = false;
      auditor = std::make_unique<core::ProtocolAuditor>(acfg);
      auditor->attach(*mechs, &world);
    }
  }

  SvcLedger ledger(static_cast<std::int64_t>(script.arrivals.size()),
                   cfg.nprocs);
  ServiceApp app(cfg, script, ledger, mechs.get());
  for (Rank r = 0; r < cfg.nprocs; ++r)
    world.attach(r, &app,
                 mechs != nullptr
                     ? static_cast<sim::StateHandler*>(&mechs->at(r))
                     : nullptr);

  const sim::RunResult run = world.run();
  LOADEX_EXPECT(!run.hit_limit, "svc run hit the event/time guard");
  const LedgerTotals totals = ledger.finalize(run.end_time);
  ledger.expectConserved();
  if (auditor != nullptr) {
    auditor->finish();
    auditor->expectClean();
  }

  return SvcSimResult{run,
                      totals,
                      ledger.sojourn(),
                      ledger.queueWait(),
                      ledger.service(),
                      ledger.meanInfoAge(),
                      app.injectedDigest(),
                      mechs != nullptr ? mechs->aggregateStats()
                                       : core::MechanismStats{}};
}

}  // namespace loadex::svc
