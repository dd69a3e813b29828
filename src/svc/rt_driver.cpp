#include "svc/rt_driver.h"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/expect.h"
#include "rt/audit_lock.h"
#include "rt/clock.h"
#include "rt/supervisor.h"

namespace loadex::svc {

SvcRtResult runSvcRt(const SvcRtConfig& cfg, const ArrivalScript& script) {
  LOADEX_EXPECT(cfg.nprocs >= 2, "svc needs a dispatcher and a server");
  rt::RtConfig rcfg = cfg.rt;
  rcfg.nprocs = cfg.nprocs;
  const bool crash_scripted = cfg.crash_rank != kNoRank;
  if (crash_scripted) {
    LOADEX_EXPECT(rcfg.faults.manual_control,
                  "the choreographed crash needs manual fault control");
    LOADEX_EXPECT(cfg.crash_rank > 0 && cfg.crash_rank < cfg.nprocs,
                  "crash_rank must be a server");
    LOADEX_EXPECT(cfg.crash_at_frac <= cfg.restart_at_frac,
                  "crash must precede restart");
  }
  rt::RtWorld world(rcfg);

  std::unique_ptr<core::MechanismSet> mechs;
  std::unique_ptr<core::ProtocolAuditor> auditor;
  std::unique_ptr<rt::RtAuditBinding> audit_binding;
  if (policyUsesMechanism(cfg.policy)) {
    mechs = std::make_unique<core::MechanismSet>(
        world.transports(), mechanismKindOf(cfg.policy), cfg.mech);
    if (cfg.attach_auditor) {
      core::AuditorConfig acfg = cfg.audit;
      // Same gating as runSvcSim: announcers' views go stale on
      // purpose, so cross-view coherence no longer applies.
      if (cfg.servers_announce_no_more_master)
        acfg.check_conservation = false;
      auditor = std::make_unique<core::ProtocolAuditor>(acfg);
      audit_binding =
          std::make_unique<rt::RtAuditBinding>(*auditor, *mechs);
    }
    for (Rank r = 0; r < cfg.nprocs; ++r) world.attach(r, &mechs->at(r));
    world.superviseMechanisms(mechs.get());
  }

  SvcLedger ledger(static_cast<std::int64_t>(script.arrivals.size()),
                   cfg.nprocs);
  // The request travels as a task envelope; a sealed (crashed)
  // destination drops it, which finalize() later books as kLost. The
  // serve closure runs on the server's thread: enqueue, start and
  // complete land back to back — the rt sojourn is dispatch + transport
  // latency, there is no simulated compute burn.
  core::MechanismSet* const ms = mechs.get();
  Dispatcher dispatcher(
      cfg.policy, cfg.stale_refresh_s, cfg.policy_seed, script, ledger,
      ms != nullptr ? &ms->at(0) : nullptr, [&world] { return world.now(); },
      [&world, &ledger, ms](const Arrival& a, Rank server) {
        world.postTask(0, server, [&world, &ledger, ms, id = a.id,
                                   w = a.work, server] {
          if (ledger.terminal(id)) return;  // zombie past a crash window
          ledger.enqueued(id, world.now());
          if (ms != nullptr)
            ms->at(server).addLocalLoad({w, 0.0},
                                        /*is_slave_delegated=*/true);
          ledger.started(id, world.now());
          ledger.completed(id, world.now());
          if (ms != nullptr) ms->at(server).addLocalLoad({-w, 0.0});
        });
      });

  world.start();
  const SimTime t_start = world.now();

  auto announceNoMoreMaster = [&](Rank r) {
    world.post(r, [&mechs, r] { mechs->at(r).noMoreMaster(); });
  };
  if (mechs != nullptr && cfg.servers_announce_no_more_master)
    for (Rank r = 1; r < cfg.nprocs; ++r) announceNoMoreMaster(r);

  const std::size_t n = script.arrivals.size();
  const auto frac_index = [n](double f) {
    const auto i = static_cast<std::size_t>(f * static_cast<double>(n));
    return i > n ? n : i;
  };
  const std::size_t i_crash = crash_scripted ? frac_index(cfg.crash_at_frac)
                                             : n + 1;
  const std::size_t i_restart =
      crash_scripted ? frac_index(cfg.restart_at_frac) : n + 1;
  bool crashed = false;
  bool restarted = false;

  const auto doCrash = [&] {
    world.crashRank(cfg.crash_rank);
    ledger.setAlive(cfg.crash_rank, false);
    crashed = true;
  };
  const auto doRestart = [&] {
    if (cfg.down_wait_s > 0.0) rt::MonotonicClock::sleepFor(cfg.down_wait_s);
    world.restartRank(cfg.crash_rank);
    if (mechs != nullptr) {
      // Manual lifecycle control bypasses the supervisor's rejoin path,
      // so run it here: surviving peers republish authoritative loads
      // and the rejoiner re-announces its master status.
      rt::postRejoinResync(world, *mechs, cfg.crash_rank);
      if (cfg.servers_announce_no_more_master)
        announceNoMoreMaster(cfg.crash_rank);
    }
    ledger.setAlive(cfg.crash_rank, true);
    restarted = true;
  };

  for (std::size_t i = 0; i < n; ++i) {
    if (crash_scripted && !crashed && i >= i_crash) doCrash();
    if (crash_scripted && crashed && !restarted && i >= i_restart)
      doRestart();
    world.post(0, [&dispatcher, i] { dispatcher.arrive(i); });
  }
  // Fractions at (or rounding to) 1.0 land after the flood.
  if (crash_scripted && !crashed) doCrash();
  if (crash_scripted && !restarted) doRestart();

  // Drain on *progress*, not absolute wall time: a per-request snapshot
  // policy grinds through its dispatch backlog at milliseconds per round
  // (the freeze is the measurement), so a long run is legal as long as
  // requests keep terminating. drain_timeout_s bounds the stall, i.e.
  // how long the run may go without a single request reaching a
  // terminal state — that is what a wedge looks like.
  bool drained = false;
  {
    std::int64_t last_terminal = -1;
    double stalled_s = 0.0;
    const double slice_s = std::min(cfg.drain_timeout_s, 2.0);
    while (!drained && stalled_s < cfg.drain_timeout_s) {
      drained = world.drain(slice_s, /*log_on_timeout=*/false);
      const LedgerTotals t = ledger.totals();
      const std::int64_t term = t.completed + t.dropped();
      if (term != last_terminal) {
        last_terminal = term;
        stalled_s = 0.0;
      } else {
        stalled_s += slice_s;
      }
    }
    // One last zero-wait pass with diagnostics for the failure report.
    if (!drained) drained = world.drain(0.0);
  }
  const double wall_s = world.now() - t_start;
  LOADEX_EXPECT(drained, "svc rt run failed to quiesce");
  const LedgerTotals totals = ledger.finalize(world.now());
  ledger.expectConserved();
  world.stop();  // runStats() folds owner-written counters: workers first
  const rt::RtRunStats rt_stats = world.runStats();

  if (auditor != nullptr) {
    if (crashed) auditor->noteCrashed(cfg.crash_rank);
    if (restarted) auditor->noteRestarted(cfg.crash_rank);
    auditor->finish();
    auditor->expectClean();
  }

  return SvcRtResult{drained,
                     totals,
                     ledger.sojourn(),
                     ledger.queueWait(),
                     ledger.service(),
                     ledger.meanInfoAge(),
                     dispatcher.digest(),
                     mechs != nullptr ? mechs->aggregateStats()
                                      : core::MechanismStats{},
                     rt_stats,
                     wall_s};
}

}  // namespace loadex::svc
