// Real-threads service driver: the same open-loop workload as
// runSvcSim, executed on the loadex_rt runtime.
//
// Shape: an external driver thread floods the arrival script into rank
// 0 through the blocking post() (mailbox backpressure is the pacing).
// Dispatch is the same svc::Dispatcher the simulator uses
// (svc/service_app.h); every call into it — arrival, reference policy or
// mechanism view callback — runs as rank 0 (under rank 0's shard lock),
// so it has one owner at a time exactly like the sim version. This driver
// supplies only the world clock and the delivery: the chosen server
// receives the request as a task envelope (postTask); its closure runs
// as the server rank and records enqueue/start/complete back to
// back — the rt run measures the *dispatch and transport* sojourn, not
// a simulated compute burn (real spins would only re-measure the host
// scheduler). The SvcLedger is the one shared structure; it locks at
// LockRank::kSvcLedger in tight scopes.
//
// Faults: message-level faults come from cfg.rt.faults as usual. A
// crash/restart of one server is choreographed by the driver thread
// (manual_control) at request-count fractions of the flood, so the
// down window is placed relative to traffic rather than wall time:
//
//   post [0, crash_frac) -> crashRank -> post [crash_frac,
//   restart_frac) -> sleep down_wait_s -> restartRank -> post the rest
//
// Requests in the victim's mailbox and requests routed to it while down
// are dropped task envelopes; they surface as dropped(kLost) at
// finalize (the rt world has no app-level queue to sweep, unlike the
// sim crash which drops kServerCrash). Request conservation holds
// either way: arrived == completed + dropped.
#pragma once

#include <cstdint>

#include "core/audit.h"
#include "core/binding.h"
#include "rt/world.h"
#include "svc/arrivals.h"
#include "svc/ledger.h"
#include "svc/policy.h"
#include "svc/service_app.h"

namespace loadex::svc {

struct SvcRtConfig {
  int nprocs = 8;  ///< 1 dispatcher + nprocs-1 servers
  PolicyKind policy = PolicyKind::kShortestQueue;
  double stale_refresh_s = 10e-3;
  std::uint64_t policy_seed = 0xd15c0;
  core::MechanismConfig mech;
  bool servers_announce_no_more_master = true;

  /// Runtime knobs, including rt::FaultPlan. For the scripted
  /// crash/restart below set `rt.faults.manual_control = true` (the
  /// driver owns lifecycle); suspicion may be enabled on top so the
  /// mechanisms' failure detector sees the death.
  rt::RtConfig rt;
  /// Stall bound, not a run-length bound: the drain fails only after
  /// this long passes without any request reaching a terminal state. A
  /// slow policy (per-request snapshot freezes) may legally run much
  /// longer than this end to end.
  double drain_timeout_s = 60.0;

  // ---- choreographed crash (kNoRank = disabled) ------------------------
  Rank crash_rank = kNoRank;
  double crash_at_frac = 0.3;    ///< crash after this share of arrivals
  double restart_at_frac = 0.4;  ///< restart after this share
  /// Wall-clock pause between the restart-fraction post and the actual
  /// restart, so traffic flows at a dead rank long enough for suspicion
  /// (when enabled) to declare death.
  double down_wait_s = 0.0;

  bool attach_auditor = true;
  core::AuditorConfig audit;
};

struct SvcRtResult {
  bool drained = false;
  LedgerTotals totals;
  obs::Histogram sojourn;     ///< arrival -> completion (dispatch path)
  obs::Histogram queue_wait;  ///< arrival -> service start
  obs::Histogram service;
  double mean_info_age = 0.0;
  std::uint64_t arrivals_digest = 0;  ///< fold over injected arrivals
  core::MechanismStats mech_stats;    ///< zero for reference policies
  rt::RtRunStats rt_stats;
  double wall_s = 0.0;
};

/// Run the script on real threads; enforces request conservation and
/// (for mechanism-backed policies) the protocol audit before returning.
SvcRtResult runSvcRt(const SvcRtConfig& cfg, const ArrivalScript& script);

}  // namespace loadex::svc
