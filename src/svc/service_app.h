// ServiceApp: the open-loop request-serving application (the repo's
// second application behind the Mechanism/Transport seams, next to the
// factorization-tree solver).
//
// Topology: rank 0 is the dispatcher front-end (it never computes),
// ranks 1..n-1 are servers. Arrivals from an ArrivalScript fire on the
// event clock at rank 0 and go to the svc::Dispatcher below, which both
// runtimes share (runSvcRt drives the same class on real threads). It
// routes each request by the configured PolicyKind:
//
//   * reference policies (random / round-robin / shortest-queue /
//     stale-shortest-queue) choose synchronously from the ledger's
//     dispatch board — DispatchPolicy::choose;
//   * mechanism-backed policies (naive / increment / snapshot) take one
//     dynamic scheduling decision per request through the shared
//     harness::selectAndCommit step (requestView -> leastLoadedSlave ->
//     commitSelection), so "mechanism quality" is measured by exactly
//     the decision rule the paper's solver uses. View requests are
//     serialised (one in flight); requests arriving while a snapshot is
//     pending queue at the dispatcher and that wait is part of their
//     sojourn — the snapshot mechanism pays its freeze where a serving
//     system feels it.
//
// The chosen server receives the request as an application-channel
// message, queues it FIFO, serves it as a ComputeTask (heterogeneous
// speeds come from WorldConfig::speed_factors) and accounts its load
// through the mechanism (delegated on enqueue — the master's
// reservation already announced it — and self-reported on completion).
//
// Faults: a crashing server takes its queued and in-service requests
// down (dropped kServerCrash, board zeroed); its mechanism zeroes the
// local load, but the broadcast is silently lost — a crashed process
// transmits nothing — so the survivors' views stay stale, which is
// precisely the pathology under study. A request in flight to a dead
// server is dropped at delivery and surfaces as kLost at finalize; a
// zombie delivery after restart (the message survived the crash window)
// is recognised by its terminal ledger record and ignored.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/faults.h"
#include "core/audit.h"
#include "core/binding.h"
#include "core/mechanism.h"
#include "sim/application.h"
#include "sim/world.h"
#include "svc/arrivals.h"
#include "svc/ledger.h"
#include "svc/policy.h"

namespace loadex::svc {

/// Application-channel tag of a request message.
inline constexpr int kSvcRequestTag = 200;

struct RequestPayload final : sim::Payload {
  std::int64_t id = 0;
  double work = 0.0;
};

/// Rank 0's dispatch state and decision step. A runtime supplies only its
/// clock and how a dispatched request reaches its server; every call runs
/// as rank 0, so the state has one owner at a time on either runtime.
class Dispatcher {
 public:
  using Clock = std::function<SimTime()>;
  /// Hand request `a` to `server`; the ledger has booked the dispatch.
  using Deliver = std::function<void(const Arrival& a, Rank server)>;

  /// `mech` is rank 0's mechanism, null for reference policies. The
  /// script, ledger and mechanism must outlive the dispatcher.
  Dispatcher(PolicyKind policy, double stale_refresh_s,
             std::uint64_t policy_seed, const ArrivalScript& script,
             SvcLedger& ledger, core::Mechanism* mech, Clock now,
             Deliver deliver);
  Dispatcher(const Dispatcher&) = delete;  // view callbacks hold `this`
  Dispatcher& operator=(const Dispatcher&) = delete;

  /// Arrival `idx` of the script reaches rank 0: book it, fold it into
  /// the digest and dispatch whatever the in-flight view lets through.
  void arrive(std::size_t idx);

  bool idle() const { return pending_.empty(); }
  std::uint64_t digest() const { return digest_.value(); }

 private:
  void dispatchPending();
  void dispatchDirect(const Arrival& a);
  void dispatchViaMechanism(const Arrival& a);
  void sendRequest(const Arrival& a, Rank server, double info_age);

  const ArrivalScript& script_;
  SvcLedger& ledger_;
  core::Mechanism* mech_;
  Clock now_;
  Deliver deliver_;

  std::unique_ptr<DispatchPolicy> policy_;  ///< reference policies only
  Rng policy_rng_;
  std::deque<std::size_t> pending_;  ///< script indices awaiting dispatch
  bool view_in_flight_ = false;
  bool draining_ = false;
  std::vector<ServerStat> board_scratch_;
  ArrivalDigest digest_;
};

struct SvcSimConfig {
  int nprocs = 8;  ///< 1 dispatcher + nprocs-1 servers
  PolicyKind policy = PolicyKind::kShortestQueue;
  /// Stale-shortest-queue board refresh period.
  double stale_refresh_s = 10e-3;
  /// Policy RNG seed (random policy tie-breaks); independent of the
  /// arrival script's seed.
  std::uint64_t policy_seed = 0xd15c0;
  /// Mechanism knobs for the mechanism-backed policies. Callers set the
  /// threshold relative to the mean request size (a threshold above
  /// every request silences the maintained-view mechanisms).
  core::MechanismConfig mech;
  /// Servers announce No_more_master at start: only the dispatcher ever
  /// requests views, so server->server load traffic is pure waste
  /// (messages drop from O(n^2) to O(n) for the maintained views).
  bool servers_announce_no_more_master = true;

  // ---- platform --------------------------------------------------------
  sim::NetworkConfig network;
  sim::ProcessConfig process;
  std::vector<double> speed_factors;  ///< heterogeneous servers
  std::vector<ProcessFaultEvent> process_faults;

  // ---- auditing --------------------------------------------------------
  /// Attach a ProtocolAuditor to the mechanism set (mechanism-backed
  /// policies only) and expectClean() at the end.
  bool attach_auditor = true;
  core::AuditorConfig audit;
};

/// Auditor preset for svc runs: `faulty` relaxes exactly the checks a
/// lossy / crashing run violates by design (FIFO gaps, lost increments,
/// reservations unmatched at a dead server).
core::AuditorConfig svcAuditorConfig(bool faulty);

struct SvcSimResult {
  sim::RunResult run;
  LedgerTotals totals;
  obs::Histogram sojourn;     ///< arrival -> completion
  obs::Histogram queue_wait;  ///< arrival -> service start
  obs::Histogram service;     ///< service start -> completion
  double mean_info_age = 0.0;
  std::uint64_t arrivals_digest = 0;  ///< fold over injected arrivals
  core::MechanismStats mech_stats;    ///< zero for reference policies
};

class ServiceApp final : public sim::Application {
 public:
  /// `mechs` is null for reference policies. The script, ledger and
  /// mechanism set must outlive the app.
  ServiceApp(const SvcSimConfig& cfg, const ArrivalScript& script,
             SvcLedger& ledger, core::MechanismSet* mechs);

  // ---- sim::Application -------------------------------------------------
  void onStart(sim::Process& p) override;
  void onAppMessage(sim::Process& p, const sim::Message& m) override;
  std::optional<sim::ComputeTask> nextTask(sim::Process& p) override;
  bool finished(const sim::Process& p) const override;
  void onProcessFault(sim::Process& p,
                      loadex::ProcessFaultEvent::Kind kind) override;

  std::uint64_t injectedDigest() const { return dispatcher_.digest(); }

 private:
  struct QueuedRequest {
    std::int64_t id = 0;
    double work = 0.0;
  };

  void injectArrival(std::size_t idx);

  const SvcSimConfig& cfg_;
  const ArrivalScript& script_;
  SvcLedger& ledger_;
  core::MechanismSet* mechs_;

  sim::Process* front_end_ = nullptr;  ///< rank 0, bound in onStart
  Dispatcher dispatcher_;

  /// Per-server FIFO run queues, indexed by rank (index 0 unused).
  std::vector<std::deque<QueuedRequest>> queues_;
};

/// Build the world, run the script to quiescence, enforce conservation
/// (and the protocol audit for mechanism-backed policies), return the
/// collected statistics.
SvcSimResult runSvcSim(const SvcSimConfig& cfg, const ArrivalScript& script);

}  // namespace loadex::svc
