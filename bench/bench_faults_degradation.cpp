// Fault injection — degradation of decision quality and message overhead
// under state-channel message loss, per mechanism, plus a crash scenario.
//
// Not a paper table: the paper assumes a perfectly reliable network. This
// driver measures what the hardened protocols (ack/timeout/retry, see
// DESIGN.md) cost and buy on a lossy platform:
//  * sweep drop rate in {0, 0.1%, 1%, 5%} on the state channel only (the
//    application's task traffic is kept intact — the object of study is
//    the load-exchange protocol);
//  * hardened increment and snapshot must complete every run — no
//    deadlock, no permanent view divergence — including 5% loss combined
//    with one crashed process (synthetic load churn for the crash case:
//    a crashed rank can never finish a factorization's tree nodes).
#include <iostream>

#include "bench_common.h"
#include "core/binding.h"
#include "sim/world.h"

using namespace loadex;

namespace {

struct SweepRow {
  double drop = 0.0;
  solver::SolverResult res;
};

solver::SolverConfig faultyConfig(core::MechanismKind kind, double drop) {
  auto cfg = bench::defaultConfig(32, kind, solver::Strategy::kWorkload);
  // Aggressive type-2 thresholds: plenty of dynamic decisions even at
  // --quick scale, so the drop rate actually stresses the protocols.
  cfg.mapping.type2_min_front = 80;
  cfg.mapping.type2_min_border = 8;
  cfg.network.faults.drop_prob = drop;
  cfg.network.faults.affects_app = false;  // state channel only
  if (kind == core::MechanismKind::kIncrement) {
    cfg.mech.reliability.reliable_updates = drop > 0.0;
  } else if (kind == core::MechanismKind::kSnapshot) {
    if (drop > 0.0) cfg.mech.reliability.snapshot_timeout_s = 5e-3;
  }
  return cfg;
}

/// Peak-memory imbalance max/avg: the decision-quality proxy (1.0 = the
/// selections spread load perfectly despite the degraded views).
double imbalance(const solver::SolverResult& r) {
  return r.avg_peak_active_mem > 0.0
             ? r.peak_active_mem / r.avg_peak_active_mem
             : 0.0;
}

// ---- crash scenario: synthetic load churn ---------------------------------

/// Round-robin load churn on every rank; rank `crash_rank` crashes at
/// `crash_at`. Success = the world quiesces (no deadlock) and every
/// surviving rank's view of every surviving rank matches that rank's true
/// load (no permanent divergence).
struct CrashOutcome {
  bool quiesced = false;
  bool views_converged = false;
  std::int64_t dropped = 0;
  std::int64_t retransmissions = 0;
  std::int64_t declared_dead = 0;
};

CrashOutcome runCrashChurn(core::MechanismKind kind, double drop,
                           int nprocs, Rank crash_rank, SimTime crash_at) {
  sim::WorldConfig wcfg;
  wcfg.nprocs = nprocs;
  wcfg.network.faults.drop_prob = drop;
  wcfg.network.faults.affects_app = false;
  wcfg.process_faults.push_back(
      {crash_rank, crash_at, ProcessFaultEvent::Kind::kCrash});

  core::MechanismConfig mcfg;
  mcfg.threshold = {0.5, 1e18};
  if (kind == core::MechanismKind::kIncrement)
    mcfg.reliability.reliable_updates = true;
  if (kind == core::MechanismKind::kSnapshot)
    mcfg.reliability.snapshot_timeout_s = 1e-3;

  sim::World world(wcfg);
  core::MechanismSet mechs(world, kind, mcfg);
  for (Rank r = 0; r < nprocs; ++r) world.attach(r, nullptr, &mechs.at(r));

  // 200 churn events spread over 0.4 s; the crash lands mid-churn. For
  // the snapshot mechanism churn stays local (it broadcasts nothing), so
  // add periodic decisions from rank 0 to exercise the full protocol.
  for (int i = 0; i < 200; ++i) {
    const Rank r = static_cast<Rank>(i % nprocs);
    world.queue().scheduleAt(2e-3 * i, [&mechs, r] {
      if (r == 0 && mechs.at(0).kind() == core::MechanismKind::kSnapshot) {
        if (mechs.at(0).blocksComputation()) return;  // snapshot still live
        mechs.at(0).requestView([&mechs](const core::LoadView&) {
          mechs.at(0).commitSelection({});
        });
        return;
      }
      if (mechs.at(r).kind() == core::MechanismKind::kSnapshot &&
          mechs.at(r).blocksComputation())
        return;  // frozen processes take no local decisions
      mechs.at(r).addLocalLoad({1.0, 0.0});
    });
  }

  const auto run = world.run(/*until=*/60.0);
  CrashOutcome out;
  out.quiesced = !run.hit_limit;
  out.dropped = run.messages_dropped;

  core::MechanismStats total;
  for (Rank r = 0; r < nprocs; ++r) mechs.at(r).stats().mergeInto(total);
  out.retransmissions = total.retransmissions;
  out.declared_dead = total.ranks_declared_dead;

  out.views_converged = true;
  for (Rank viewer = 0; viewer < nprocs; ++viewer) {
    if (viewer == crash_rank) continue;
    for (Rank subject = 0; subject < nprocs; ++subject) {
      if (subject == crash_rank) continue;
      // The increment mechanism must agree exactly; the snapshot's
      // maintained entries are only refreshed per decision, so compare
      // what the last completed snapshot could know: skip non-initiators.
      if (kind == core::MechanismKind::kSnapshot && viewer != 0) continue;
      const double seen = mechs.at(viewer).view().load(subject).workload;
      const double truth = mechs.at(subject).localLoad().workload;
      if (kind == core::MechanismKind::kIncrement && seen != truth)
        out.views_converged = false;
      if (kind == core::MechanismKind::kSnapshot &&
          std::abs(seen - truth) > 2.0)  // at most the churn since the
        out.views_converged = false;     // last snapshot of the run
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto env = bench::BenchEnv::parse(argc, argv);
  bench::JsonResults json("faults_degradation", env);
  sparse::Problem p;
  p.name = "grid3d";
  p.symmetric = true;
  const int side = std::max(12, static_cast<int>(16 * env.effectiveScale()));
  p.pattern = sparse::grid3d(side, side, side);
  const auto analysis = solver::analyzeProblem(p);

  const double drops[] = {0.0, 0.001, 0.01, 0.05};

  for (const auto kind : {core::MechanismKind::kNaive,
                          core::MechanismKind::kIncrement,
                          core::MechanismKind::kSnapshot}) {
    Table t(std::string("Fault degradation — ") + mechanismKindName(kind) +
            " (32 procs, state-channel loss" +
            (kind == core::MechanismKind::kNaive
                 ? ", no hardening applicable)"
                 : ", hardened when drop > 0)"));
    t.setHeader({"drop", "completed", "time", "imbalance", "msgs",
                 "wire bytes", "retrans", "nacks", "snp timeouts",
                 "fallbacks"});
    for (const double drop : drops) {
      std::cerr << "  [run] " << mechanismKindName(kind) << " drop=" << drop
                << "\n";
      const auto res = solver::runSolver(analysis, p.symmetric,
                                         faultyConfig(kind, drop), p.name);
      // Identity-bearing extras (no host_ prefix): the sim is seeded and
      // deterministic, so the whole trajectory is diffable run-to-run.
      json.add(res, {{"drop_prob", drop}, {"imbalance", imbalance(res)}});
      t.addRow({Table::fmt(drop * 100, 1) + "%",
                res.completed ? "yes" : "NO", Table::fmt(res.factor_time, 4),
                Table::fmt(imbalance(res), 2),
                Table::fmtInt(res.state_messages),
                Table::fmtInt(res.state_wire_bytes),
                Table::fmtInt(res.retransmissions),
                Table::fmtInt(res.nacks_sent),
                Table::fmtInt(res.snapshot_timeouts),
                Table::fmtInt(res.local_fallbacks)});
    }
    t.print(std::cout);
  }

  {
    Table t("Crash + 5% loss — hardened protocols on synthetic churn "
            "(16 procs, rank 5 crashes mid-run)");
    t.setHeader({"mechanism", "quiesced", "views converged", "dropped",
                 "retrans", "ranks declared dead"});
    for (const auto kind : {core::MechanismKind::kIncrement,
                            core::MechanismKind::kSnapshot}) {
      std::cerr << "  [run] crash churn " << mechanismKindName(kind) << "\n";
      const auto out = runCrashChurn(kind, 0.05, 16, 5, 0.2);
      obs::BenchResultRecord rec;
      rec.problem = "crash_churn";
      rec.mechanism = mechanismKindName(kind);
      rec.strategy = "hardened";
      rec.nprocs = 16;
      rec.completed = out.quiesced && out.views_converged;
      json.add(std::move(rec),
               {{"drop_prob", 0.05},
                {"dropped", static_cast<double>(out.dropped)},
                {"retransmissions",
                 static_cast<double>(out.retransmissions)},
                {"ranks_declared_dead",
                 static_cast<double>(out.declared_dead)}});
      t.addRow({mechanismKindName(kind), out.quiesced ? "yes" : "NO",
                out.views_converged ? "yes" : "NO",
                Table::fmtInt(out.dropped), Table::fmtInt(out.retransmissions),
                Table::fmtInt(out.declared_dead)});
    }
    t.setFootnote(
        "Success criterion: every run quiesces (no deadlock) and surviving "
        "ranks' views match the true loads (no permanent divergence).");
    t.print(std::cout);
  }
  return json.write() ? 0 : 1;
}
