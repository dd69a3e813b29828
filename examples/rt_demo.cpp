// Real-threads runtime demo: the paper's mechanisms running on actual OS
// threads instead of the discrete-event simulator.
//
//   ./rt_demo                                 # snapshot mechanism, 6 ranks
//   ./rt_demo --mechanism increments --n 8
//   ./rt_demo --trace rt_trace.json           # Perfetto trace, REAL time
//
// Fault injection (all off by default; see DESIGN.md §12):
//   ./rt_demo --drop 0.05                     # 5% state-message loss
//   ./rt_demo --drop 0.05 --dup 0.02 --spike 0.02
//   ./rt_demo --n 8 --crash 7 --detector      # rank 7 crashes mid-run,
//                                             # is detected, restarts, and
//                                             # rejoins via resync
//
// Each rank has a bounded MPSC mailbox and a timer wheel, and a small pool
// of worker threads runs the ranks (the M:N executor, DESIGN.md §15); the
// same core::MechanismSet the simulator binds runs here unchanged over
// rt transports. A seeded script (load storm + master selections) floods
// the world, the drain protocol waits for quiescence, and the run prints
// the conservation bookkeeping plus real selection latencies. With
// --trace, the obs layer records the protocol lanes with *wall-clock*
// timestamps — the same Perfetto layout as the simulator demos, but the
// time axis is the host's.
#include <iostream>
#include <memory>
#include <string>

#include "common/cli.h"
#include "common/table.h"
#include "harness/script.h"
#include "obs/trace.h"
#include "rt/audit_lock.h"
#include "rt/workload.h"
#include "rt/world.h"

using namespace loadex;

namespace {

core::MechanismKind parseKind(const std::string& name) {
  if (name == "naive") return core::MechanismKind::kNaive;
  if (name == "increments" || name == "increment")
    return core::MechanismKind::kIncrement;
  if (name == "snapshot") return core::MechanismKind::kSnapshot;
  std::cerr << "unknown --mechanism '" << name
            << "' (naive | increments | snapshot), using snapshot\n";
  return core::MechanismKind::kSnapshot;
}

}  // namespace

int main(int argc, char** argv) {
  const CliFlags flags(argc, argv);
  const auto kind = parseKind(flags.getString("mechanism", "snapshot"));
  const int nprocs = static_cast<int>(flags.getInt("n", 6));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 7));
  const std::string trace_path = flags.getString("trace", "");

  // ---- fault plan (inert unless a fault flag is passed) ----------------
  rt::FaultPlan plan;
  plan.messages.drop_prob = flags.getDouble("drop", 0.0);
  plan.messages.duplicate_prob = flags.getDouble("dup", 0.0);
  plan.messages.latency_spike_prob = flags.getDouble("spike", 0.0);
  plan.messages.latency_spike_s = 2e-3;
  plan.messages.affects_app = false;  // stress the protocol, not the app
  plan.messages.seed = seed * 1069 + 7;
  const Rank crash_rank = static_cast<Rank>(flags.getInt("crash", kNoRank));
  if (crash_rank != kNoRank) {
    if (crash_rank < 0 || crash_rank >= nprocs) {
      std::cerr << "--crash rank out of range [0, " << nprocs << ")\n";
      return 1;
    }
    using Kind = ProcessFaultEvent::Kind;
    plan.process.push_back({crash_rank, 10e-3, Kind::kCrash});
    plan.process.push_back({crash_rank, 30e-3, Kind::kRestart});
  }
  if (flags.getBool("detector", false)) {
    plan.suspicion.enabled = true;
    plan.suspicion.suspect_after_s = 8e-3;
    plan.suspicion.dead_after_s = 30e-3;
    plan.suspicion.sweep_period_s = 1e-3;
  }
  const bool faulty = plan.enabled();
  // Pace the script over ~50 ms of wall time when faults are on, so the
  // scripted lifecycle events and heartbeat deadlines land mid-run
  // instead of after a flooded script has already quiesced.
  const double time_scale = faulty ? 0.05 : 0.0;

  // Build the script before the world so the printout can describe it.
  harness::Script script = harness::drawScript(seed, nprocs, nprocs);
  script.kind = kind;
  script.no_more_master = kNoRank;  // keep the demo's bookkeeping simple
  const harness::ScriptExpectations want = harness::expectationsOf(script);

  std::cout << "rt demo: " << nprocs << " ranks, "
            << core::mechanismKindName(kind) << " mechanism, seed " << seed
            << "\n  script: " << script.loads.size() << " load changes, "
            << script.selections.size() << " master selections\n\n";

  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    obs::TraceConfig tcfg;
    tcfg.process_name = "loadex rt";
    recorder = std::make_unique<obs::TraceRecorder>(tcfg);
    recorder->nameRankTracks(nprocs);
    recorder->setMessageNamer([](int channel, int tag) {
      if (channel == 0)
        return std::string(
            core::stateTagName(static_cast<core::StateTag>(tag)));
      return "app/" + std::to_string(tag);
    });
  }
  obs::ScopedObservation observe(recorder.get(), nullptr);

  rt::RtConfig rcfg;
  rcfg.nprocs = nprocs;
  rcfg.faults = plan;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), kind,
                           [&] {
                             core::MechanismConfig m;
                             m.threshold = {script.threshold,
                                            script.threshold};
                             if (plan.messages.enabled()) {
                               // Harden the protocols against the injected
                               // loss: the un-hardened paper variants
                               // deadlock or diverge under drops.
                               m.reliability.reliable_updates =
                                   kind == core::MechanismKind::kIncrement;
                               m.reliability.snapshot_timeout_s = 10e-3;
                               m.reliability.max_snapshot_retries = 3;
                             }
                             return m;
                           }());

  // The protocol auditor rides along exactly as it does over the
  // simulator (serialised per hook for the concurrent workers).
  // Under injected faults it keeps auditing, with the loss/crash
  // tolerances a lossy platform requires.
  core::AuditorConfig acfg;
  if (plan.messages.enabled()) acfg.allow_message_loss = true;
  if (!plan.process.empty()) {
    // A crash also loses whatever was in flight to the sealed mailbox.
    acfg.allow_message_loss = true;
    acfg.allow_crashes = true;
    acfg.check_conservation = false;
  }
  core::ProtocolAuditor auditor{acfg};
  rt::RtAuditBinding audit(auditor, mechs);

  for (Rank r = 0; r < nprocs; ++r) world.attach(r, &mechs.at(r));
  if (plan.needsSupervisor()) world.superviseMechanisms(&mechs);
  world.start();
  rt::WorkloadDriver driver(world, mechs);
  const rt::WorkloadResult res =
      driver.run(script, time_scale, /*drain_timeout_s=*/60.0);
  world.stop();
  if (crash_rank != kNoRank) {
    auditor.noteCrashed(crash_rank);
    auditor.noteRestarted(crash_rank);
  }
  auditor.finish();

  const rt::RtRunStats st = world.runStats();
  Table t("Run summary (real time)");
  t.setHeader({"quantity", "value"});
  t.addRow({"drained to quiescence", res.drained ? "yes" : "NO"});
  t.addRow({"wall time", Table::fmt(res.wall_s * 1e3, 2) + " ms"});
  t.addRow({"selections committed",
            std::to_string(res.selections_committed) + " / " +
                std::to_string(want.selections)});
  t.addRow({"total load (got)", Table::fmt(res.total_load.workload, 6)});
  t.addRow({"total load (script)", Table::fmt(want.total_load.workload, 6)});
  t.addRow({"state msgs posted/delivered", std::to_string(st.state_posted) +
                                               " / " +
                                               std::to_string(
                                                   st.state_delivered)});
  t.addRow({"timers armed/fired", std::to_string(st.timers_armed) + " / " +
                                      std::to_string(st.timers_fired)});
  t.addRow({"mailbox spills", std::to_string(st.spill_enqueues)});
  if (faulty) {
    t.addRow({"state dropped/duplicated",
              std::to_string(st.state_dropped) + " / " +
                  std::to_string(st.state_duplicated)});
    t.addRow({"fault drops / latency spikes",
              std::to_string(st.fault_drops) + " / " +
                  std::to_string(st.latency_spikes)});
    t.addRow({"dropped at sealed mailbox",
              std::to_string(st.dropped_at_sealed_mailbox)});
    t.addRow({"crashes / restarts / resyncs",
              std::to_string(st.crashes) + " / " +
                  std::to_string(st.restarts) + " / " +
                  std::to_string(st.resyncs)});
    t.addRow({"suspects / deaths / revives",
              std::to_string(st.suspects_flagged) + " / " +
                  std::to_string(st.deaths_declared) + " / " +
                  std::to_string(st.revives)});
  }
  t.addRow({"audit violations",
            std::to_string(auditor.violations().size())});
  t.print(std::cout);

  if (!res.selection_latency_s.empty()) {
    std::cout << "\nselection latencies (requestView -> view):";
    for (const double l : res.selection_latency_s)
      std::cout << " " << Table::fmt(l * 1e6, 1) << "us";
    std::cout << "\n";
  }

  if (recorder != nullptr) {
    if (recorder->writeChromeTraceFile(trace_path))
      std::cout << "\ntrace: " << recorder->recorded() << " events -> "
                << trace_path << " (open in ui.perfetto.dev; timestamps "
                << "are host wall-clock)\n";
  }

  // Clean runs must commit every scripted selection. Under faults the
  // success bar is survival: quiescent drain + a clean audit (a selection
  // posted to a crashed master is legitimately lost, and a degraded view
  // may legitimately skip; both are reported above, not failures).
  bool ok = res.drained && auditor.violations().empty();
  if (!faulty) ok = ok && res.selections_committed == want.selections;
  return ok ? 0 : 1;
}
