// rt_storm and rt_paced: seeded selection scripts replayed by
// rt::WorkloadDriver on the M:N executor (src/rt).
//
// rt_storm floods 256 ranks on 3 workers with mailboxes of 256 slots:
// threshold 1 makes every load change a 255-way broadcast, full mailboxes
// push senders onto the spill path, and backpressure closes the loop.
// Mailbox, executor steal and spill do most of the work. Its latency
// sample is the time of one whole script replay.
//
// rt_paced is an open loop: 64 ranks on 3 workers, the driver paces each
// script at its schedule (about 2000 load changes and 600 selections per
// second). Mailboxes stay nearly empty; the park/wake path, the timer
// wheel and the selection round trip carry the latency metrics, sampled
// per selection (requestView -> view callback).
//
// Both use 3 workers plus the driver thread, the 4-core budget. One cycle
// replays one script per mechanism, each on a fresh world.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "common/rng.h"
#include "rt/workload.h"
#include "rt_replay.h"

namespace perfbench {

using namespace loadex;

namespace {

constexpr int kMechs = 3;
constexpr int kSetupRepeats = 15;

constexpr RtShape kStorm{256, 3, 256, 0.0, 1536, 12, 1.0};
constexpr RtShape kPaced{64, 3, 0, 1.0, 2000, 600, 6.0};

harness::Script makeScript(const RtShape& shape, core::MechanismKind kind,
                           std::uint64_t seed) {
  Rng rng(seed);
  harness::Script s;
  s.seed = seed;
  s.nprocs = shape.nprocs;
  s.kind = kind;
  s.threshold = shape.threshold;
  const auto anyRank = [&] {
    return static_cast<Rank>(
        rng.uniformInt(static_cast<std::uint64_t>(shape.nprocs)));
  };
  s.loads.reserve(static_cast<std::size_t>(shape.loads));
  for (int i = 0; i < shape.loads; ++i)
    s.loads.push_back({rng.uniformReal(0.0, 1.0), anyRank(),
                       {rng.uniformReal(2.0, 24.0), rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < shape.selections; ++i)
    s.selections.push_back(
        {rng.uniformReal(0.0, 1.0), anyRank(), rng.uniformReal(5.0, 40.0)});
  return s;
}

/// WorkloadDriver starts pacing at the first op, so the schedule spans
/// first to last op.
double scheduledSpan(const RtShape& shape, const harness::Script& s) {
  if (shape.time_scale <= 0.0) return 0.0;
  double lo = 1.0, hi = 0.0;
  for (const auto& op : s.loads) lo = std::min(lo, op.time), hi = std::max(hi, op.time);
  for (const auto& op : s.selections)
    lo = std::min(lo, op.time), hi = std::max(hi, op.time);
  return hi > lo ? (hi - lo) * shape.time_scale : 0.0;
}

rt::RtConfig worldConfig(const RtShape& shape) {
  rt::RtConfig cfg;
  cfg.nprocs = shape.nprocs;
  cfg.executor.workers = shape.workers;
  if (shape.mailbox_capacity > 0) cfg.mailbox.capacity = shape.mailbox_capacity;
  return cfg;
}

core::MechanismConfig mechConfig(const harness::Script& s) {
  core::MechanismConfig m;
  m.threshold = {s.threshold, s.threshold};
  return m;
}

bool loadNear(const core::LoadMetrics& got, const core::LoadMetrics& want) {
  return std::abs(got.workload - want.workload) <=
             1e-9 * (1.0 + std::abs(want.workload)) &&
         std::abs(got.memory - want.memory) <=
             1e-9 * (1.0 + std::abs(want.memory));
}

void check(const harness::Script& s, const rt::WorkloadResult& res,
           const rt::RtRunStats& st, Report& report) {
  const std::string what = std::string(core::mechanismKindName(s.kind)) +
                           " script " + std::to_string(s.seed);
  const harness::ScriptExpectations want = harness::expectationsOf(s);
  if (!res.drained) return report.fail(what + ": world did not drain");
  if (res.selections_committed + res.selections_skipped != want.selections)
    return report.fail(what + ": committed + skipped != scripted selections");
  if (st.state_posted + st.state_duplicated !=
          st.state_delivered + st.state_dropped ||
      st.task_posted + st.task_duplicated != st.task_delivered + st.task_dropped)
    return report.fail(what + ": posted + duplicated != delivered + dropped");
  if (!loadNear(res.total_load, want.total_load))
    return report.fail(what + ": total load differs from the script's");
  report.ok();
}

}  // namespace

std::vector<harness::Script> makeCycle(const RtShape& shape,
                                       std::uint64_t seed) {
  std::vector<harness::Script> cycle;
  for (int m = 0; m < kMechs; ++m)
    cycle.push_back(makeScript(shape, kMechanismCycle[m].kind,
                               deriveSeed(seed, static_cast<std::uint64_t>(m))));
  return cycle;
}

ScriptRun replayScript(const RtShape& shape, const harness::Script& s,
                       Report& report, SpanLog* spans, std::size_t capture) {
  ScriptRun run;
  run.scheduled_s = scheduledSpan(shape, s);
  const double t0 = nowS();
  rt::RtWorld world(worldConfig(shape));
  std::vector<core::Transport*> transports = world.transports();
  std::vector<std::unique_ptr<TimedTransport>> timed_transports;
  if (spans != nullptr) {
    for (core::Transport*& t : transports) {
      timed_transports.push_back(std::make_unique<TimedTransport>(*t, capture));
      t = timed_transports.back().get();
    }
  }
  core::MechanismSet mechs(transports, s.kind, mechConfig(s));
  std::vector<std::unique_ptr<TimedHandler>> handlers;
  for (Rank r = 0; r < s.nprocs; ++r) {
    if (spans != nullptr) {
      handlers.push_back(std::make_unique<TimedHandler>(mechs.at(r)));
      world.attach(r, handlers.back().get());
    } else {
      world.attach(r, &mechs.at(r));
    }
  }
  const double t1 = nowS();
  world.start();
  const double t2 = nowS();
  rt::WorkloadDriver driver(world, mechs);
  rt::WorkloadResult res = driver.run(s, shape.time_scale, 60.0);
  const double t3 = nowS();
  world.stop();
  const double t4 = nowS();

  run.wall_s = t4 - t0;
  run.replay_s = t3 - t2;
  run.start_s = t2 - t1;
  run.stop_s = t4 - t3;
  run.stats = world.runStats();
  check(s, res, run.stats, report);
  run.latency_s = std::move(res.selection_latency_s);
  if (spans != nullptr) {
    const char* mech = core::mechanismKindName(s.kind);
    spans->span("rt.world.construct", t0, t1);
    spans->span("rt.world.start", t1, t2);
    spans->span(mech, t2, t3, 1);
    spans->span("rt.world.stop", t3, t4);
    for (const auto& h : handlers) {
      run.on_state_calls += h->calls();
      run.on_state_ns += h->ns();
    }
    for (const auto& t : timed_transports) {
      run.send_calls += t->calls();
      run.send_ns += t->ns();
      run.captured.insert(run.captured.end(), t->captured().begin(),
                          t->captured().end());
    }
  }
  return run;
}

namespace {

using Cycle = std::vector<ScriptRun>;

/// The latency sample: each selection's requestView -> view callback on
/// the open loop, each whole replay on a flooded (closed) loop, where
/// decision latency only measures how deep the backlog happened to be.
bool openLoop(const RtShape& shape) { return shape.time_scale > 0.0; }

/// Whole cycles until `budget_s` has passed and at least `min_samples`
/// latency samples were taken.
Window<ScriptRun> measure(const RtShape& shape,
                          const std::vector<harness::Script>& scripts,
                          Report& report, double budget_s,
                          std::size_t min_samples, SpanLog* spans) {
  return measureCycles(
      scripts, budget_s, min_samples,
      [&](const harness::Script& s) {
        return replayScript(shape, s, report, spans);
      },
      [&](const ScriptRun& r) {
        return openLoop(shape) ? r.latency_s.size() : std::size_t{1};
      });
}

double cycleWall(const Window<ScriptRun>& w) {
  return mean(perCycle(w, [](const ScriptRun& r) { return r.wall_s; }));
}

/// Set-up: generate the cycle's scripts, then build, start and stop one
/// world per script with its mechanisms attached and nothing replayed.
double setUpOnce(const RtShape& shape, std::uint64_t seed,
                 std::vector<harness::Script>& scripts) {
  const double t0 = nowS();
  scripts = makeCycle(shape, seed);
  for (const harness::Script& s : scripts) {
    rt::RtWorld world(worldConfig(shape));
    core::MechanismSet mechs(world.transports(), s.kind, mechConfig(s));
    for (Rank r = 0; r < shape.nprocs; ++r) world.attach(r, &mechs.at(r));
    world.start();
    world.stop();
  }
  return nowS() - t0;
}

void runRt(const RtShape& shape, const Options& opt, Report& report,
           SpanLog* trace) {
  std::vector<harness::Script> scripts;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i)
    setup_s.push_back(setUpOnce(shape, opt.seed, scripts));
  if (!openLoop(shape)) {
    // Warm-up cycle (a paced cycle would cost seconds of schedule).
    for (const harness::Script& s : scripts) replayScript(shape, s, report, nullptr);
  }

  const auto delivered = [](const ScriptRun& r) {
    return r.stats.state_delivered + r.stats.task_delivered;
  };
  const auto state = [](const ScriptRun& r) { return r.stats.state_delivered; };
  const auto replay = [](const ScriptRun& r) { return r.replay_s; };

  if (trace == nullptr) {
    const Window<ScriptRun> w = measure(shape, scripts, report, opt.seconds, kTailMinSamples, nullptr);
    std::vector<double> latency;
    if (openLoop(shape)) {
      for (const Cycle& c : w.cycles)
        for (const ScriptRun& r : c)
          latency.insert(latency.end(), r.latency_s.begin(), r.latency_s.end());
    } else {
      latency = perRun(w, replay);
    }
    const double replay_total = sumOver(w, replay);
    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", cycleWall(w), "s");
    report.add("cpu_s", w.cpu.total() / static_cast<double>(w.cycles.size()), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("events_per_s", sumOver(w, delivered) / replay_total, "1/s");
    report.add("state_msgs_per_s", sumOver(w, state) / replay_total, "1/s");
    report.add("latency_p50_s", quantile(latency, 0.5), "s");
    report.add("latency_tail_s", quantile(latency, kTailQuantile), "s");
    return;
  }

  const Window<ScriptRun> base = measure(shape, scripts, report, opt.seconds / 2, 0, nullptr);
  alloc::setCounting(true);
  const Window<ScriptRun> w = measure(shape, scripts, report, opt.seconds / 2, 0, trace);
  alloc::setCounting(false);

  const auto cycles = static_cast<double>(w.cycles.size());
  const auto allocs = static_cast<double>(w.allocs);
  const double on_state_calls =
      sumOver(w, [](const ScriptRun& r) { return r.on_state_calls; });
  const double on_state_ns =
      sumOver(w, [](const ScriptRun& r) { return r.on_state_ns; });
  const double send_calls = sumOver(w, [](const ScriptRun& r) { return r.send_calls; });
  const double visits_home =
      sumOver(w, [](const ScriptRun& r) { return r.stats.shard_visits_home; });
  const double visits_stolen =
      sumOver(w, [](const ScriptRun& r) { return r.stats.shard_visits_stolen; });
  const auto stat = [&](auto field) {
    return sumOver(w, [field](const ScriptRun& r) { return r.stats.*field; }) /
           cycles;
  };

  report.add("core.state_msgs", stat(&rt::RtRunStats::state_delivered), "count");
  report.add("alloc.per_event", ratio(allocs, sumOver(w, delivered)), "ratio");
  report.add("alloc.per_state_msg", ratio(allocs, sumOver(w, state)), "ratio");
  report.add("core.on_state.calls", on_state_calls / cycles, "count");
  report.add("core.on_state.ns", ratio(on_state_ns, on_state_calls), "ns");
  report.add("rt.send.calls", send_calls / cycles, "count");
  report.add("rt.send.ns",
             ratio(sumOver(w, [](const ScriptRun& r) { return r.send_ns; }),
                   send_calls),
             "ns");
  report.add("rt.handler_busy_share",
             ratio(on_state_ns * 1e-9, shape.workers * sumOver(w, replay)),
             "ratio");
  report.add("rt.mailbox.pushes", stat(&rt::RtRunStats::mailbox_pushes), "count");
  report.add("rt.mailbox.full_rejections",
             stat(&rt::RtRunStats::mailbox_full_rejections), "count");
  report.add("rt.spill_enqueues", stat(&rt::RtRunStats::spill_enqueues), "count");
  report.add("rt.executor.steal_ratio",
             ratio(visits_stolen, visits_home + visits_stolen), "ratio");
  report.add("rt.executor.visits_per_msg",
             ratio(visits_home + visits_stolen, sumOver(w, delivered)), "ratio");
  report.add("rt.mailbox.blocking_waits",
             stat(&rt::RtRunStats::mailbox_blocking_waits), "count");
  report.add("rt.timers_fired", stat(&rt::RtRunStats::timers_fired), "count");
  for (int m = 0; m < kMechs; ++m) {
    std::vector<double> latency;
    for (const Cycle& c : w.cycles)
      latency.insert(latency.end(), c[static_cast<std::size_t>(m)].latency_s.begin(),
                     c[static_cast<std::size_t>(m)].latency_s.end());
    report.add(std::string("core.view_latency_s.") + kMechanismCycle[m].name,
               median(latency), "s");
  }
  report.add("rt.world.start_s",
             median(perRun(w, [](const ScriptRun& r) { return r.start_s; })), "s");
  report.add("rt.world.stop_s",
             median(perRun(w, [](const ScriptRun& r) { return r.stop_s; })), "s");
  report.add("trace_overhead_ratio", cycleWall(w) / cycleWall(base), "ratio");
  // How far the paced driver ran behind its schedule, from the untraced
  // half. Per layer, not end to end: it follows the host's timer wake-up
  // latency, and its median moved by half between two sets of ten runs.
  if (openLoop(shape))
    report.add("gen_lag_s", mean(perCycle(base, [](const ScriptRun& r) {
                 return r.replay_s - r.scheduled_s;
               })), "s");
}

}  // namespace

void runRtStorm(const Options& opt, Report& report, SpanLog* trace) {
  runRt(kStorm, opt, report, trace);
}

void runRtPaced(const Options& opt, Report& report, SpanLog* trace) {
  runRt(kPaced, opt, report, trace);
}

}  // namespace perfbench
