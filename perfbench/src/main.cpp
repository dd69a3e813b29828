// loadex_perfbench — runs one benchmark workload at one seed, checks its
// outputs and prints every metric by name and unit. The last stdout line
// is the JSON result {"correct", "attempted", "failed", "metrics"}.
//
//   loadex_perfbench --workload sim_paper|rt_storm|rt_paced|net_flood
//                    --seed N --seconds S --trace 0|1 [--trace-file PATH]
//
// --trace 0 measures the end-to-end metrics with no wrapper, span or
// allocation counting on the timed path. --trace 1 is a separate run that
// splits the same work by layer: it reports the per-layer metrics, keeps
// spans in memory and writes them to PATH as Chrome trace-event JSON.
// Exit status: 0 when every operation was correct, 1 when one failed,
// 2 on bad arguments or an internal error (no result line then).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "common.h"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},           {"wall_s", "s"},
    {"cpu_s", "s"},             {"peak_rss_mb", "MB"},
    {"ops_ok_ratio", "ratio"},  {"events_per_s", "1/s"},
    {"state_msgs_per_s", "1/s"}, {"latency_p50_s", "s"},
    {"latency_tail_s", "s"},
};

// Every traced run prints all of these; a layer the workload does not
// exercise reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"sparse.generate_s", "s"},
    {"symbolic.analyze_s", "s"},
    {"solver.run_s.naive", "s"},
    {"solver.run_s.increments", "s"},
    {"solver.run_s.snapshot", "s"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"core.state_msgs", "count"},
    {"alloc.per_event", "ratio"},
    {"alloc.per_state_msg", "ratio"},
    {"core.on_state.calls", "count"},
    {"core.on_state.ns", "ns"},
    {"rt.send.calls", "count"},
    {"rt.send.ns", "ns"},
    {"rt.handler_busy_share", "ratio"},
    {"rt.mailbox.pushes", "count"},
    {"rt.mailbox.full_rejections", "count"},
    {"rt.spill_enqueues", "count"},
    {"rt.executor.steal_ratio", "ratio"},
    {"rt.executor.visits_per_msg", "ratio"},
    {"rt.mailbox.blocking_waits", "count"},
    {"rt.timers_fired", "count"},
    {"core.view_latency_s.naive", "s"},
    {"core.view_latency_s.increments", "s"},
    {"core.view_latency_s.snapshot", "s"},
    {"rt.world.start_s", "s"},
    {"rt.world.stop_s", "s"},
    {"gen_lag_s", "s"},
    {"net.frames_per_write", "ratio"},
    {"net.bytes_per_frame", "B"},
    {"net.flush_partials", "count"},
    {"net.children_sys_cpu_s", "s"},
    {"net.children_user_cpu_s", "s"},
    {"net.wire.encode_ns", "ns"},
    {"net.wire.decode_ns", "ns"},
    {"net.launch_s", "s"},
    {"net.probe_rounds", "count"},
    {"obs.trace_on_ratio", "ratio"},
    {"trace_overhead_ratio", "ratio"},
    {"trace.dropped_spans", "count"},
};

using Workload = void (*)(const Options&, Report&, SpanLog*);
constexpr std::pair<const char*, Workload> kWorkloads[] = {
    {"sim_paper", runSimPaper},
    {"rt_storm", runRtStorm},
    {"rt_paced", runRtPaced},
    {"net_flood", runNetFlood},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "loadex_perfbench: " << why
            << "\nusage: loadex_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 [--trace-file PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") opt.workload = value;
      else if (flag == "--seed") opt.seed = std::stoull(value);
      else if (flag == "--seconds") opt.seconds = std::stod(value);
      else if (flag == "--trace") opt.trace = std::stoi(value) != 0;
      else if (flag == "--trace-file") opt.trace_file = value;
      else usage("unknown flag " + flag);
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Workload run = nullptr;
  for (const auto& [name, fn] : kWorkloads)
    if (opt.workload == name) run = fn;
  if (run == nullptr) usage("unknown workload '" + opt.workload + "'");

  Report report;
  std::string why;
  if (!alloc::init() || !alloc::selfTest(why)) {
    report.fail("allocation counter self-test: " + why);
    std::cout << report.json() << std::endl;
    return 1;
  }

  try {
    if (!opt.trace) {
      run(opt, report, nullptr);
      report.add("ops_ok_ratio", report.okRatio(), "ratio");
      for (const MetricSpec& m : kEndToEnd)
        if (!report.has(m.name))
          throw std::logic_error(std::string("metric not measured: ") + m.name);
    } else {
      for (const MetricSpec& m : kPerLayer) report.add(m.name, 0.0, m.unit);
      SpanLog spans;
      run(opt, report, &spans);
      report.add("trace.dropped_spans", static_cast<double>(spans.dropped()),
                 "count");
      std::cout << "trace: " << spans.recorded() << " spans recorded, "
                << spans.dropped() << " dropped (cap " << SpanLog::kCapacity
                << ")\n";
      if (!opt.trace_file.empty() && !spans.write(opt.trace_file))
        throw std::runtime_error("cannot write " + opt.trace_file);
    }
  } catch (const std::exception& e) {
    std::cerr << "loadex_perfbench: " << e.what() << "\n";
    return 2;
  }
  std::cout << report.json() << std::endl;
  return report.failed() == 0 ? 0 : 1;
}
