// sim_paper: the paper's own experiment (Tables 5-6) on the simulator.
//
// One sweep runs runSolver on paperSuiteLarge (AUDIKW_1, CONV3D64,
// ULTRASOUND80) x {naive, increments, snapshot} with 64 simulated
// processes and workload-based scheduling. Each simulation is
// single-threaded and deterministic: the event queue, the mechanism
// handlers and the solver do nearly all the work, with no syscalls and no
// mailbox. Suite generation and symbolic analysis are the set-up.
//
// The timed sweeps run in kReplicas forked replica processes at once, one
// per core of the 4-core budget, and the metrics pool their sweeps. On a
// shared host each core's speed drifts on its own (a lone simulation's
// sweep time moved by up to a third between runs); pooling one replica per
// core averages that drift out. Rates stay per replica: simulated events
// per second of one simulation, not of the four together.
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "common.h"
#include "solver/runner.h"

namespace perfbench {

namespace {

using namespace loadex;

constexpr int kProcs = 64;
constexpr int kSetupRepeats = 3;
constexpr int kMechs = 3;
constexpr int kReplicas = 4;

struct Suite {
  std::vector<sparse::Problem> problems;
  std::vector<symbolic::Analysis> analyses;
  double generate_s = 0.0;
  double analyze_s = 0.0;
};

/// The paper generators are deterministic; the seed reaches them and
/// rotates the order in which a sweep visits the three problems.
Suite setUp(std::uint64_t seed, SpanLog* spans) {
  Suite s;
  const double t0 = nowS();
  s.problems = sparse::paperSuiteLarge(1.0, seed);
  const double t1 = nowS();
  for (const sparse::Problem& p : s.problems)
    s.analyses.push_back(solver::analyzeProblem(p));
  const double t2 = nowS();
  s.generate_s = t1 - t0;
  s.analyze_s = t2 - t1;
  if (spans != nullptr) {
    spans->span("sparse.generate", t0, t1);
    spans->span("symbolic.analyze", t1, t2);
  }
  const std::size_t shift = seed % s.problems.size();
  std::rotate(s.problems.begin(), s.problems.begin() + shift, s.problems.end());
  std::rotate(s.analyses.begin(), s.analyses.begin() + shift, s.analyses.end());
  return s;
}

/// Table 5's configuration (same values as the table benches).
solver::SolverConfig paperConfig(core::MechanismKind kind) {
  solver::SolverConfig cfg;
  cfg.nprocs = kProcs;
  cfg.mechanism = kind;
  cfg.strategy = solver::Strategy::kWorkload;
  cfg.mapping.type2_min_front = 200;
  cfg.mapping.type2_min_border = 16;
  cfg.app.max_slaves = 32;
  return cfg;
}

struct Sweep {
  double t0 = 0.0;
  double wall_s = 0.0;
  std::vector<double> solve_t0;  ///< start of each runSolver call
  std::vector<double> solve_s;   ///< its wall time; mechanism = index % 3
  std::uint64_t events = 0;
  std::int64_t state_msgs = 0;
};

class SweepRunner {
 public:
  SweepRunner(const Suite& suite, Report& report)
      : suite_(suite),
        report_(report),
        digests_(suite.problems.size() * kMechs, 0) {}

  Sweep run(obs::TraceRecorder* obs_trace = nullptr) {
    Sweep sw;
    sw.t0 = nowS();
    for (std::size_t p = 0; p < suite_.problems.size(); ++p) {
      const sparse::Problem& prob = suite_.problems[p];
      for (int m = 0; m < kMechs; ++m) {
        solver::SolverConfig cfg = paperConfig(kMechanismCycle[m].kind);
        cfg.trace = obs_trace;
        const double t0 = nowS();
        const solver::SolverResult res =
            solver::runSolver(suite_.analyses[p], prob.symmetric, cfg, prob.name);
        sw.solve_s.push_back(nowS() - t0);
        sw.solve_t0.push_back(t0);
        sw.events += res.sim_events;
        sw.state_msgs += res.state_messages;
        check(res, digests_[p * kMechs + static_cast<std::size_t>(m)]);
      }
    }
    sw.wall_s = nowS() - sw.t0;
    return sw;
  }

  const std::vector<std::uint64_t>& digests() const { return digests_; }

 private:
  /// A solve must finish with rounding-level residuals, and a config must
  /// give the same event-schedule digest in every sweep.
  void check(const solver::SolverResult& res, std::uint64_t& digest) {
    const std::string what = res.problem + "/" + res.mechanism;
    const double mem_tol = 1.0 + 1e-6 * res.peak_active_mem;
    if (!res.completed) return report_.fail(what + ": factorization incomplete");
    if (std::abs(res.residual_active_mem) >= mem_tol ||
        std::abs(res.residual_memory_metric) >= mem_tol ||
        std::abs(res.residual_workload) >= 1e-6 * res.total_flops + 1.0)
      return report_.fail(what + ": non-zero residuals");
    if (digest == 0) digest = res.schedule_digest;
    if (res.schedule_digest != digest)
      return report_.fail(what + ": schedule digest changed between sweeps");
    report_.ok();
  }

  const Suite& suite_;
  Report& report_;
  std::vector<std::uint64_t> digests_;
};

// ---- replica processes -------------------------------------------------------
//
// A replica reports to the parent over a pipe, one text line per record:
//   D <digest>...                    its warm-up sweep's schedule digests
//   B <wall>                         its sweep with the obs recorder on
//   S <t0> <wall> <events> <state> <n> (<solve t0> <solve s>)*n
//   R <attempted> <failed> <allocs>  its checked operations and the
//                                    allocations of its timed sweeps; last

std::string sweepLine(const Sweep& s) {
  std::ostringstream os;
  os.precision(17);
  os << "S " << s.t0 << ' ' << s.wall_s << ' ' << s.events << ' '
     << s.state_msgs << ' ' << s.solve_s.size();
  for (std::size_t i = 0; i < s.solve_s.size(); ++i)
    os << ' ' << s.solve_t0[i] << ' ' << s.solve_s[i];
  return os.str();
}

[[noreturn]] void replicaMain(const Suite& suite, double budget_s,
                              std::size_t min_solves, bool obs_sweep, int fd) {
  Report local;
  SweepRunner runner(suite, local);
  std::FILE* out = ::fdopen(fd, "w");
  if (out == nullptr) ::_exit(3);
  runner.run();  // warm-up: caches, lazy allocations, first digests
  std::fprintf(out, "D");
  for (const std::uint64_t d : runner.digests())
    std::fprintf(out, " %llu", static_cast<unsigned long long>(d));
  std::fprintf(out, "\n");
  if (obs_sweep) {
    obs::TraceRecorder recorder;
    std::fprintf(out, "B %.17g\n", runner.run(&recorder).wall_s);
  }
  const std::uint64_t allocs0 = alloc::threadCount();
  const double t0 = nowS();
  std::size_t solves = 0;
  while (solves == 0 || nowS() - t0 < budget_s || solves < min_solves) {
    const Sweep s = runner.run();
    solves += s.solve_s.size();
    std::fprintf(out, "%s\n", sweepLine(s).c_str());
  }
  std::fprintf(out, "R %lld %lld %llu\n", static_cast<long long>(local.attempted()),
               static_cast<long long>(local.failed()),
               static_cast<unsigned long long>(alloc::threadCount() - allocs0));
  // _exit: a forked replica must not run the parent's atexit handlers.
  ::_exit(std::fflush(out) == 0 ? 0 : 3);
}

struct Sweeps {
  std::vector<Sweep> sweeps;
  std::vector<double> obs_sweeps;  ///< walls of the obs-recorder sweeps
  CpuTimes cpu;
  std::uint64_t allocs = 0;  ///< during the timed sweeps, all replicas
};

/// Parses one replica's output into `w`; false if it is malformed or
/// incomplete.
bool parseReplica(const std::string& text, std::vector<std::uint64_t>& digests,
            Sweeps& w, Report& report) {
  std::istringstream lines(text);
  std::string line;
  bool finished = false;
  while (std::getline(lines, line)) {
    std::istringstream in(line);
    char kind = 0;
    in >> kind;
    if (kind == 'D') {
      std::vector<std::uint64_t> d;
      for (unsigned long long x = 0; in >> x;) d.push_back(x);
      if (digests.empty()) digests = d;
      if (d != digests) report.fail("replicas disagree on a schedule digest");
    } else if (kind == 'B') {
      double wall = 0.0;
      if (!(in >> wall)) return false;
      w.obs_sweeps.push_back(wall);
    } else if (kind == 'S') {
      Sweep s;
      std::size_t n = 0;
      if (!(in >> s.t0 >> s.wall_s >> s.events >> s.state_msgs >> n)) return false;
      s.solve_t0.resize(n);
      s.solve_s.resize(n);
      for (std::size_t i = 0; i < n; ++i)
        if (!(in >> s.solve_t0[i] >> s.solve_s[i])) return false;
      w.sweeps.push_back(std::move(s));
    } else if (kind == 'R') {
      long long attempted = 0, failed = 0;
      std::uint64_t allocs = 0;
      if (!(in >> attempted >> failed >> allocs)) return false;
      report.absorb(attempted, failed);
      w.allocs += allocs;
      finished = true;
    }
  }
  return finished;
}

/// Runs kReplicas replicas of the sweep loop at once, each for `budget_s`
/// of whole sweeps and until the replicas together have timed
/// `min_solves` solves, and pools what they report.
Sweeps runReplicas(const Suite& suite, double budget_s, std::size_t min_solves,
                   bool obs_sweep, Report& report, SpanLog* spans) {
  Sweeps w;
  const CpuTimes cpu0 = cpuNow();
  std::vector<pid_t> pids;
  std::vector<pollfd> fds;
  const std::size_t per_replica = (min_solves + kReplicas - 1) / kReplicas;
  for (int k = 0; k < kReplicas; ++k) {
    int p[2];
    if (::pipe(p) != 0) {
      report.fail("cannot create a replica pipe");
      break;
    }
    const pid_t pid = ::fork();
    if (pid == 0) {
      ::close(p[0]);
      replicaMain(suite, budget_s, per_replica, obs_sweep, p[1]);
    }
    ::close(p[1]);
    if (pid < 0) {
      ::close(p[0]);
      report.fail("cannot fork a replica");
      break;
    }
    pids.push_back(pid);
    fds.push_back({p[0], POLLIN, 0});
  }

  // Read every pipe to EOF, whichever replica writes first.
  std::vector<std::string> text(fds.size());
  std::size_t open = fds.size();
  while (open > 0) {
    if (::poll(fds.data(), fds.size(), -1) < 0) continue;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].fd < 0 || fds[k].revents == 0) continue;
      char buf[4096];
      const ssize_t n = ::read(fds[k].fd, buf, sizeof buf);
      if (n > 0) {
        text[k].append(buf, static_cast<std::size_t>(n));
        continue;
      }
      ::close(fds[k].fd);
      fds[k].fd = -1;
      --open;
    }
  }

  std::vector<std::uint64_t> digests;
  for (std::size_t k = 0; k < pids.size(); ++k) {
    int status = 0;
    const bool exited = ::waitpid(pids[k], &status, 0) == pids[k] &&
                        WIFEXITED(status) && WEXITSTATUS(status) == 0;
    if (!exited || !parseReplica(text[k], digests, w, report))
      report.fail("replica " + std::to_string(k) + " did not finish its sweeps");
  }
  w.cpu = cpuNow() - cpu0;

  if (spans != nullptr) {
    for (const Sweep& s : w.sweeps) {
      spans->span("sweep", s.t0, s.t0 + s.wall_s);
      for (std::size_t i = 0; i < s.solve_s.size(); ++i)
        spans->span(kMechanismCycle[i % kMechs].name, s.solve_t0[i],
                    s.solve_t0[i] + s.solve_s[i], 1);
    }
  }
  return w;
}

std::vector<double> sweepWalls(const Sweeps& w) {
  std::vector<double> v;
  for (const Sweep& s : w.sweeps) v.push_back(s.wall_s);
  return v;
}

}  // namespace

void runSimPaper(const Options& opt, Report& report, SpanLog* trace) {
  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows; a traced run sets up once.
  std::vector<double> setup_s, generate_s, analyze_s;
  Suite suite;
  for (int i = 0; i < (trace != nullptr ? 1 : kSetupRepeats); ++i) {
    suite = setUp(opt.seed, trace);
    setup_s.push_back(suite.generate_s + suite.analyze_s);
    generate_s.push_back(suite.generate_s);
    analyze_s.push_back(suite.analyze_s);
  }

  if (trace == nullptr) {
    const Sweeps w =
        runReplicas(suite, opt.seconds, kTailMinSamples, false, report, nullptr);
    std::vector<double> solves;
    double solve_total = 0.0;
    double events = 0.0, state_msgs = 0.0;
    for (const Sweep& s : w.sweeps) {
      for (const double x : s.solve_s) solve_total += x;
      solves.insert(solves.end(), s.solve_s.begin(), s.solve_s.end());
      events += static_cast<double>(s.events);
      state_msgs += static_cast<double>(s.state_msgs);
    }
    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", mean(sweepWalls(w)), "s");
    report.add("cpu_s", w.cpu.total() / static_cast<double>(w.sweeps.size()), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("events_per_s", events / solve_total, "1/s");
    report.add("state_msgs_per_s", state_msgs / solve_total, "1/s");
    report.add("latency_p50_s", quantile(solves, 0.5), "s");
    report.add("latency_tail_s", quantile(solves, kTailQuantile), "s");
    return;
  }

  const Sweeps base = runReplicas(suite, opt.seconds / 2, 0, false, report, nullptr);
  const double base_wall = mean(sweepWalls(base));
  // The traced window opens with one sweep per replica with the solver's
  // own obs trace recorder installed.
  alloc::setCounting(true);
  const Sweeps w = runReplicas(suite, opt.seconds / 2, 0, true, report, trace);
  alloc::setCounting(false);

  double solve_total = 0.0, events = 0.0, state_msgs = 0.0;
  std::vector<double> run_s[kMechs];
  for (const Sweep& s : w.sweeps) {
    double per_mech[kMechs] = {};
    for (std::size_t i = 0; i < s.solve_s.size(); ++i) {
      per_mech[i % kMechs] += s.solve_s[i];
      solve_total += s.solve_s[i];
    }
    for (int m = 0; m < kMechs; ++m) run_s[m].push_back(per_mech[m]);
    events += static_cast<double>(s.events);
    state_msgs += static_cast<double>(s.state_msgs);
  }
  const auto sweeps = static_cast<double>(w.sweeps.size());
  const auto allocs = static_cast<double>(w.allocs);
  report.add("sparse.generate_s", median(generate_s), "s");
  report.add("symbolic.analyze_s", median(analyze_s), "s");
  for (int m = 0; m < kMechs; ++m)
    report.add(std::string("solver.run_s.") + kMechanismCycle[m].name,
               median(run_s[m]), "s");
  report.add("sim.events", events / sweeps, "count");
  report.add("sim.ns_per_event", 1e9 * solve_total / events, "ns");
  report.add("core.state_msgs", state_msgs / sweeps, "count");
  report.add("alloc.per_event", allocs / events, "ratio");
  report.add("alloc.per_state_msg", allocs / state_msgs, "ratio");
  report.add("obs.trace_on_ratio", mean(w.obs_sweeps) / base_wall, "ratio");
  report.add("trace_overhead_ratio", mean(sweepWalls(w)) / base_wall, "ratio");
}

}  // namespace perfbench
