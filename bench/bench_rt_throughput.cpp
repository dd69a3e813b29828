// Throughput and latency of the real-threads runtime (src/rt).
//
// Two layers are measured:
//
//   mailbox — raw envelope throughput of one bounded MPSC mailbox (the
//     Vyukov ring), 1 and 4 producer threads against the single consumer,
//     which drains in tryPopBatch chunks the way the executor does. This
//     is the fabric every rt message rides on.
//
//   end-to-end — a seeded selection script (harness::Script shape: load
//     storm + master selections) replayed by rt::WorkloadDriver over a
//     full RtWorld, for N ∈ {4, 8, 16} ranks × the three paper mechanisms.
//     Reported: state messages/sec through the mailboxes and the
//     requestView → view-callback latency (the real-time cost of a
//     scheduling decision, the quantity the paper's Table 5 approximates
//     in simulated time).
//
//   weak scaling (--weak) — ranks ≫ cores on the M:N executor: N ∈
//     {64, 256, 1024} ranks with constant per-rank work on a pinned
//     8-worker pool, so the rank count grows 16× while the core budget
//     stays fixed. Reported per (N, mechanism): delivered state messages,
//     throughput and wall time. The --json records carry a deterministic
//     schedule digest (an FNV fold of the generated script, the only
//     replayable identity of a threaded run) so CI can gate the N=256
//     point against bench/baselines/rt_weak_n256.json; --n runs a single
//     N for that job.
//
// Every measured number here is host-volatile — thread scheduling, not
// simulation, decides it — so --json emits them all as "host_"-prefixed
// extras; record identity is only (problem, mechanism, strategy, nprocs)
// plus the deterministic script-shape extras of the weak mode.
#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/cli.h"
#include "common/rng.h"
#include "harness/script.h"
#include "rt/clock.h"
#include "rt/mailbox.h"
#include "rt/workload.h"
#include "rt/world.h"

using namespace loadex;

namespace {

// ---- raw mailbox throughput -----------------------------------------------

struct MailboxRun {
  std::uint64_t msgs = 0;
  double wall_s = 0.0;
  std::uint64_t full_rejections = 0;
  double msgsPerS() const { return static_cast<double>(msgs) / wall_s; }
};

MailboxRun runMailbox(int producers, std::uint64_t msgs_total) {
  rt::Mailbox mb;
  const std::uint64_t per = msgs_total / static_cast<std::uint64_t>(producers);

  const rt::MonotonicClock clock;
  const SimTime t0 = clock.now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&mb, per] {
      for (std::uint64_t i = 0; i < per; ++i) {
        sim::Message m;
        m.tag = static_cast<int>(i);
        mb.push(std::move(m));
      }
    });
  }
  // Drain like a worker visit: chunked batches, yield when empty.
  std::uint64_t got = 0;
  std::vector<rt::Envelope> batch(16);
  const std::uint64_t want = per * static_cast<std::uint64_t>(producers);
  while (got < want) {
    const std::size_t k = mb.tryPopBatch(batch.data(), batch.size());
    if (k == 0) std::this_thread::yield();
    got += k;
  }
  for (auto& t : threads) t.join();

  MailboxRun r;
  r.msgs = got;
  r.wall_s = std::max(clock.now() - t0, 1e-12);
  r.full_rejections = mb.stats().full_rejections;
  return r;
}

// ---- end-to-end selection runs --------------------------------------------

/// Same hostile shape as tests/test_rt_stress.cpp: every load change
/// crosses the threshold, several masters take decisions mid-storm.
harness::Script benchScript(std::uint64_t seed, int nprocs,
                            core::MechanismKind kind, double scale) {
  Rng rng(seed);
  harness::Script s;
  s.seed = seed;
  s.nprocs = nprocs;
  s.kind = kind;
  s.threshold = 1.0;
  const int nloads = static_cast<int>(nprocs * 40 * scale);
  for (int i = 0; i < nloads; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0),
                       static_cast<Rank>(rng.uniformInt(
                           static_cast<std::uint64_t>(nprocs))),
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < 8; ++i)
    s.selections.push_back({rng.uniformReal(0.3, 0.9),
                            static_cast<Rank>(rng.uniformInt(
                                static_cast<std::uint64_t>(nprocs))),
                            rng.uniformReal(5.0, 40.0)});
  return s;
}

struct EndToEndRun {
  rt::WorkloadResult result;
  rt::RtRunStats stats;
  double latency_mean_s = 0.0;
  double latency_p95_s = 0.0;
  double stateMsgsPerS() const {
    return static_cast<double>(stats.state_delivered) /
           std::max(result.wall_s, 1e-12);
  }
};

EndToEndRun runEndToEnd(int nprocs, core::MechanismKind kind,
                        std::uint64_t seed, double scale) {
  const harness::Script s = benchScript(seed, nprocs, kind, scale);
  rt::RtConfig rcfg;
  rcfg.nprocs = nprocs;
  rt::RtWorld world(rcfg);
  core::MechanismSet mechs(world.transports(), kind,
                           [&] {
                             core::MechanismConfig m;
                             m.threshold = {s.threshold, s.threshold};
                             return m;
                           }());
  for (Rank r = 0; r < nprocs; ++r) world.attach(r, &mechs.at(r));
  world.start();
  rt::WorkloadDriver driver(world, mechs);
  EndToEndRun run;
  run.result = driver.run(s, /*time_scale=*/0.0, /*drain_timeout_s=*/120.0);
  world.stop();
  run.stats = world.runStats();

  std::vector<double> lat = run.result.selection_latency_s;
  if (!lat.empty()) {
    std::sort(lat.begin(), lat.end());
    double sum = 0.0;
    for (const double l : lat) sum += l;
    run.latency_mean_s = sum / static_cast<double>(lat.size());
    run.latency_p95_s = lat[std::min(lat.size() - 1,
                                     static_cast<std::size_t>(
                                         0.95 * static_cast<double>(
                                                    lat.size())))];
  }
  return run;
}

std::string human(double v) { return Table::fmt(v / 1e6, 2) + "M"; }

// ---- weak scaling: ranks >> cores on the M:N executor -----------------------

constexpr int kWeakWorkers = 8;
constexpr int kWeakLoadsPerRank = 4;
constexpr int kWeakSelections = 8;

/// Constant per-rank work: every rank takes kWeakLoadsPerRank load
/// changes, so the injected op count grows linearly with N while the
/// 8-worker core budget stays fixed. (Broadcast mechanisms still pay
/// O(N) deliveries per threshold crossing — that fan-out is the scaling
/// cost the curve exists to show.)
harness::Script weakScript(std::uint64_t seed, int nprocs,
                           core::MechanismKind kind) {
  Rng rng(seed ^ (static_cast<std::uint64_t>(nprocs) << 20) ^
          static_cast<std::uint64_t>(static_cast<int>(kind)));
  harness::Script s;
  s.seed = seed;
  s.nprocs = nprocs;
  s.kind = kind;
  s.threshold = 6.0;
  for (int i = 0; i < nprocs * kWeakLoadsPerRank; ++i)
    s.loads.push_back({rng.uniformReal(0.01, 1.0),
                       static_cast<Rank>(i % nprocs),  // even per-rank work
                       {rng.uniformReal(2.0, 24.0),
                        rng.uniformReal(0.0, 8.0)}});
  for (int i = 0; i < kWeakSelections; ++i)
    s.selections.push_back({rng.uniformReal(0.3, 0.9),
                            static_cast<Rank>(rng.uniformInt(
                                static_cast<std::uint64_t>(nprocs))),
                            rng.uniformReal(5.0, 40.0)});
  return s;
}

std::uint64_t fnv1a64(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t bitsOf(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Replay-identity fingerprint of a weak-scaling run: a threaded replay
/// has no deterministic event schedule, so the digest folds the script
/// itself — the plan both the baseline and the CI run must regenerate
/// bit-for-bit from the same seed.
std::uint64_t scriptDigest(const harness::Script& s) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  h = fnv1a64(h, static_cast<std::uint64_t>(s.nprocs));
  h = fnv1a64(h, static_cast<std::uint64_t>(static_cast<int>(s.kind)));
  h = fnv1a64(h, bitsOf(s.threshold));
  for (const auto& op : s.loads) {
    h = fnv1a64(h, static_cast<std::uint64_t>(op.rank));
    h = fnv1a64(h, bitsOf(op.time));
    h = fnv1a64(h, bitsOf(op.delta.workload));
    h = fnv1a64(h, bitsOf(op.delta.memory));
  }
  for (const auto& op : s.selections) {
    h = fnv1a64(h, static_cast<std::uint64_t>(op.master));
    h = fnv1a64(h, bitsOf(op.time));
    h = fnv1a64(h, bitsOf(op.share));
  }
  return h;
}

int runWeakScaling(const bench::BenchEnv& env, int only_n) {
  bench::JsonResults json("rt_weak", env);
  std::cout << "rt weak scaling — ranks >> cores on the M:N executor ("
            << kWeakWorkers << " workers, " << kWeakLoadsPerRank
            << " loads/rank)\n\n";
  Table wt("Weak scaling, state msgs/sec on a fixed 8-worker pool");
  wt.setHeader({"N", "ranks/worker", "state msgs", "msgs/s", "wall",
                "sel lat p95", "steal"});
  for (const int n : {64, 256, 1024}) {
    if (only_n != 0 && n != only_n) continue;
    for (const auto kind :
         {core::MechanismKind::kNaive, core::MechanismKind::kIncrement,
          core::MechanismKind::kSnapshot}) {
      const harness::Script s = weakScript(env.seed, n, kind);
      rt::RtConfig rcfg;
      rcfg.nprocs = n;
      rcfg.executor.workers = kWeakWorkers;
      // Default 4096-slot rings would cost hundreds of MB at N=1024;
      // small rings also keep the spill path in the measured loop.
      rcfg.mailbox.capacity = 256;
      rt::RtWorld world(rcfg);
      core::MechanismSet mechs(world.transports(), kind,
                               [&] {
                                 core::MechanismConfig m;
                                 m.threshold = {s.threshold, s.threshold};
                                 return m;
                               }());
      for (Rank r = 0; r < n; ++r) world.attach(r, &mechs.at(r));
      world.start();
      rt::WorkloadDriver driver(world, mechs);
      EndToEndRun run;
      run.result =
          driver.run(s, /*time_scale=*/0.0, /*drain_timeout_s=*/300.0);
      world.stop();
      run.stats = world.runStats();

      std::vector<double> lat = run.result.selection_latency_s;
      double p95 = 0.0;
      if (!lat.empty()) {
        std::sort(lat.begin(), lat.end());
        p95 = lat[std::min(lat.size() - 1,
                           static_cast<std::size_t>(
                               0.95 * static_cast<double>(lat.size())))];
      }
      const std::int64_t visits =
          run.stats.shard_visits_home + run.stats.shard_visits_stolen;
      const double steal_ratio =
          visits > 0 ? static_cast<double>(run.stats.shard_visits_stolen) /
                           static_cast<double>(visits)
                     : 0.0;
      wt.addRow({std::to_string(n) + " " + core::mechanismKindName(kind),
                 std::to_string(n / kWeakWorkers),
                 std::to_string(run.stats.state_delivered),
                 Table::fmt(run.stateMsgsPerS(), 0),
                 Table::fmt(run.result.wall_s * 1e3, 1) + "ms",
                 Table::fmt(p95 * 1e6, 1) + "us",
                 Table::fmt(steal_ratio * 100.0, 1) + "%"});

      obs::BenchResultRecord rec;
      rec.problem = "rt_weak_scale";
      rec.mechanism = core::mechanismKindName(kind);
      rec.strategy = "mn8";  // M:N executor, 8 workers
      rec.nprocs = n;
      rec.completed = run.result.drained;
      rec.selections = run.result.selections_committed;
      rec.state_messages =
          static_cast<std::int64_t>(run.stats.state_delivered);
      rec.state_bytes = static_cast<std::int64_t>(run.stats.state_bytes);
      rec.schedule_digest = scriptDigest(s);
      json.add(std::move(rec),
               {// Deterministic script shape (part of the record identity).
                {"ranks_per_worker", static_cast<double>(n / kWeakWorkers)},
                {"script_loads", static_cast<double>(s.loads.size())},
                {"script_selections",
                 static_cast<double>(s.selections.size())},
                // Volatile host measurements.
                {"host_wall_s", run.result.wall_s},
                {"host_state_msgs_per_s", run.stateMsgsPerS()},
                {"host_selection_latency_p95_s", p95},
                {"host_spill_enqueues",
                 static_cast<double>(run.stats.spill_enqueues)},
                // Steal-rate accounting of the M:N pool: how much of the
                // shard traffic came from idle workers stealing foreign
                // shards vs visiting their own.
                {"host_shard_visits_home",
                 static_cast<double>(run.stats.shard_visits_home)},
                {"host_shard_visits_stolen",
                 static_cast<double>(run.stats.shard_visits_stolen)},
                {"host_steal_ratio", steal_ratio}});
    }
  }
  wt.setFootnote(
      "Constant per-rank work on a pinned 8-worker pool; broadcast "
      "mechanisms pay O(N) deliveries per crossing. Digests fingerprint "
      "the generated script (the replayable identity of a threaded run).");
  wt.print(std::cout);
  return json.write() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchEnv env = bench::BenchEnv::parse(argc, argv);
  const CliFlags flags(argc, argv);
  if (flags.getBool("weak", false))
    return runWeakScaling(env, static_cast<int>(flags.getInt("n", 0)));
  bench::JsonResults json("rt_throughput", env);

  // ---- mailbox layer ------------------------------------------------------
  const auto msgs_total = static_cast<std::uint64_t>(
      2e6 * env.effectiveScale());
  std::cout << "rt mailbox throughput — " << msgs_total
            << " envelopes through one MPSC mailbox\n\n";
  Table mt("Mailbox msgs/sec (single consumer)");
  mt.setHeader({"impl", "producers", "msgs/s", "full rejections"});
  for (const int producers : {1, 4}) {
    const MailboxRun r = runMailbox(producers, msgs_total);
    mt.addRow({"ring", std::to_string(producers), human(r.msgsPerS()),
               std::to_string(r.full_rejections)});
    obs::BenchResultRecord rec;
    rec.problem = "rt_mailbox";
    rec.strategy = "ring";
    rec.nprocs = producers;  ///< producer threads, not ranks
    rec.completed = r.msgs == msgs_total / producers * producers;
    json.add(std::move(rec),
             {{"host_msgs_per_s", r.msgsPerS()},
              {"host_wall_s", r.wall_s},
              {"host_msgs", static_cast<double>(r.msgs)},
              {"host_full_rejections",
               static_cast<double>(r.full_rejections)}});
  }
  mt.print(std::cout);

  // ---- end-to-end layer ---------------------------------------------------
  std::cout << "\nrt end-to-end — selection scripts on the rt executor\n\n";
  Table et("End-to-end state msgs/sec and selection latency");
  et.setHeader({"N", "mechanism", "state msgs", "msgs/s", "sel lat mean",
                "sel lat p95"});
  for (const int n : {4, 8, 16}) {
    for (const auto kind :
         {core::MechanismKind::kNaive, core::MechanismKind::kIncrement,
          core::MechanismKind::kSnapshot}) {
      const EndToEndRun r =
          runEndToEnd(n, kind, env.seed, env.effectiveScale());
      et.addRow({std::to_string(n), core::mechanismKindName(kind),
                 std::to_string(r.stats.state_delivered),
                 Table::fmt(r.stateMsgsPerS(), 0),
                 Table::fmt(r.latency_mean_s * 1e6, 1) + "us",
                 Table::fmt(r.latency_p95_s * 1e6, 1) + "us"});
      obs::BenchResultRecord rec;
      rec.problem = "rt_end_to_end";
      rec.mechanism = core::mechanismKindName(kind);
      rec.strategy = "rt";
      rec.nprocs = n;
      rec.completed = r.result.drained;
      rec.selections = r.result.selections_committed;
      json.add(std::move(rec),
               {{"host_wall_s", r.result.wall_s},
                {"host_state_msgs",
                 static_cast<double>(r.stats.state_delivered)},
                {"host_state_msgs_per_s", r.stateMsgsPerS()},
                {"host_selection_latency_mean_s", r.latency_mean_s},
                {"host_selection_latency_p95_s", r.latency_p95_s},
                {"host_spill_enqueues",
                 static_cast<double>(r.stats.spill_enqueues)}});
    }
  }
  et.setFootnote(
      "All numbers are host measurements (thread scheduling decides them); "
      "the --json records carry them as host_ extras only.");
  et.print(std::cout);

  return json.write() ? 0 : 1;
}
