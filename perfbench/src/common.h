// Shared pieces of the benchmark driver: options, the result report,
// wall/CPU clocks, quantiles, the timed window of whole cycles, the span
// log of traced runs, and the wrappers that time the core seams of an rt
// world from outside.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "core/binding.h"
#include "core/mechanism.h"
#include "obs/trace.h"
#include "sim/application.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;       ///< per-layer run instead of the end-to-end one
  std::string trace_file;  ///< Chrome trace output of a traced run
};

/// Wall time in seconds on the steady clock.
inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// User + system CPU seconds of this process and of its reaped children.
struct CpuTimes {
  double self_user = 0.0, self_sys = 0.0;
  double child_user = 0.0, child_sys = 0.0;
  double total() const { return self_user + self_sys + child_user + child_sys; }
};
CpuTimes cpuNow();
CpuTimes operator-(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set in MB: the larger of this process's and that of its
/// largest reaped child.
double peakRssMb();

/// Nearest-rank quantile (q in (0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/// Arithmetic mean; 0 if empty. Per-cycle times are averaged, not taken
/// at the median: on a shared host the machine's speed drifts in phases of
/// seconds, and the mean of a window weighs those phases by their length
/// where the median jumps between them.
double mean(const std::vector<double>& v);

/// The percentile behind latency_tail_s on every workload. Each workload
/// keeps measuring until at least kTailMinSamples latency samples exist,
/// so at least ten lie beyond it.
constexpr double kTailQuantile = 0.90;
constexpr std::size_t kTailMinSamples = 100;

/// Operation outcomes plus the metrics printed on the last stdout line.
class Report {
 public:
  void ok() { ++attempted_; }
  /// Count a failed operation and say why on stderr.
  void fail(const std::string& what);
  /// Count operations another process checked.
  void absorb(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Set (or overwrite) a metric.
  void add(const std::string& name, double value, const std::string& unit);
  bool has(const std::string& name) const;

  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }
  double okRatio() const {
    return attempted_ > 0
               ? static_cast<double>(attempted_ - failed_) / attempted_
               : 0.0;
  }
  /// The one-line JSON result.
  std::string json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Spans a traced run records around its calls into each layer, kept in
/// memory under a fixed cap (the obs ring overwrites the oldest and counts
/// them as dropped) and written as Chrome trace-event JSON at exit.
class SpanLog {
 public:
  static constexpr std::size_t kCapacity = 1u << 16;
  SpanLog();
  /// Record [t0, t1] (nowS() values) under `name` on `track`.
  void span(const char* name, double t0, double t1, int track = 0);
  std::uint64_t dropped() const { return rec_.dropped(); }
  std::uint64_t recorded() const { return rec_.recorded(); }
  bool write(const std::string& path) const;

 private:
  double origin_;
  loadex::obs::TraceRecorder rec_;
};

/// Times every call a mechanism makes into its transport, and optionally
/// keeps the first payloads it sends (the wire codec's input mix). One
/// wrapper per rank; the rank's owner is the only caller at any time.
class TimedTransport final : public loadex::core::Transport {
 public:
  explicit TimedTransport(loadex::core::Transport& inner,
                          std::size_t capture = 0)
      : inner_(inner), capture_(capture) {}

  loadex::Rank self() const override { return inner_.self(); }
  int nprocs() const override { return inner_.nprocs(); }
  loadex::SimTime now() const override { return inner_.now(); }
  void sendState(loadex::Rank dst, loadex::core::StateTag tag,
                 loadex::Bytes size,
                 std::shared_ptr<const loadex::sim::Payload> payload) override;
  void sendStateBroadcast(
      const std::vector<loadex::Rank>& dsts, loadex::core::StateTag tag,
      loadex::Bytes size,
      std::shared_ptr<const loadex::sim::Payload> payload) override;
  void schedule(loadex::SimTime delay, std::function<void()> fn) override {
    inner_.schedule(delay, std::move(fn));
  }

  std::int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::int64_t ns() const { return ns_.load(std::memory_order_relaxed); }

  struct Sent {
    loadex::core::StateTag tag;
    std::shared_ptr<const loadex::sim::Payload> payload;
  };
  /// Captured sends; read only after the world has stopped.
  const std::vector<Sent>& captured() const { return sent_; }

 private:
  void note(loadex::core::StateTag tag,
            const std::shared_ptr<const loadex::sim::Payload>& payload,
            std::size_t copies, std::int64_t t0);

  loadex::core::Transport& inner_;
  std::size_t capture_;
  std::vector<Sent> sent_;
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// Times every state message an rt node hands to its mechanism.
class TimedHandler final : public loadex::sim::StateHandler {
 public:
  explicit TimedHandler(loadex::core::Mechanism& mech) : mech_(mech) {}
  void onStateMessage(const loadex::sim::Message& msg) override;
  bool blocksComputation() const override {
    return mech_.blocksComputation();
  }
  std::int64_t calls() const { return calls_.load(std::memory_order_relaxed); }
  std::int64_t ns() const { return ns_.load(std::memory_order_relaxed); }

 private:
  loadex::core::Mechanism& mech_;
  std::atomic<std::int64_t> calls_{0};
  std::atomic<std::int64_t> ns_{0};
};

/// The timed window of a workload made of cycles of runs (one run per
/// mechanism), with the CPU and allocations spent over it.
template <typename Run>
struct Window {
  std::vector<std::vector<Run>> cycles;
  CpuTimes cpu;
  std::uint64_t allocs = 0;
};

/// Runs whole cycles, `run(script)` once per script, until `budget_s` has
/// passed and `samples(run)` summed over the runs reaches `min_samples`.
template <typename Script, typename RunFn, typename SamplesFn>
auto measureCycles(const std::vector<Script>& scripts, double budget_s,
                   std::size_t min_samples, RunFn run, SamplesFn samples) {
  using Run = decltype(run(scripts.front()));
  Window<Run> w;
  const CpuTimes cpu0 = cpuNow();
  const std::uint64_t a0 = alloc::count();
  const double t0 = nowS();
  std::size_t taken = 0;
  while (w.cycles.empty() || nowS() - t0 < budget_s || taken < min_samples) {
    std::vector<Run> cycle;
    for (const Script& s : scripts) {
      cycle.push_back(run(s));
      taken += samples(cycle.back());
    }
    w.cycles.push_back(std::move(cycle));
  }
  w.cpu = cpuNow() - cpu0;
  w.allocs = alloc::count() - a0;
  return w;
}

template <typename Run, typename F>
double sumOver(const Window<Run>& w, F f) {
  double total = 0.0;
  for (const auto& c : w.cycles)
    for (const Run& r : c) total += static_cast<double>(f(r));
  return total;
}

template <typename Run, typename F>
std::vector<double> perCycle(const Window<Run>& w, F f) {
  std::vector<double> v;
  for (const auto& c : w.cycles) {
    double total = 0.0;
    for (const Run& r : c) total += static_cast<double>(f(r));
    v.push_back(total);
  }
  return v;
}

template <typename Run, typename F>
std::vector<double> perRun(const Window<Run>& w, F f) {
  std::vector<double> v;
  for (const auto& c : w.cycles)
    for (const Run& r : c) v.push_back(static_cast<double>(f(r)));
  return v;
}

/// num / den, or 0 when the layer did no work.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The three mechanisms in the order every workload cycles them, with the
/// names the per-layer metrics use.
struct MechanismName {
  loadex::core::MechanismKind kind;
  const char* name;
};
inline constexpr MechanismName kMechanismCycle[] = {
    {loadex::core::MechanismKind::kNaive, "naive"},
    {loadex::core::MechanismKind::kIncrement, "increments"},
    {loadex::core::MechanismKind::kSnapshot, "snapshot"},
};

/// A sub-seed for stream `k` of run seed `seed` (splitmix64 finaliser).
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t k);

/// Workload entry points. Untraced (`trace` null) they fill `report` with
/// the end-to-end metrics; traced they record spans into `trace` and fill
/// the per-layer metrics.
void runSimPaper(const Options& opt, Report& report, SpanLog* trace);
void runRtStorm(const Options& opt, Report& report, SpanLog* trace);
void runRtPaced(const Options& opt, Report& report, SpanLog* trace);
void runNetFlood(const Options& opt, Report& report, SpanLog* trace);

}  // namespace perfbench
