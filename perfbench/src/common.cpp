#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

CpuTimes cpuNow() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  return {seconds(self.ru_utime), seconds(self.ru_stime),
          seconds(children.ru_utime), seconds(children.ru_stime)};
}

CpuTimes operator-(const CpuTimes& a, const CpuTimes& b) {
  return {a.self_user - b.self_user, a.self_sys - b.self_sys,
          a.child_user - b.child_user, a.child_sys - b.child_sys};
}

double peakRssMb() {
  rusage self{};
  rusage children{};
  ::getrusage(RUSAGE_SELF, &self);
  ::getrusage(RUSAGE_CHILDREN, &children);
  // ru_maxrss is in kilobytes on Linux.
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double mean(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return v.empty() ? 0.0 : total / static_cast<double>(v.size());
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (k + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// ---- Report ----------------------------------------------------------------

void Report::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  std::cerr << "[perfbench] FAILED: " << what << "\n";
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

bool Report::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

std::string Report::json() const {
  std::ostringstream os;
  os << "{\"correct\": " << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    os << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << num
       << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

// ---- SpanLog ---------------------------------------------------------------

SpanLog::SpanLog()
    : origin_(nowS()),
      rec_(loadex::obs::TraceConfig{kCapacity, "loadex perfbench"}) {}

void SpanLog::span(const char* name, double t0, double t1, int track) {
  rec_.completeSpan(t0 - origin_, t1 - origin_, track, name);
}

bool SpanLog::write(const std::string& path) const {
  return rec_.writeChromeTraceFile(path);
}

// ---- seam wrappers ---------------------------------------------------------

void TimedTransport::note(
    loadex::core::StateTag tag,
    const std::shared_ptr<const loadex::sim::Payload>& payload,
    std::size_t copies, std::int64_t t0) {
  ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
  for (std::size_t i = 0; i < copies && sent_.size() < capture_; ++i)
    sent_.push_back({tag, payload});
}

void TimedTransport::sendState(
    loadex::Rank dst, loadex::core::StateTag tag, loadex::Bytes size,
    std::shared_ptr<const loadex::sim::Payload> payload) {
  const std::int64_t t0 = nowNs();
  // Kept alive across the call: the capture stores it afterwards.
  const std::shared_ptr<const loadex::sim::Payload> keep =
      capture_ > 0 ? payload : nullptr;
  inner_.sendState(dst, tag, size, std::move(payload));
  note(tag, keep, 1, t0);
}

void TimedTransport::sendStateBroadcast(
    const std::vector<loadex::Rank>& dsts, loadex::core::StateTag tag,
    loadex::Bytes size, std::shared_ptr<const loadex::sim::Payload> payload) {
  const std::int64_t t0 = nowNs();
  const std::shared_ptr<const loadex::sim::Payload> keep =
      capture_ > 0 ? payload : nullptr;
  inner_.sendStateBroadcast(dsts, tag, size, std::move(payload));
  // A broadcast puts one frame per destination on the wire.
  note(tag, keep, dsts.size(), t0);
}

void TimedHandler::onStateMessage(const loadex::sim::Message& msg) {
  const std::int64_t t0 = nowNs();
  mech_.onStateMessage(msg);
  ns_.fetch_add(nowNs() - t0, std::memory_order_relaxed);
  calls_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace perfbench
