// net_flood: 4 forked rank processes over Unix-domain sockets
// (net::runMultiProcess, coalescing on) replay a long storm script with
// threshold 1, so every load change crosses the threshold and goes on the
// wire. The only workload that exercises the wire codec, write(2)/epoll
// and the launcher. One cycle runs one script per mechanism.
#include <cstdint>
#include <string>
#include <vector>

#include "alloc_hook.h"
#include "net/launch.h"
#include "net/wire.h"
#include "rt_replay.h"

namespace perfbench {

using namespace loadex;

namespace {

constexpr int kSetupRepeats = 15;
constexpr int kCodecPasses = 5;

// Four rank processes (the 4-core budget); the supervising parent blocks
// on its control sockets. `workers` sizes the in-process replay that
// captures the payload mix.
constexpr RtShape kNetScript{4, 3, 0, 0.0, 200000, 40, 1.0};

struct NetRun {
  double total_s = 0.0;  ///< the runMultiProcess call
  net::NetRunReport rep;
};

NetRun runOnce(const harness::Script& s, Report& report, SpanLog* spans) {
  net::NetOptions opts;
  opts.transport = net::NetTransportKind::kUds;
  opts.coalesce = true;
  NetRun run;
  const double t0 = nowS();
  run.rep = net::runMultiProcess(s, opts);
  const double t1 = nowS();
  run.total_s = t1 - t0;
  if (spans != nullptr) spans->span(core::mechanismKindName(s.kind), t0, t1, 1);

  const std::string what = std::string(core::mechanismKindName(s.kind)) +
                           " net script " + std::to_string(s.seed);
  const net::NetRunReport& rep = run.rep;
  if (!rep.ok) report.fail(what + ": " + rep.error);
  else if (!rep.conservationHolds())
    report.fail(what + ": posted + duplicated != delivered + dropped");
  else if (rep.committed != static_cast<std::int64_t>(s.selections.size()))
    report.fail(what + ": committed != scripted selections");
  else if (rep.audit_violations != 0)
    report.fail(what + ": protocol audit violations");
  else report.ok();
  return run;
}

/// Whole cycles until `budget_s` has passed and there are at least
/// `min_samples` runs (the per-run latency sample).
Window<NetRun> measure(const std::vector<harness::Script>& scripts,
                       Report& report, double budget_s,
                       std::size_t min_samples, SpanLog* spans) {
  return measureCycles(
      scripts, budget_s, min_samples,
      [&](const harness::Script& s) { return runOnce(s, report, spans); },
      [](const NetRun&) { return std::size_t{1}; });
}

double cycleWall(const Window<NetRun>& w) {
  return mean(perCycle(w, [](const NetRun& r) { return r.total_s; }));
}

struct CodecTimes {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
};

/// Frames every captured payload as the rank processes do
/// (FrameBuilder + encodeStateBody), then cuts and decodes the stream
/// (tryDecodeFrame + decodeStateBody); median ns per message over passes.
CodecTimes timeCodec(const std::vector<TimedTransport::Sent>& mix,
                     Report& report, SpanLog& spans) {
  std::vector<double> enc, dec;
  std::vector<std::uint8_t> buf;
  bool ok = !mix.empty();
  for (int pass = 0; pass < kCodecPasses && ok; ++pass) {
    buf.clear();
    std::uint32_t seq = 0;
    const double t0 = nowS();
    for (const TimedTransport::Sent& m : mix) {
      net::FrameBuilder fb(buf, net::FrameKind::kState, ++seq);
      net::encodeStateBody(m.tag, *m.payload, fb.writer());
      fb.finish();
    }
    const double t1 = nowS();
    std::size_t pos = 0, decoded = 0;
    while (ok && pos < buf.size()) {
      net::FrameView f;
      std::size_t consumed = 0;
      ok = net::tryDecodeFrame(buf.data() + pos, buf.size() - pos, f, consumed) ==
               net::DecodeStatus::kFrame &&
           f.kind == net::FrameKind::kState;
      if (!ok) break;
      net::WireReader r(f.body, f.body_len);
      net::StateFrame out;
      ok = net::decodeStateBody(r, out) && out.tag == mix[decoded].tag;
      pos += consumed;
      ++decoded;
    }
    const double t2 = nowS();
    ok = ok && decoded == mix.size();
    spans.span("net.wire.encode", t0, t1);
    spans.span("net.wire.decode", t1, t2);
    enc.push_back(1e9 * (t1 - t0) / static_cast<double>(mix.size()));
    dec.push_back(1e9 * (t2 - t1) / static_cast<double>(mix.size()));
  }
  if (!ok) report.fail("wire codec round trip of the captured payload mix");
  else report.ok();
  return {median(enc), median(dec)};
}

}  // namespace

void runNetFlood(const Options& opt, Report& report, SpanLog* trace) {
  std::vector<harness::Script> scripts;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = nowS();
    scripts = makeCycle(kNetScript, opt.seed);
    setup_s.push_back(nowS() - t0);
  }
  for (const harness::Script& s : scripts) runOnce(s, report, nullptr);  // warm-up

  const auto go = [](const NetRun& r) { return r.rep.wall_s; };
  const auto state = [](const NetRun& r) { return r.rep.state.delivered; };

  if (trace == nullptr) {
    const Window<NetRun> w = measure(scripts, report, opt.seconds, kTailMinSamples, nullptr);
    const double go_total = sumOver(w, go);
    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", cycleWall(w), "s");
    report.add("cpu_s", w.cpu.total() / static_cast<double>(w.cycles.size()), "s");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("events_per_s",
               sumOver(w, [](const NetRun& r) { return r.rep.frames_delivered; }) /
                   go_total,
               "1/s");
    report.add("state_msgs_per_s", sumOver(w, state) / go_total, "1/s");
    const std::vector<double> runs = perRun(w, [](const NetRun& r) { return r.total_s; });
    report.add("latency_p50_s", quantile(runs, 0.5), "s");
    report.add("latency_tail_s", quantile(runs, kTailQuantile), "s");
    return;
  }

  const Window<NetRun> base = measure(scripts, report, opt.seconds / 2, 0, nullptr);

  // The payload mix: the same scripts replayed in-process, every send
  // kept. Released before the traced window so the forks stay small.
  CodecTimes codec;
  {
    std::vector<TimedTransport::Sent> mix;
    for (const harness::Script& s : scripts) {
      ScriptRun r = replayScript(kNetScript, s, report, trace, SIZE_MAX);
      mix.insert(mix.end(), r.captured.begin(), r.captured.end());
    }
    codec = timeCodec(mix, report, *trace);
  }

  alloc::setCounting(true);
  const Window<NetRun> w = measure(scripts, report, opt.seconds / 2, 0, trace);
  alloc::setCounting(false);

  const auto cycles = static_cast<double>(w.cycles.size());
  const auto allocs = static_cast<double>(w.allocs);
  const double frames_sent = sumOver(w, [](const NetRun& r) { return r.rep.frames_sent; });
  const double frames_delivered =
      sumOver(w, [](const NetRun& r) { return r.rep.frames_delivered; });
  report.add("core.state_msgs", sumOver(w, state) / cycles, "count");
  report.add("alloc.per_event", ratio(allocs, frames_delivered), "ratio");
  report.add("alloc.per_state_msg", ratio(allocs, sumOver(w, state)), "ratio");
  report.add("net.frames_per_write",
             ratio(frames_sent,
                   sumOver(w, [](const NetRun& r) { return r.rep.flush_writes; })),
             "ratio");
  report.add("net.bytes_per_frame",
             ratio(sumOver(w, [](const NetRun& r) { return r.rep.bytes_sent; }),
                   frames_sent),
             "B");
  report.add("net.flush_partials",
             sumOver(w, [](const NetRun& r) { return r.rep.flush_partials; }) / cycles,
             "count");
  report.add("net.children_sys_cpu_s", w.cpu.child_sys / cycles, "s");
  report.add("net.children_user_cpu_s", w.cpu.child_user / cycles, "s");
  report.add("net.wire.encode_ns", codec.encode_ns, "ns");
  report.add("net.wire.decode_ns", codec.decode_ns, "ns");
  report.add("net.launch_s",
             median(perRun(w, [](const NetRun& r) { return r.total_s - r.rep.wall_s; })),
             "s");
  report.add("net.probe_rounds",
             ratio(sumOver(w, [](const NetRun& r) { return r.rep.probe_rounds; }),
                   cycles * static_cast<double>(scripts.size())),
             "count");
  report.add("trace_overhead_ratio", cycleWall(w) / cycleWall(base), "ratio");
}

}  // namespace perfbench
