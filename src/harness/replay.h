// The one replay core. The simulator (harness::SimReplay), rt's
// WorkloadDriver and every net rank process apply a seeded Script through
// ScriptReplay, so the paper's application step (Algorithm 1: take a
// view, pick a slave, commit, delegate) is written once; svc::Dispatcher
// takes its decisions through the same selectAndCommit.
//
//   orderedScriptOps — the one time-ordering of a Script's op streams,
//     declaration order breaking ties.
//   selectAndCommit  — requestView, the shared leastLoadedSlave policy,
//     and exactly one commitSelection inside the view callback, an empty
//     one on the degraded skip path (the snapshot mechanism keeps the
//     system frozen until the decision is committed).
//   ScriptReplay     — applies each op through a runtime's host seam with
//     one op rule: a load runs as its rank at once; a selection or a
//     No_more_master waits only while its own rank's mechanism blocks
//     computation, and the rank's later ops are never held behind it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/mechanism.h"
#include "harness/script.h"

namespace loadex::harness {

/// Uniform, time-ordered view of a Script's operations. `index` points
/// into the script vector selected by `what`; the op's data is copied in
/// too, so a replay walks one array instead of jumping around the script
/// through time-sorted indices (cache misses on large scripts).
struct ScriptOpRef {
  SimTime time = 0.0;
  int order = 0;  ///< stable tie-break: script declaration order
  enum class What : std::uint8_t { kLoad, kSelect, kNoMoreMaster } what =
      What::kLoad;
  std::size_t index = 0;
  Rank rank = kNoRank;      ///< loaded rank, master or announcer
  core::LoadMetrics delta;  ///< kLoad
  double share = 0.0;       ///< kSelect
};

/// `only` keeps just that rank's ops (kNoRank: every rank's).
inline std::vector<ScriptOpRef> orderedScriptOps(const Script& s,
                                                 Rank only = kNoRank) {
  std::vector<ScriptOpRef> ops;
  ops.reserve(s.loads.size() + s.selections.size() + 1);
  int order = 0;
  const auto add = [&](SimTime t, ScriptOpRef::What w, std::size_t i,
                       Rank r, core::LoadMetrics delta, double share) {
    if (only == kNoRank || r == only)
      ops.push_back({t, order, w, i, r, delta, share});
    ++order;
  };
  for (std::size_t i = 0; i < s.loads.size(); ++i)
    add(s.loads[i].time, ScriptOpRef::What::kLoad, i, s.loads[i].rank,
        s.loads[i].delta, 0.0);
  for (std::size_t i = 0; i < s.selections.size(); ++i)
    add(s.selections[i].time, ScriptOpRef::What::kSelect, i,
        s.selections[i].master, {}, s.selections[i].share);
  if (s.no_more_master != kNoRank)
    add(s.no_more_master_at, ScriptOpRef::What::kNoMoreMaster, 0,
        s.no_more_master, {}, 0.0);
  std::sort(ops.begin(), ops.end(),
            [](const ScriptOpRef& a, const ScriptOpRef& b) {
              return a.time != b.time ? a.time < b.time : a.order < b.order;
            });
  return ops;
}

/// One dynamic scheduling decision through a mechanism: request a view,
/// delegate `share` to the least-loaded healthy slave, and commit exactly
/// once before returning from the view callback.
///
/// on_chosen(view, slave) runs after the commit, on the mechanism's
/// execution context (synchronously for the maintained-view mechanisms,
/// from the snapshot-completion callback otherwise) — send the work
/// envelope there. on_skip(view) runs after the empty commit when every
/// peer is dead or untrusted; the work stays local.
template <typename OnChosen, typename OnSkip>
void selectAndCommit(core::Mechanism& m, const core::LoadMetrics& share,
                     OnChosen on_chosen, OnSkip on_skip) {
  m.requestView([&m, share, on_chosen = std::move(on_chosen),
                 on_skip = std::move(on_skip)](const core::LoadView& v) {
    const Rank slave = leastLoadedSlave(v, m.self());
    if (slave == kNoRank) {
      // Degraded decision: the snapshot mechanism still requires the
      // decision to be committed inside the callback — an empty
      // selection closes it without delegating anything.
      m.commitSelection({});
      on_skip(v);
      return;
    }
    m.commitSelection({{slave, share}});
    on_chosen(v, slave);
  });
}

/// Selection outcomes of one master rank. Only that rank's owner writes
/// its slot (from the view callback, which runs as the master), so no
/// lock guards it; read it once the run has quiesced.
struct SelectionTally {
  std::int64_t committed = 0;
  std::int64_t skipped = 0;       ///< no eligible slave in the view
  std::vector<double> latency_s;  ///< selection start -> view callback
};

/// Applies a Script's ops in orderedScriptOps order through `Host`:
///   host.runNow(r, fn)      run fn(mechanism of r) as rank r, now;
///   host.runWhenFree(r, fn) the same once r's mechanism stops blocking;
///   host.delegate(m, s, x)  ship share x from master m (the caller) to
///                           slave s on the application channel, where it
///                           lands as addLocalLoad({x, 0}, true);
///   host.now()              the runtime's clock.
/// The host decides *when* applyNext() runs; `only` keeps one rank's ops.
template <typename Host>
class ScriptReplay {
 public:
  ScriptReplay(Host& host, const Script& script, Rank only = kNoRank)
      : host_(host),
        ops_(orderedScriptOps(script, only)),
        tallies_(static_cast<std::size_t>(script.nprocs)) {}

  bool done() const { return next_ == ops_.size(); }
  /// Script time of the next op; only valid while !done().
  SimTime nextTime() const { return ops_[next_].time; }
  void applyNext() { apply(ops_[next_++]); }

  const SelectionTally& tally(Rank r) const {
    return tallies_[static_cast<std::size_t>(r)];
  }

 private:
  void apply(const ScriptOpRef& op) {
    switch (op.what) {
      case ScriptOpRef::What::kLoad:
        host_.runNow(op.rank, [delta = op.delta](core::Mechanism& m) {
          m.addLocalLoad(delta);
        });
        return;
      case ScriptOpRef::What::kSelect:
        host_.runWhenFree(op.rank, [this, master = op.rank,
                                    share = op.share](core::Mechanism& m) {
          // Latency starts after the free-wait: it measures the decision,
          // not how long a foreign snapshot kept the master frozen.
          const SimTime t0 = host_.now();
          SelectionTally& t = tallies_[static_cast<std::size_t>(master)];
          selectAndCommit(
              m, {share, 0.0},
              [this, &t, master, share, t0](const core::LoadView&,
                                            Rank slave) {
                ++t.committed;
                t.latency_s.push_back(host_.now() - t0);
                host_.delegate(master, slave, share);
              },
              [this, &t, t0](const core::LoadView&) {
                ++t.skipped;  // no eligible slave: the work stays local
                t.latency_s.push_back(host_.now() - t0);
              });
        });
        return;
      case ScriptOpRef::What::kNoMoreMaster:
        host_.runWhenFree(op.rank,
                          [](core::Mechanism& m) { m.noMoreMaster(); });
        return;
    }
  }

  Host& host_;
  std::vector<ScriptOpRef> ops_;
  std::size_t next_ = 0;
  std::vector<SelectionTally> tallies_;  ///< indexed by master rank
};

}  // namespace loadex::harness
