// One rank of the multi-process world: a single-threaded epoll event
// loop that is also the mechanism's Transport.
//
// Where the sim world delivers messages through a virtual-time event
// queue and the rt world through in-process MPSC mailboxes, a NetWorld
// crosses a real kernel boundary: every rank is its own OS process, state
// messages are serialized through net/wire.h and travel over TCP or
// Unix-domain stream sockets, and time comes from rt's MonotonicClock
// seam (the one lint-sanctioned window onto host time).
//
// Threading model: there is exactly one thread — the process's main
// thread runs the epoll loop, fires timers, replays the script and calls
// into the mechanism. That makes the whole object thread-confined (the
// LOADEX_THREAD_CONFINED marker turns a stray cross-thread touch into a
// debug abort) and means the mechanism code runs under the same
// single-writer discipline it enjoys on a sim process or an rt shard —
// no locks, no LockRank entry for the loop.
//
// Write coalescing: sendState appends the encoded frame to the
// destination connection's outbound buffer; with coalescing on, buffers
// are flushed once per loop iteration (after a whole batch of deliveries
// and timer callbacks has run), so PR 4's lazy-broadcast win — one
// logical broadcast, N-1 sends — costs ~1 write(2) per destination per
// batch instead of one per message. The per-message-flush arm
// (coalesce = false) is the baseline bench_net_localhost compares
// against.
//
// Replay: the NetWorld is the host of the shared replay core
// (harness/replay.h) for its own rank's ops. A selection or No_more_master
// that finds the mechanism frozen by a snapshot waits in frozen_ops_ and
// runs on the loop pass that sees the freeze lift; later ops never wait.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/faults.h"
#include "common/rng.h"
#include "common/sync.h"
#include "common/types.h"
#include "core/audit.h"
#include "core/mechanism.h"
#include "harness/replay.h"
#include "net/socket.h"
#include "net/wire.h"
#include "rt/clock.h"
#include "rt/timer_wheel.h"

namespace loadex::net {

enum class NetTransportKind { kTcp, kUds };

const char* netTransportKindName(NetTransportKind k);
NetTransportKind parseNetTransportKind(const std::string& name);

/// Net-level failure detector driven by frame arrivals and kPing beacons
/// (independent of the protocol-level heartbeats of the hardened
/// increment stream). Disabled by default: quiescence detection requires
/// a run that actually goes quiet.
struct NetHeartbeatConfig {
  double period_s = 0.0;        ///< kPing period; 0 disables the detector
  double suspect_after_s = 0.0; ///< silence before notePeerSuspect
  double dead_after_s = 0.0;    ///< silence before notePeerDead
  bool enabled() const { return period_s > 0.0; }
};

struct NetOptions {
  NetTransportKind transport = NetTransportKind::kUds;
  /// Coalesce outbound frames per connection and flush once per loop
  /// iteration; false = one flush per message (the baseline arm).
  bool coalesce = true;
  /// Script-time to wall-time factor; 0 floods every op immediately.
  double time_scale = 0.0;
  NetHeartbeatConfig heartbeat;
  /// Send-side fault emulation (drop / duplicate), seeded per sender.
  /// Blackouts match on (self, dst, now) like the sim network.
  FaultPlan faults;
  double setup_timeout_s = 10.0;  ///< mesh connect + barrier budget
  double run_timeout_s = 60.0;    ///< supervisor drain budget
};

/// Per-channel message accounting; the conservation identity the
/// differential asserts is posted + duplicated == delivered + dropped,
/// summed over all ranks.
struct NetChannelCounters {
  std::int64_t posted = 0;      ///< transport-level sends requested
  std::int64_t dropped = 0;     ///< dropped by fault emulation at send
  std::int64_t duplicated = 0;  ///< extra copies injected at send
  std::int64_t delivered = 0;   ///< frames decoded and handed up
};

struct NetRunStats {
  NetChannelCounters state;  ///< mechanism state channel
  NetChannelCounters work;   ///< delegated application work
  std::int64_t frames_sent = 0;       ///< mesh frames enqueued (excl. pings)
  std::int64_t frames_lost = 0;       ///< buffered frames lost to a dead conn
  std::int64_t frames_delivered = 0;  ///< mesh frames decoded (excl. pings)
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  std::int64_t flush_writes = 0;    ///< write(2) syscalls on mesh sockets
  std::int64_t flush_partials = 0;  ///< short writes (kernel buffer full)
  std::int64_t reconnects = 0;
  std::int64_t seq_violations = 0;  ///< per-link wire FIFO gaps observed
  std::int64_t decode_errors = 0;   ///< corrupt frames (connection dropped)
  std::int64_t timers_fired = 0;
  std::int64_t pings_sent = 0;
  std::int64_t peers_suspected = 0;
};

/// Configuration of one rank process.
struct NetRankConfig {
  Rank self = 0;
  int nprocs = 1;
  std::string dir;  ///< run directory: UDS paths + the control socket
  NetOptions opts;
};

/// Rendezvous paths inside a run directory.
std::string ctlSocketPath(const std::string& dir);
std::string rankSocketPath(const std::string& dir, Rank r);

class NetWorld final : public core::Transport {
 public:
  explicit NetWorld(NetRankConfig cfg);
  ~NetWorld() override;

  // ---- core::Transport --------------------------------------------------
  Rank self() const override { return cfg_.self; }
  int nprocs() const override { return cfg_.nprocs; }
  SimTime now() const override { return clock_.now(); }
  void sendState(Rank dst, core::StateTag tag, Bytes size,
                 std::shared_ptr<const sim::Payload> payload) override;
  void schedule(SimTime delay, std::function<void()> fn) override;

  /// Bind the rank's mechanism; must happen before run().
  void bind(core::Mechanism* mech) { mech_ = mech; }

  /// Phase 1: listen, dial the supervisor, exchange Hello/Peers, connect
  /// the full mesh (with backoff), identify every inbound peer, send
  /// Ready. Returns false on timeout or a dead supervisor.
  bool setup();

  /// Phase 2: event loop — wait for Go, replay this rank's slice of the
  /// script, answer quiescence probes, and on Stop finish the audit and
  /// send the Summary frame. Returns the process exit code (0 = clean).
  int run(const harness::Script& script, core::ProtocolAuditor* auditor);

  const NetRunStats& stats() const { return stats_; }

 private:
  struct OutConn {
    Fd fd;
    bool up = false;
    std::vector<std::uint8_t> buf;   ///< encoded frames not yet written
    std::size_t buf_frames = 0;      ///< whole frames currently buffered
    std::uint32_t next_seq = 1;
    bool want_write = false;         ///< EPOLLOUT armed (kernel buffer full)
    bool flush_pending = false;      ///< coalescing: flush at end of pass
    double backoff_s = 0.0;          ///< current reconnect backoff
    bool reconnect_armed = false;
  };
  struct InConn {
    Fd fd;
    Rank peer = kNoRank;             ///< kNoRank until the Hello arrives
    std::vector<std::uint8_t> buf;   ///< undecoded inbound bytes
    std::uint32_t expect_seq = 1;
  };

  // -- connection lifecycle --
  bool openListener();
  bool connectSupervisor();
  bool connectPeer(Rank r);
  void onPeerDown(Rank r);
  void armReconnect(Rank r);
  void acceptInbound();

  // -- frame I/O --
  void enqueueFrame(Rank dst, FrameKind kind,
                    const std::function<void(WireWriter&)>& body,
                    bool count_mesh);
  void sendCtl(FrameKind kind,
               const std::function<void(WireWriter&)>& body = {});
  void flushConn(Rank dst);
  void flushPending();
  void readConn(InConn& c);
  void readCtl();
  bool drainFrames(InConn& c);
  void handleMeshFrame(const InConn& c, const FrameView& f);
  void handleCtlFrame(const FrameView& f);
  void noteHeardFrom(Rank peer);

  // -- replay: the core's host seam (r is always this rank) --
  friend class harness::ScriptReplay<NetWorld>;
  template <typename Fn>
  void runNow(Rank r, Fn fn);
  template <typename Fn>
  void runWhenFree(Rank r, Fn fn);
  /// The share travels to the slave on the application channel (kWork);
  /// the receiver applies addLocalLoad(share, true).
  void delegate(Rank master, Rank slave, double share);
  /// Run the frozen_ops_ the mechanism no longer blocks, in order.
  void runFreed();
  /// Apply every op that is due, then send Done once the slice is spent.
  void advanceReplay();
  bool idle() const;

  // -- timers / heartbeat --
  void heartbeatTick();
  int loopTimeoutMs() const;

  /// One event-loop iteration: epoll dispatch, due timers, heartbeat,
  /// replay advance, coalesced flush. Shared by setup (mesh rendezvous)
  /// and run (steady state).
  void pollOnce(int timeout_ms);

  void sendCounts(std::uint32_t round);
  void sendSummary();

  NetRankConfig cfg_;
  rt::MonotonicClock clock_;
  Epoll epoll_;
  Fd listen_fd_;
  std::uint16_t listen_port_ = 0;
  Fd ctl_fd_;
  std::vector<std::uint8_t> ctl_out_;  ///< scratch for control frames
  std::vector<std::uint8_t> ctl_in_;
  std::vector<OutConn> out_;           ///< indexed by peer rank
  std::vector<std::unique_ptr<InConn>> in_;
  std::vector<std::uint16_t> peer_ports_;  ///< TCP mode, from kPeers
  rt::TimerWheel timers_;
  Rng fault_rng_;

  core::Mechanism* mech_ = nullptr;
  core::ProtocolAuditor* auditor_ = nullptr;

  // replay state
  std::unique_ptr<harness::ScriptReplay<NetWorld>> replay_;
  std::deque<std::function<void()>> frozen_ops_;  ///< runWhenFree, waiting
  bool go_received_ = false;
  double go_time_ = 0.0;
  bool done_sent_ = false;
  bool stop_received_ = false;
  bool supervisor_lost_ = false;

  // failure detector state
  std::vector<double> last_rx_;
  std::vector<bool> suspected_;
  std::vector<bool> declared_dead_;
  double next_ping_deadline_ = 0.0;

  NetRunStats stats_;

  LOADEX_THREAD_CONFINED(confined_);  ///< everything runs on the loop thread
};

}  // namespace loadex::net
