#include "net/world.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/expect.h"
#include "obs/metrics.h"

namespace loadex::net {

namespace {

// epoll token encoding: high 32 bits = kind, low 32 bits = index.
constexpr std::uint64_t kTokListen = 1;
constexpr std::uint64_t kTokCtl = 2;
constexpr std::uint64_t kTokOut = 3;
constexpr std::uint64_t kTokIn = 4;

std::uint64_t tok(std::uint64_t kind, std::uint64_t idx) {
  return (kind << 32) | idx;
}
std::uint64_t tokKind(std::uint64_t t) { return t >> 32; }
std::uint32_t tokIdx(std::uint64_t t) {
  return static_cast<std::uint32_t>(t & 0xffffffffu);
}

constexpr double kConnectBackoffMinS = 1e-3;
constexpr double kConnectBackoffMaxS = 0.2;

}  // namespace

const char* netTransportKindName(NetTransportKind k) {
  return k == NetTransportKind::kTcp ? "tcp" : "uds";
}

NetTransportKind parseNetTransportKind(const std::string& name) {
  if (name == "tcp") return NetTransportKind::kTcp;
  LOADEX_EXPECT(name == "uds", "unknown net transport: " + name);
  return NetTransportKind::kUds;
}

std::string ctlSocketPath(const std::string& dir) { return dir + "/ctl.sock"; }

std::string rankSocketPath(const std::string& dir, Rank r) {
  return dir + "/r" + std::to_string(r) + ".sock";
}

NetWorld::NetWorld(NetRankConfig cfg)
    : cfg_(std::move(cfg)),
      fault_rng_(cfg_.opts.faults.seed ^
                 (0x9e3779b97f4a7c15ull *
                  static_cast<std::uint64_t>(cfg_.self + 1))) {
  LOADEX_EXPECT(cfg_.nprocs >= 1 && cfg_.self >= 0 && cfg_.self < cfg_.nprocs,
                "bad net rank config");
  out_.resize(static_cast<std::size_t>(cfg_.nprocs));
  peer_ports_.assign(static_cast<std::size_t>(cfg_.nprocs), 0);
  last_rx_.assign(static_cast<std::size_t>(cfg_.nprocs), 0.0);
  suspected_.assign(static_cast<std::size_t>(cfg_.nprocs), false);
  declared_dead_.assign(static_cast<std::size_t>(cfg_.nprocs), false);
  timers_.bindToCurrentThread();
  confined_.bindToCurrentThread();
}

NetWorld::~NetWorld() = default;

// ---- connection lifecycle -------------------------------------------------

bool NetWorld::openListener() {
  if (cfg_.opts.transport == NetTransportKind::kTcp) {
    listen_fd_ = listenTcp(0, listen_port_);
  } else {
    listen_fd_ = listenUds(rankSocketPath(cfg_.dir, cfg_.self));
  }
  if (!listen_fd_.valid()) return false;
  if (!setNonBlocking(listen_fd_.get())) return false;
  return epoll_.add(listen_fd_.get(), tok(kTokListen, 0));
}

bool NetWorld::connectSupervisor() {
  const std::string path = ctlSocketPath(cfg_.dir);
  const double deadline = clock_.now() + cfg_.opts.setup_timeout_s;
  double backoff = kConnectBackoffMinS;
  while (clock_.now() < deadline) {
    ctl_fd_ = connectUds(path);
    if (ctl_fd_.valid()) return true;
    rt::MonotonicClock::sleepFor(backoff);
    backoff = std::min(2.0 * backoff, kConnectBackoffMaxS);
  }
  return false;
}

bool NetWorld::connectPeer(Rank r) {
  OutConn& c = out_[static_cast<std::size_t>(r)];
  LOADEX_EXPECT(!c.up, "connectPeer on a live connection");
  Fd fd = cfg_.opts.transport == NetTransportKind::kTcp
              ? connectTcp(peer_ports_[static_cast<std::size_t>(r)])
              : connectUds(rankSocketPath(cfg_.dir, r));
  if (!fd.valid()) return false;
  if (!setNonBlocking(fd.get())) return false;
  c.fd = std::move(fd);
  if (!epoll_.add(c.fd.get(), tok(kTokOut, static_cast<std::uint32_t>(r)))) {
    c.fd.reset();
    return false;
  }
  c.up = true;
  c.want_write = false;
  c.next_seq = 1;
  c.backoff_s = 0.0;
  // Identify ourselves so the acceptor can map this inbound stream to a
  // rank before any data frame arrives.
  enqueueFrame(r, FrameKind::kHello,
               [this](WireWriter& w) {
                 w.u32(static_cast<std::uint32_t>(cfg_.self));
                 w.u32(listen_port_);
               },
               /*count_mesh=*/true);
  flushConn(r);
  return true;
}

void NetWorld::onPeerDown(Rank r) {
  OutConn& c = out_[static_cast<std::size_t>(r)];
  if (!c.up) return;
  epoll_.del(c.fd.get());
  c.fd.reset();
  c.up = false;
  c.want_write = false;
  c.flush_pending = false;
  stats_.frames_lost += static_cast<std::int64_t>(c.buf_frames);
  c.buf.clear();
  c.buf_frames = 0;
  if (cfg_.opts.heartbeat.enabled() && !suspected_[static_cast<std::size_t>(r)]) {
    suspected_[static_cast<std::size_t>(r)] = true;
    ++stats_.peers_suspected;
    if (mech_ != nullptr) mech_->notePeerSuspect(r);
  }
  if (!stop_received_) armReconnect(r);
}

void NetWorld::armReconnect(Rank r) {
  OutConn& c = out_[static_cast<std::size_t>(r)];
  if (c.reconnect_armed) return;
  c.reconnect_armed = true;
  c.backoff_s = c.backoff_s <= 0.0 ? kConnectBackoffMinS
                                   : std::min(2.0 * c.backoff_s,
                                              kConnectBackoffMaxS);
  timers_.schedule(clock_.now(), c.backoff_s, [this, r] {
    OutConn& oc = out_[static_cast<std::size_t>(r)];
    oc.reconnect_armed = false;
    if (oc.up || stop_received_) return;
    if (connectPeer(r)) {
      ++stats_.reconnects;
      if (suspected_[static_cast<std::size_t>(r)]) {
        suspected_[static_cast<std::size_t>(r)] = false;
        if (mech_ != nullptr) mech_->notePeerAlive(r);
      }
    } else {
      armReconnect(r);
    }
  });
}

void NetWorld::acceptInbound() {
  for (;;) {
    bool again = false;
    Fd fd = acceptOn(listen_fd_.get(), again);
    if (!fd.valid()) return;  // again or error: either way, nothing to add
    if (!setNonBlocking(fd.get())) continue;
    auto conn = std::make_unique<InConn>();
    conn->fd = std::move(fd);
    const auto idx = static_cast<std::uint32_t>(in_.size());
    if (!epoll_.add(conn->fd.get(), tok(kTokIn, idx))) continue;
    in_.push_back(std::move(conn));
  }
}

// ---- frame I/O ------------------------------------------------------------

void NetWorld::enqueueFrame(Rank dst, FrameKind kind,
                            const std::function<void(WireWriter&)>& body,
                            bool count_mesh) {
  OutConn& c = out_[static_cast<std::size_t>(dst)];
  FrameBuilder fb(c.buf, kind, c.next_seq++);
  if (body) body(fb.writer());
  fb.finish();
  ++c.buf_frames;
  if (count_mesh) ++stats_.frames_sent;
  if (cfg_.opts.coalesce) {
    c.flush_pending = true;
  } else {
    flushConn(dst);
  }
}

void NetWorld::sendCtl(FrameKind kind,
                       const std::function<void(WireWriter&)>& body) {
  ctl_out_.clear();
  FrameBuilder fb(ctl_out_, kind, 0);
  if (body) body(fb.writer());
  fb.finish();
  // Control frames are tiny and the supervisor reads eagerly; spin through
  // transient EAGAIN instead of buffering a second outbound path.
  std::size_t off = 0;
  while (off < ctl_out_.size()) {
    std::size_t n = 0;
    const IoStatus st =
        writeSome(ctl_fd_.get(), ctl_out_.data() + off, ctl_out_.size() - off,
                  n);
    off += n;
    if (st == IoStatus::kWouldBlock) {
      rt::MonotonicClock::sleepFor(1e-5);
      continue;
    }
    if (st == IoStatus::kError || st == IoStatus::kClosed) return;
  }
}

void NetWorld::flushConn(Rank dst) {
  OutConn& c = out_[static_cast<std::size_t>(dst)];
  c.flush_pending = false;
  if (!c.up || c.buf.empty()) return;
  std::size_t off = 0;
  while (off < c.buf.size()) {
    std::size_t n = 0;
    const IoStatus st =
        writeSome(c.fd.get(), c.buf.data() + off, c.buf.size() - off, n);
    if (n > 0) {
      ++stats_.flush_writes;
      stats_.bytes_sent += static_cast<std::int64_t>(n);
      off += n;
    }
    if (st == IoStatus::kWouldBlock) {
      ++stats_.flush_partials;
      break;
    }
    if (st == IoStatus::kError || st == IoStatus::kClosed) {
      c.buf.erase(c.buf.begin(),
                  c.buf.begin() + static_cast<std::ptrdiff_t>(off));
      onPeerDown(dst);
      return;
    }
  }
  c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<std::ptrdiff_t>(off));
  if (c.buf.empty()) {
    c.buf_frames = 0;
    if (c.want_write) {
      c.want_write = false;
      epoll_.mod(c.fd.get(), tok(kTokOut, static_cast<std::uint32_t>(dst)),
                 false);
    }
  } else if (!c.want_write) {
    // Kernel buffer full mid-frame: let EPOLLOUT drive the rest out.
    c.want_write = true;
    epoll_.mod(c.fd.get(), tok(kTokOut, static_cast<std::uint32_t>(dst)),
               true);
  }
}

void NetWorld::flushPending() {
  for (Rank r = 0; r < cfg_.nprocs; ++r)
    if (out_[static_cast<std::size_t>(r)].flush_pending) flushConn(r);
}

void NetWorld::readConn(InConn& c) {
  std::uint8_t scratch[16384];
  for (;;) {
    std::size_t n = 0;
    const IoStatus st = readSome(c.fd.get(), scratch, sizeof scratch, n);
    if (n > 0) {
      stats_.bytes_received += static_cast<std::int64_t>(n);
      c.buf.insert(c.buf.end(), scratch, scratch + n);
    }
    if (st == IoStatus::kWouldBlock) break;
    if (st == IoStatus::kClosed || st == IoStatus::kError) {
      if (!drainFrames(c)) return;
      epoll_.del(c.fd.get());
      c.fd.reset();
      return;
    }
  }
  drainFrames(c);
}

/// Decode every complete frame buffered on `c`. Returns false if the
/// connection was torn down (corrupt stream).
bool NetWorld::drainFrames(InConn& c) {
  std::size_t pos = 0;
  for (;;) {
    FrameView f;
    std::size_t consumed = 0;
    const DecodeStatus st =
        tryDecodeFrame(c.buf.data() + pos, c.buf.size() - pos, f, consumed);
    if (st == DecodeStatus::kNeedMore) break;
    if (st == DecodeStatus::kBad) {
      ++stats_.decode_errors;
      if (c.fd.valid()) {
        epoll_.del(c.fd.get());
        c.fd.reset();
      }
      c.buf.clear();
      return false;
    }
    pos += consumed;
    if (f.link_seq != c.expect_seq) {
      ++stats_.seq_violations;
      c.expect_seq = f.link_seq;
    }
    ++c.expect_seq;
    handleMeshFrame(c, f);
  }
  c.buf.erase(c.buf.begin(), c.buf.begin() + static_cast<std::ptrdiff_t>(pos));
  return true;
}

void NetWorld::handleMeshFrame(const InConn& c, const FrameView& f) {
  // The Hello frame binds the stream to a rank; everything else needs it.
  if (f.kind == FrameKind::kHello) {
    WireReader r(f.body, f.body_len);
    const auto peer = static_cast<Rank>(r.u32());
    if (!r.ok() || peer < 0 || peer >= cfg_.nprocs) {
      ++stats_.decode_errors;
      return;
    }
    const_cast<InConn&>(c).peer = peer;
    ++stats_.frames_delivered;
    noteHeardFrom(peer);
    return;
  }
  if (c.peer == kNoRank) {
    ++stats_.decode_errors;  // data before Hello: protocol violation
    return;
  }
  noteHeardFrom(c.peer);
  switch (f.kind) {
    case FrameKind::kState: {
      WireReader r(f.body, f.body_len);
      StateFrame sf;
      if (!decodeStateBody(r, sf)) {
        ++stats_.decode_errors;
        return;
      }
      ++stats_.frames_delivered;
      ++stats_.state.delivered;
      if (mech_ == nullptr) return;
      sim::Message msg;
      msg.src = c.peer;
      msg.dst = cfg_.self;
      msg.channel = sim::Channel::kState;
      msg.tag = static_cast<int>(sf.tag);
      msg.size = sf.size;
      msg.payload = std::move(sf.payload);
      mech_->onStateMessage(msg);
      return;
    }
    case FrameKind::kWork: {
      WireReader r(f.body, f.body_len);
      core::LoadMetrics share;
      share.workload = r.f64();
      share.memory = r.f64();
      if (!r.atEnd()) {
        ++stats_.decode_errors;
        return;
      }
      ++stats_.frames_delivered;
      ++stats_.work.delivered;
      if (mech_ != nullptr) mech_->addLocalLoad(share, true);
      return;
    }
    case FrameKind::kPing:
      return;  // freshness only, counted by noteHeardFrom
    default:
      ++stats_.decode_errors;  // control frames never travel on the mesh
      return;
  }
}

void NetWorld::noteHeardFrom(Rank peer) {
  last_rx_[static_cast<std::size_t>(peer)] = clock_.now();
  if (suspected_[static_cast<std::size_t>(peer)]) {
    suspected_[static_cast<std::size_t>(peer)] = false;
    if (mech_ != nullptr) mech_->notePeerAlive(peer);
  }
}

void NetWorld::readCtl() {
  std::uint8_t scratch[4096];
  for (;;) {
    std::size_t n = 0;
    const IoStatus st = readSome(ctl_fd_.get(), scratch, sizeof scratch, n);
    if (n > 0) ctl_in_.insert(ctl_in_.end(), scratch, scratch + n);
    if (st == IoStatus::kWouldBlock) break;
    if (st == IoStatus::kClosed || st == IoStatus::kError) {
      // Supervisor gone: nothing sensible left to do in this process.
      stop_received_ = true;
      supervisor_lost_ = true;
      break;
    }
  }
  std::size_t pos = 0;
  for (;;) {
    FrameView f;
    std::size_t consumed = 0;
    const DecodeStatus st = tryDecodeFrame(ctl_in_.data() + pos,
                                           ctl_in_.size() - pos, f, consumed);
    if (st != DecodeStatus::kFrame) break;
    pos += consumed;
    handleCtlFrame(f);
  }
  ctl_in_.erase(ctl_in_.begin(),
                ctl_in_.begin() + static_cast<std::ptrdiff_t>(pos));
}

void NetWorld::handleCtlFrame(const FrameView& f) {
  switch (f.kind) {
    case FrameKind::kGo:
      go_received_ = true;
      go_time_ = clock_.now();
      if (cfg_.opts.heartbeat.enabled())
        next_ping_deadline_ = go_time_ + cfg_.opts.heartbeat.period_s;
      return;
    case FrameKind::kProbe: {
      WireReader r(f.body, f.body_len);
      sendCounts(r.u32());
      return;
    }
    case FrameKind::kStop:
      stop_received_ = true;
      return;
    default:
      return;  // late/unexpected control frames are ignored
  }
}

// ---- transport ------------------------------------------------------------

void NetWorld::sendState(Rank dst, core::StateTag tag, Bytes size,
                         std::shared_ptr<const sim::Payload> payload) {
  LOADEX_ASSERT_CONFINED(confined_);
  LOADEX_EXPECT(dst >= 0 && dst < cfg_.nprocs && dst != cfg_.self,
                "sendState to a bad destination");
  (void)size;  // recomputed from the payload at the receiver
  ++stats_.state.posted;
  int copies = 1;
  const FaultPlan& plan = cfg_.opts.faults;
  if (plan.enabled() && plan.affects_state) {
    const double t = clock_.now();
    bool blacked_out = false;
    for (const auto& b : plan.blackouts)
      blacked_out = blacked_out || b.matches(cfg_.self, dst, t);
    if (blacked_out || (plan.drop_prob > 0.0 &&
                        fault_rng_.bernoulli(plan.drop_prob))) {
      ++stats_.state.dropped;
      return;
    }
    if (plan.duplicate_prob > 0.0 &&
        fault_rng_.bernoulli(plan.duplicate_prob)) {
      ++stats_.state.duplicated;
      copies = 2;
    }
  }
  for (int i = 0; i < copies; ++i) {
    enqueueFrame(dst, FrameKind::kState,
                 [tag, &payload](WireWriter& w) {
                   encodeStateBody(tag, *payload, w);
                 },
                 /*count_mesh=*/true);
  }
}

void NetWorld::delegate(Rank /*master: this rank*/, Rank dst, double share) {
  LOADEX_ASSERT_CONFINED(confined_);
  ++stats_.work.posted;
  const FaultPlan& plan = cfg_.opts.faults;
  int copies = 1;
  if (plan.enabled() && plan.affects_app) {
    if (plan.drop_prob > 0.0 && fault_rng_.bernoulli(plan.drop_prob)) {
      ++stats_.work.dropped;
      return;
    }
    if (plan.duplicate_prob > 0.0 &&
        fault_rng_.bernoulli(plan.duplicate_prob)) {
      ++stats_.work.duplicated;
      copies = 2;
    }
  }
  for (int i = 0; i < copies; ++i) {
    enqueueFrame(dst, FrameKind::kWork,
                 [share](WireWriter& w) {
                   w.f64(share);
                   w.f64(0.0);  // memory
                 },
                 /*count_mesh=*/true);
  }
}

void NetWorld::schedule(SimTime delay, std::function<void()> fn) {
  LOADEX_ASSERT_CONFINED(confined_);
  timers_.schedule(clock_.now(), delay, std::move(fn));
}

// ---- setup ----------------------------------------------------------------

bool NetWorld::setup() {
  if (!epoll_.valid()) return false;
  if (!openListener()) return false;
  if (!connectSupervisor()) return false;

  // Hello to the supervisor: rank + (TCP) listen port.
  {
    std::vector<std::uint8_t> buf;
    FrameBuilder fb(buf, FrameKind::kHello, 0);
    fb.writer().u32(static_cast<std::uint32_t>(cfg_.self));
    fb.writer().u32(listen_port_);
    fb.finish();
    if (!writeAll(ctl_fd_.get(), buf.data(), buf.size())) return false;
  }

  // Blocking wait for the port map (ctl is still in blocking mode here).
  {
    std::uint8_t hdr[4];
    if (!readAll(ctl_fd_.get(), hdr, sizeof hdr)) return false;
    std::uint32_t body_len = 0;
    for (std::size_t i = 0; i < 4; ++i)
      body_len |= static_cast<std::uint32_t>(hdr[i]) << (8 * i);
    if (body_len < kFrameHeaderBytes - 4 || body_len > kMaxFrameBytes)
      return false;
    std::vector<std::uint8_t> frame(4 + body_len);
    std::copy(hdr, hdr + 4, frame.begin());
    if (!readAll(ctl_fd_.get(), frame.data() + 4, body_len)) return false;
    FrameView f;
    std::size_t consumed = 0;
    if (tryDecodeFrame(frame.data(), frame.size(), f, consumed) !=
            DecodeStatus::kFrame ||
        f.kind != FrameKind::kPeers)
      return false;
    WireReader r(f.body, f.body_len);
    const std::uint32_t n = r.u32();
    if (n != static_cast<std::uint32_t>(cfg_.nprocs)) return false;
    for (std::uint32_t i = 0; i < n; ++i)
      peer_ports_[i] = static_cast<std::uint16_t>(r.u32());
    if (!r.ok()) return false;
  }

  // Full-mesh rendezvous: dial every peer (their listener may not exist
  // yet — retry with backoff) while accepting and identifying inbound
  // streams. Ready goes out only when both directions are complete.
  const double deadline = clock_.now() + cfg_.opts.setup_timeout_s;
  double backoff = kConnectBackoffMinS;
  for (;;) {
    bool all_out = true;
    for (Rank r = 0; r < cfg_.nprocs; ++r) {
      if (r == cfg_.self) continue;
      OutConn& c = out_[static_cast<std::size_t>(r)];
      if (!c.up && !connectPeer(r)) all_out = false;
    }
    int identified = 0;
    for (const auto& c : in_)
      if (c->peer != kNoRank) ++identified;
    if (all_out && identified >= cfg_.nprocs - 1) break;
    if (clock_.now() > deadline) return false;
    pollOnce(static_cast<int>(backoff * 1e3) + 1);
    backoff = std::min(2.0 * backoff, kConnectBackoffMaxS);
  }

  {
    std::vector<std::uint8_t> buf;
    FrameBuilder fb(buf, FrameKind::kReady, 0);
    fb.finish();
    if (!writeAll(ctl_fd_.get(), buf.data(), buf.size())) return false;
  }
  if (!setNonBlocking(ctl_fd_.get())) return false;
  return epoll_.add(ctl_fd_.get(), tok(kTokCtl, 0));
}

// ---- replay ---------------------------------------------------------------

template <typename Fn>
void NetWorld::runNow(Rank r, Fn fn) {
  LOADEX_EXPECT(r == cfg_.self, "net replay names a foreign rank");
  fn(*mech_);
}

template <typename Fn>
void NetWorld::runWhenFree(Rank r, Fn fn) {
  runFreed();  // earlier waiters go first
  if (mech_->blocksComputation()) {
    frozen_ops_.push_back([this, r, fn = std::move(fn)] { runNow(r, fn); });
    return;
  }
  runNow(r, std::move(fn));
}

void NetWorld::runFreed() {
  while (!frozen_ops_.empty() && !mech_->blocksComputation()) {
    const std::function<void()> op = std::move(frozen_ops_.front());
    frozen_ops_.pop_front();
    op();
  }
}

void NetWorld::advanceReplay() {
  if (!go_received_ || stop_received_ || done_sent_) return;
  while (!replay_->done()) {
    if (cfg_.opts.time_scale > 0.0 &&
        clock_.now() - go_time_ < replay_->nextTime() * cfg_.opts.time_scale)
      return;
    replay_->applyNext();
  }
  done_sent_ = true;
  sendCtl(FrameKind::kDone);
}

bool NetWorld::idle() const {
  if (!done_sent_ || !frozen_ops_.empty() || timers_.pending() != 0)
    return false;
  for (const auto& c : out_)
    if (!c.buf.empty()) return false;
  return true;
}

// ---- heartbeat ------------------------------------------------------------

void NetWorld::heartbeatTick() {
  const NetHeartbeatConfig& hb = cfg_.opts.heartbeat;
  const double now = clock_.now();
  next_ping_deadline_ = now + hb.period_s;
  for (Rank r = 0; r < cfg_.nprocs; ++r) {
    if (r == cfg_.self) continue;
    const auto i = static_cast<std::size_t>(r);
    const double silent =
        now - std::max(last_rx_[i], go_time_);
    if (hb.dead_after_s > 0.0 && silent > hb.dead_after_s) {
      if (!declared_dead_[i]) {
        declared_dead_[i] = true;
        if (mech_ != nullptr) mech_->notePeerDead(r);
      }
    } else if (hb.suspect_after_s > 0.0 && silent > hb.suspect_after_s) {
      if (!suspected_[i] && !declared_dead_[i]) {
        suspected_[i] = true;
        ++stats_.peers_suspected;
        if (mech_ != nullptr) mech_->notePeerSuspect(r);
      }
    }
    if (out_[i].up) {
      ++stats_.pings_sent;
      enqueueFrame(r, FrameKind::kPing, {}, /*count_mesh=*/false);
    }
  }
}

// ---- event loop -----------------------------------------------------------

int NetWorld::loopTimeoutMs() const {
  double wait_s = 0.05;
  const double now = clock_.now();
  const double next_timer = timers_.nextDeadline();
  if (next_timer < now + wait_s) wait_s = std::max(next_timer - now, 0.0);
  if (cfg_.opts.heartbeat.enabled() && go_received_) {
    const double hb = next_ping_deadline_ - now;
    if (hb < wait_s) wait_s = std::max(hb, 0.0);
  }
  if (cfg_.opts.time_scale > 0.0 && go_received_ && !replay_->done()) {
    const double op =
        go_time_ + replay_->nextTime() * cfg_.opts.time_scale - now;
    if (op < wait_s) wait_s = std::max(op, 0.0);
  }
  return static_cast<int>(wait_s * 1e3) + (wait_s > 0.0 ? 1 : 0);
}

void NetWorld::pollOnce(int timeout_ms) {
  Epoll::Event evs[64];
  const int n = epoll_.wait(evs, 64, timeout_ms);
  for (int i = 0; i < n; ++i) {
    const std::uint64_t t = evs[i].token;
    switch (tokKind(t)) {
      case kTokListen:
        acceptInbound();
        break;
      case kTokCtl:
        if (evs[i].readable || evs[i].error) readCtl();
        break;
      case kTokOut: {
        const Rank r = static_cast<Rank>(tokIdx(t));
        if (evs[i].error) {
          onPeerDown(r);
        } else if (evs[i].writable) {
          flushConn(r);
        }
        break;
      }
      case kTokIn: {
        const auto idx = tokIdx(t);
        if (idx < in_.size() && in_[idx]->fd.valid()) readConn(*in_[idx]);
        break;
      }
      default:
        break;
    }
  }
  stats_.timers_fired += timers_.fireDue(clock_.now());
  if (cfg_.opts.heartbeat.enabled() && go_received_ && !stop_received_ &&
      clock_.now() >= next_ping_deadline_)
    heartbeatTick();
  runFreed();
  advanceReplay();
  flushPending();
}

int NetWorld::run(const harness::Script& script,
                  core::ProtocolAuditor* auditor) {
  LOADEX_EXPECT(mech_ != nullptr, "NetWorld::run without a bound mechanism");
  auditor_ = auditor;
  replay_ = std::make_unique<harness::ScriptReplay<NetWorld>>(*this, script,
                                                              cfg_.self);
  const double deadline = clock_.now() + cfg_.opts.run_timeout_s;
  while (!stop_received_) {
    if (clock_.now() > deadline) {
      std::fprintf(stderr, "loadex_net rank %d: run timeout\n", cfg_.self);
      return 2;
    }
    pollOnce(loopTimeoutMs());
  }
  // Push out anything still buffered so peers that have not stopped yet
  // observe a complete stream, then settle the audit and report.
  flushPending();
  bool audit_clean = true;
  if (auditor_ != nullptr) {
    auditor_->finish();
    audit_clean = auditor_->clean();
  }
  LOADEX_METRIC(counter("net/bytes_sent").add(stats_.bytes_sent));
  LOADEX_METRIC(counter("net/bytes_received").add(stats_.bytes_received));
  LOADEX_METRIC(counter("net/flush_writes").add(stats_.flush_writes));
  LOADEX_METRIC(counter("net/frames_sent").add(stats_.frames_sent));
  if (!supervisor_lost_) sendSummary();
  return audit_clean ? 0 : 1;
}

void NetWorld::sendCounts(std::uint32_t round) {
  sendCtl(FrameKind::kCounts, [this, round](WireWriter& w) {
    w.u32(round);
    w.u8(idle() ? 1 : 0);
    w.u64(static_cast<std::uint64_t>(stats_.frames_sent));
    w.u64(static_cast<std::uint64_t>(stats_.frames_lost));
    w.u64(static_cast<std::uint64_t>(stats_.frames_delivered));
  });
}

void NetWorld::sendSummary() {
  const core::MechanismStats& ms = mech_->stats();
  const core::LoadMetrics& load = mech_->localLoad();
  std::string first_violation;
  std::uint64_t violations = 0;
  if (auditor_ != nullptr) {
    violations = static_cast<std::uint64_t>(auditor_->violations().size());
    if (!auditor_->violations().empty())
      first_violation = auditor_->violations().front().substr(0, 200);
  }
  const harness::SelectionTally& tally = replay_->tally(cfg_.self);
  sendCtl(FrameKind::kSummary, [&](WireWriter& w) {
    w.u32(static_cast<std::uint32_t>(cfg_.self));
    w.u64(static_cast<std::uint64_t>(tally.committed));
    w.u64(static_cast<std::uint64_t>(tally.skipped));
    w.f64(load.workload);
    w.f64(load.memory);
    w.u64(static_cast<std::uint64_t>(ms.messagesSent()));
    w.u64(static_cast<std::uint64_t>(stats_.state.posted));
    w.u64(static_cast<std::uint64_t>(stats_.state.dropped));
    w.u64(static_cast<std::uint64_t>(stats_.state.duplicated));
    w.u64(static_cast<std::uint64_t>(stats_.state.delivered));
    w.u64(static_cast<std::uint64_t>(stats_.work.posted));
    w.u64(static_cast<std::uint64_t>(stats_.work.dropped));
    w.u64(static_cast<std::uint64_t>(stats_.work.duplicated));
    w.u64(static_cast<std::uint64_t>(stats_.work.delivered));
    w.u64(static_cast<std::uint64_t>(stats_.frames_sent));
    w.u64(static_cast<std::uint64_t>(stats_.frames_lost));
    w.u64(static_cast<std::uint64_t>(stats_.frames_delivered));
    w.u64(static_cast<std::uint64_t>(stats_.bytes_sent));
    w.u64(static_cast<std::uint64_t>(stats_.bytes_received));
    w.u64(static_cast<std::uint64_t>(stats_.flush_writes));
    w.u64(static_cast<std::uint64_t>(stats_.flush_partials));
    w.u64(static_cast<std::uint64_t>(stats_.reconnects));
    w.u64(static_cast<std::uint64_t>(stats_.seq_violations));
    w.u64(static_cast<std::uint64_t>(stats_.decode_errors));
    w.u64(static_cast<std::uint64_t>(stats_.timers_fired));
    w.u64(static_cast<std::uint64_t>(stats_.pings_sent));
    w.u64(static_cast<std::uint64_t>(stats_.peers_suspected));
    w.u64(violations);
    w.str(first_violation);
  });
}

}  // namespace loadex::net
