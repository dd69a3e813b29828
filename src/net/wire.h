// Versioned binary wire format of the real-socket transport.
//
// Every byte that crosses a kernel boundary goes through this file. A
// frame is length-prefixed so a stream socket can be cut at any byte
// without desynchronising the decoder:
//
//   [u32 body_len][u8 version][u8 FrameKind][u32 link_seq][body...]
//    \_ little-endian; body_len counts version..end of body
//
// `link_seq` numbers frames per directed connection starting at 1, so the
// receiver can assert wire-level FIFO contiguity independently of the
// protocol-level sequence numbers of the hardened increment stream.
//
// State-channel bodies are [u8 StateTag][per-tag fields]; the per-tag
// encoders/decoders dispatch over core::StateTag in switches without a
// default:, so -Werror=switch turns a tag the wire was not taught into a
// build error, not a live-socket failure.
//
// All codecs are explicit little-endian via memcpy (no struct punning, no
// host-order assumptions), and the reader is bounds-checked: a truncated
// or garbage frame flips a sticky failure bit instead of reading past the
// buffer, and the caller drops the connection rather than guessing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "core/payloads.h"
#include "sim/message.h"

namespace loadex::net {

/// Schema version byte carried by every frame. Bump on any incompatible
/// layout change; tests/golden/wire_v1.bin pins the v1 byte layout.
inline constexpr std::uint8_t kWireVersion = 1;

/// Upper bound on a frame body. Anything larger is treated as a corrupt
/// or hostile length prefix (garbage rejection), not as a huge frame.
inline constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Fixed header size: u32 length + u8 version + u8 kind + u32 link_seq.
inline constexpr std::size_t kFrameHeaderBytes = 10;

enum class FrameKind : std::uint8_t {
  // Supervisor control plane (rank <-> supervisor):
  kHello = 1,    ///< rank -> peer/supervisor: who am I (+ listen port)
  kPeers = 2,    ///< supervisor -> rank: everyone's TCP listen port
  kReady = 3,    ///< rank -> supervisor: mesh fully connected
  kGo = 4,       ///< supervisor -> rank: start replaying the script
  kDone = 5,     ///< rank -> supervisor: local script fully replayed
  kProbe = 6,    ///< supervisor -> rank: report quiescence counters
  kCounts = 7,   ///< rank -> supervisor: answer to kProbe
  kStop = 8,     ///< supervisor -> rank: finish audit, summarise, exit
  kSummary = 9,  ///< rank -> supervisor: final per-rank result record
  // Rank <-> rank data plane:
  kState = 10,   ///< mechanism state-channel message (StateTag body)
  kWork = 11,    ///< delegated application work (a master's share)
  kPing = 12,    ///< net-level heartbeat for the failure detector
};

const char* frameKindName(FrameKind k);

/// Append-only little-endian encoder over a caller-owned byte vector.
class WireWriter {
 public:
  explicit WireWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v) { putLe(v); }
  void u64(std::uint64_t v) { putLe(v); }
  void i64(std::int64_t v) { putLe(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    putLe(bits);
  }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

 private:
  template <typename T>
  void putLe(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  std::vector<std::uint8_t>& out_;
};

/// Bounds-checked little-endian decoder. Reading past the end (a
/// truncated body) sets a sticky failure flag and yields zeros; callers
/// check ok() once at the end instead of after every field.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t len)
      : data_(data), len_(len) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return data_[pos_++];
  }
  std::uint32_t u32() { return getLe<std::uint32_t>(); }
  std::uint64_t u64() { return getLe<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() {
    const std::uint64_t bits = u64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  bool ok() const { return ok_; }
  bool atEnd() const { return ok_ && pos_ == len_; }
  std::size_t remaining() const { return len_ - pos_; }
  void fail() { ok_ = false; }

 private:
  bool need(std::size_t n) {
    if (!ok_ || len_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T getLe() {
    if (!need(sizeof(T))) return T{0};
    T v{0};
    for (std::size_t i = 0; i < sizeof(T); ++i)
      v |= static_cast<T>(data_[pos_ + i]) << (8 * i);
    pos_ += sizeof(T);
    return v;
  }

  const std::uint8_t* data_;
  std::size_t len_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// ---- framing -------------------------------------------------------------

/// Append a frame header to `buf` and return a builder whose finish()
/// patches the length prefix once the body has been written.
class FrameBuilder {
 public:
  FrameBuilder(std::vector<std::uint8_t>& buf, FrameKind kind,
               std::uint32_t link_seq);
  WireWriter& writer() { return writer_; }
  /// Patch the length prefix. Must be called exactly once.
  void finish();

 private:
  std::vector<std::uint8_t>& buf_;
  std::size_t len_offset_;
  WireWriter writer_;
  bool finished_ = false;
};

/// A decoded frame header plus a non-owning view of its body bytes.
struct FrameView {
  std::uint8_t version = 0;
  FrameKind kind = FrameKind::kPing;
  std::uint32_t link_seq = 0;
  const std::uint8_t* body = nullptr;
  std::size_t body_len = 0;
};

enum class DecodeStatus {
  kNeedMore,  ///< not enough buffered bytes for a whole frame yet
  kFrame,     ///< one frame decoded; `consumed` bytes may be discarded
  kBad,       ///< corrupt prefix (bad length/version/kind) — drop the link
};

/// Try to cut one frame off the front of a receive buffer. On kFrame,
/// `out` views into `data` (valid until the buffer is mutated) and
/// `consumed` is the total frame size including the length prefix.
DecodeStatus tryDecodeFrame(const std::uint8_t* data, std::size_t len,
                            FrameView& out, std::size_t& consumed);

// ---- state-channel payload codecs ---------------------------------------

/// Serialize a state payload body (tag byte included) for `tag`.
/// Dispatches exhaustively over core::StateTag.
void encodeStatePayload(core::StateTag tag, const sim::Payload& payload,
                        WireWriter& w);

/// Decode a state payload for `tag`; nullptr on malformed input (the
/// reader's failure flag is also set). Dispatches exhaustively over
/// core::StateTag.
std::shared_ptr<const sim::Payload> decodeStatePayload(core::StateTag tag,
                                                       WireReader& r);

/// The declared message size (the paper's Bytes accounting) of a payload,
/// recomputed at the receiver so it does not travel on the wire.
Bytes stateSizeBytes(core::StateTag tag, const sim::Payload& payload);

/// Decoded kState frame body.
struct StateFrame {
  core::StateTag tag = core::StateTag::kUpdateAbsolute;
  Bytes size = 0;
  std::shared_ptr<const sim::Payload> payload;
};

/// Encode a full kState body: [u8 tag][payload fields].
void encodeStateBody(core::StateTag tag, const sim::Payload& payload,
                     WireWriter& w);

/// Decode a kState body produced by encodeStateBody. Returns false (and
/// leaves `out` untouched) on malformed input.
bool decodeStateBody(WireReader& r, StateFrame& out);

}  // namespace loadex::net
