// Network model: point-to-point links with latency, bandwidth and
// sender-side serialization (a process's NIC transmits one message at a
// time per destination). Messages between the same (src, dst) pair are
// delivered FIFO, like an MPI channel. An optional FaultPlan injects
// deterministic, seeded message loss / duplication / latency spikes and
// scripted per-link blackouts.
#pragma once

#include <functional>
#include <vector>

#include "common/faults.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/message.h"

namespace loadex::sim {

struct NetworkConfig {
  /// One-way message latency in seconds. The paper's IDRIS SP has a
  /// "very high bandwidth / low latency" network; ablations sweep this.
  double latency_s = 5e-6;

  /// Link bandwidth in bytes per second.
  double bandwidth_bytes_per_s = 1e9;

  /// Fixed per-message overhead on the wire, in bytes (headers).
  Bytes per_message_overhead_bytes = 64;

  /// If true, a sender serializes its outgoing transfers (models a single
  /// NIC); if false, transfers to distinct destinations proceed in parallel.
  bool serialize_sender = true;

  /// Random extra delivery delay in [0, jitter_s), drawn deterministically
  /// from `seed`. Per-pair FIFO order is still preserved. Used to stress
  /// protocol correctness under adversarial message interleavings.
  double jitter_s = 0.0;
  std::uint64_t seed = 0x6a177e5;

  /// Message-level fault injection; inert by default (see common/faults.h).
  FaultPlan faults;

  /// Escape hatch for the differential test harness: expand broadcast()
  /// into one independent send() per destination (the pre-pool kernel's
  /// behaviour) instead of coalescing the fan-out into one logical
  /// broadcast event. Both paths are bit-identical in schedule digest,
  /// message counts and delivered bytes — the lazy path just allocates
  /// O(1) instead of O(N) per broadcast.
  bool legacy_kernel = false;
};

/// Counters of the lazy broadcast fast path (not part of messageCounts():
/// the per-channel message statistics are identical in both kernels).
struct BroadcastPathStats {
  std::int64_t logical_broadcasts = 0;  ///< coalesced broadcast() calls
  std::int64_t fanout_deliveries = 0;   ///< deliveries those fan out into
};

/// Delivery callback: invoked at the destination's arrival time.
using DeliveryFn = std::function<void(const Message&)>;

class Network {
 public:
  Network(EventQueue& queue, NetworkConfig config, int nprocs);

  /// Register the receiver hook for a rank (the process's deliver()).
  void setReceiver(Rank rank, DeliveryFn fn);

  /// Transmit a message. Sender-side serialization and per-pair FIFO are
  /// applied; the receiver hook fires at arrival time (unless a fault
  /// drops the message).
  void send(Message msg);

  /// Transmit one payload to every rank in `dsts` (in order). Per-link
  /// bookkeeping — NIC serialization, jitter and fault draws, per-pair
  /// FIFO clamps, counters — is applied per destination exactly as N
  /// individual send() calls would, but the surviving deliveries share a
  /// single lazily-expanded queue event (unless config().legacy_kernel).
  /// `msg.dst` is ignored and overwritten per destination.
  void broadcast(Message msg, const std::vector<Rank>& dsts);

  const NetworkConfig& config() const { return config_; }

  const BroadcastPathStats& broadcastStats() const { return bcast_stats_; }

  /// Global message statistics, keyed by channel name; fault events are
  /// counted under "fault_*" keys.
  const CounterSet& messageCounts() const { return counts_; }

  /// Total bytes put on the wire: payload plus per-message overhead, for
  /// every transmission (duplicated copies included).
  Bytes bytesSent() const { return bytes_sent_; }
  /// Wire bytes broken down per channel.
  Bytes bytesSent(Channel c) const {
    return channel_bytes_[static_cast<std::size_t>(c)];
  }

  // ---- fault statistics -------------------------------------------------
  std::int64_t messagesDropped() const {
    return counts_.get("fault_drop") + counts_.get("fault_blackout");
  }
  std::int64_t messagesDuplicated() const {
    return counts_.get("fault_duplicate");
  }
  std::int64_t latencySpikes() const {
    return counts_.get("fault_latency_spike");
  }

  /// Transfer time (seconds) for a payload of `size` bytes, excluding
  /// latency and queueing.
  double transferTime(Bytes size) const;

 private:
  bool faultsApplyTo(Channel c) const {
    return c == Channel::kState ? config_.faults.affects_state
                                : config_.faults.affects_app;
  }
  SimTime& pairLastArrival(Rank src, Rank dst) {
    return pair_last_arrival_[static_cast<std::size_t>(src) *
                                  static_cast<std::size_t>(nprocs_) +
                              static_cast<std::size_t>(dst)];
  }
  /// Per-transmission plan: departure/arrival times and fault outcome.
  /// Computing it performs all sender-side bookkeeping (NIC free time,
  /// RNG draws, FIFO clamps, counters, wire bytes) in the exact order of
  /// the historical send() body, so the point-to-point and the broadcast
  /// paths stay replay-identical.
  struct TxPlan {
    SimTime depart = 0.0;
    double transfer = 0.0;
    SimTime arrival = 0.0;
    bool delivered = false;   ///< false: blackout or random drop ate it
    bool duplicate = false;
    SimTime copy_arrival = 0.0;  ///< valid when duplicate
  };
  TxPlan planTx(const Message& msg);
  std::uint64_t traceSendSpan(const Message& msg, const TxPlan& plan,
                              const char* label);

  /// `flow` is the trace flow-arrow id tying this delivery back to its
  /// send slice (0 when tracing was off at send time).
  void scheduleDelivery(const Message& msg, SimTime arrival,
                        std::uint64_t flow);
  /// Hand `msg` to its receiver at the current time (delivery event body,
  /// shared by the eager and the lazy-broadcast paths).
  void deliverNow(const Message& msg, std::uint64_t flow);

  EventQueue& queue_;
  NetworkConfig config_;
  int nprocs_;
  std::vector<DeliveryFn> receivers_;
  /// Earliest time each sender's NIC is free (serialize_sender mode).
  std::vector<SimTime> sender_free_at_;
  /// Earliest delivery time per (src,dst) pair to preserve FIFO order;
  /// flat, indexed src * nprocs + dst (hot path: no map lookups).
  std::vector<SimTime> pair_last_arrival_;
  CounterSet counts_;
  BroadcastPathStats bcast_stats_;
  Bytes bytes_sent_ = 0;
  Bytes channel_bytes_[2] = {0, 0};
  Rng jitter_rng_;
  Rng fault_rng_;
  bool faults_enabled_;
};

}  // namespace loadex::sim
