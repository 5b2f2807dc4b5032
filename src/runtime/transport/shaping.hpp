#pragma once

// Transport-generic link shaping: the batching / back-pressure / accounting
// stack that used to live inside the simulated backend, hoisted so it wraps
// ANY Transport (docs/ARCHITECTURE.md "Transport layer").
//
// ShapedTransport owns, per directed (src, dst) link:
//
//   layer 1 - send buffer with batch flush. Messages accumulate in a
//     per-link buffer and move to the wire as one *frame* when the buffer
//     reaches NetConfig::batchSize or the oldest buffered message has waited
//     NetConfig::flushAfter (size- and deadline-triggered flush). batchSize
//     1 is the unbatched baseline: every send is its own frame. A flushed
//     frame is handed to the inner transport as one Transport::sendFrame
//     call: the simulated fabric enqueues its messages individually (so the
//     delay model and delivery schedule are untouched by batching), while
//     the TCP backend ships the whole batch as a single
//     tag::kBatchedFrame wire frame that the receiving ShapedTransport
//     decodes transparently.
//   layer 2 - bounded in-flight queue with back-pressure. At most
//     NetConfig::queueCap messages per link may sit in the inner transport
//     (its linkBacklogNow) at once; a flush into a full link sheds the
//     overflow to an unbounded spill list instead of blocking (the manager
//     thread sends steal replies, so a blocking send could deadlock a
//     request/reply cycle). Spilled messages are promoted in FIFO order as
//     deliveries free slots, so congestion shows up as added latency, never
//     as loss or deadlock; the promotion wait is charged to the latency
//     histogram.
//   counters - logical messages/bytes, wire frames, the batched/immediate
//     split, spills, the per-link queue high-water mark, and the spill-wait
//     latency histogram, all per-link and merged on demand by traffic().
//     No layer under the shaper counts any of them again.
//
// Self-sends (src == dst, e.g. the manager shutdown nudge) are loopback:
// uncounted, they bypass batching and the cap to the inner transport.
//
// Receivers drive the clock: tryRecv/recvWait flush overdue batches and
// promote spilled messages on the links adjacent to their locality (both
// directions: outbound links for an engine rank's own shaper - simulated
// or TCP, its peers poll through shapers of their own - and inbound links
// for a shaper hosting several localities, the InProcTransport facade), so
// a batch can never strand once its sender's manager polls (every 500us).
//
// The delay model (NetConfig::delay) deliberately does NOT live here: it is
// the simulated fabric's physics, meaningless over real sockets. It stays
// in transport/inproc.hpp and is configured through the same NetConfig.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/transport/transport.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

// Per-link one-way delay distribution (`--net-delay`), sampled per message
// in microseconds by the simulated fabric. Parsed from:
//   none           no simulated latency (a == b == 0)
//   fixed:us       constant delay of `us` microseconds
//   uniform:a,b    uniform in [a, b] microseconds
//   lognormal:m,s  exp(Normal(m, s)) microseconds: a long right tail, the
//                  classic model for congested-datacentre RTTs
struct DelayModel {
  enum class Kind : std::uint8_t { None, Fixed, Uniform, Lognormal };

  // Every sample is capped here (~8.4 s, the latency histogram's ceiling):
  // a heavy lognormal tail draw must stay finite and castable, not stall
  // the simulation for hours.
  static constexpr double kMaxDelayMicros = 8'388'608.0;  // 2^23 us

  Kind kind = Kind::None;
  double a = 0.0;  // Fixed: delay; Uniform: lower bound; Lognormal: log-mean
  double b = 0.0;  // Uniform: upper bound; Lognormal: log-sigma

  // Sample one delay in microseconds in [0, kMaxDelayMicros]. Deterministic
  // given the Rng state, so seeded runs reproduce their delivery schedule.
  double sampleMicros(Rng& rng) const;

  // Parse the `--net-delay` spec above; throws std::invalid_argument.
  static DelayModel parse(const std::string& spec);

  // Printable round-trip of parse() for tables and logs.
  std::string name() const;
};

// Shaping + delay configuration (engine: Params::net). batchSize,
// flushAfter and queueCap configure ShapedTransport on EITHER backend;
// delay and seed configure the simulated fabric only.
struct NetConfig {
  // Layer 1: messages per frame before a size-triggered flush; 1 = flush
  // every send (the unbatched baseline).
  std::size_t batchSize = 1;
  // Layer 1: deadline flush - the oldest buffered message waits at most
  // this long before the buffer is flushed by the next sender or receiver
  // touching the link.
  std::chrono::microseconds flushAfter{100};
  // Layer 2: max in-flight messages per link; 0 = unbounded (no
  // back-pressure).
  std::size_t queueCap = 0;
  // Simulated backend only: per-message delivery delay distribution.
  DelayModel delay;
  // Seed for the per-link delay streams (mixed with the link id).
  std::uint64_t seed = 0x5EEDF00DULL;
};

// ---- batched-frame container ---------------------------------------------
// The on-wire form of a multi-message frame for backends that ship bytes
// (tag::kBatchedFrame): u64 count, then per message an i32 tag and a
// u64-length-prefixed payload. Decoding is bounds-checked end to end and
// throws yewpar::ArchiveError on any malformed container (wrong count,
// truncation, trailing bytes), so a corrupted or mismatched peer surfaces
// as a parse failure, never as a misdelivered message.

std::vector<std::uint8_t> encodeBatchedFrame(
    const std::vector<Message>& frame);

std::vector<Message> decodeBatchedFrame(int src, int dst,
                                        std::vector<std::uint8_t> payload);

// ---- the shaping wrapper -------------------------------------------------

class ShapedTransport : public Transport {
 public:
  // Wraps `inner`, which must outlive this object. The wrapper serves the
  // same locality set as the inner transport.
  ShapedTransport(Transport& inner, NetConfig cfg);

  int size() const override { return n_; }
  const NetConfig& config() const { return cfg_; }

  // Buffers the message on its (src, dst) link, flushing a frame into the
  // inner transport when the batch fills. Thread-safe; never blocks on a
  // full link (overflow is shed to the link's spill list).
  void send(Message m) override;

  // A pre-batched frame entering the shaper is re-shaped message by
  // message (nobody stacks shapers in practice; this keeps the semantics
  // obvious if someone does).
  void sendFrame(std::vector<Message> frame) override;

  // Force out every buffered frame and promote every spilled message,
  // ignoring the cap (end-of-run accounting and teardown; the normal path
  // relies on size/deadline flushes and polled promotion).
  void flushAll() override;

  // Non-blocking receive; flushes overdue batches and promotes spilled
  // messages on the way, and transparently unpacks batched-frame
  // containers arriving from a shaped peer.
  std::optional<Message> tryRecv(int loc) override;

  // Blocking receive with timeout; wakes for inner-transport arrivals and
  // pending batch deadlines.
  std::optional<Message> recvWait(int loc,
                                  std::chrono::microseconds timeout) override;

  // Flush everything through, then tear down the inner transport.
  void shutdown() override;

  // ---- accounting --------------------------------------------------------

  // The inner transport's traffic() (TCP heartbeats, the simulated
  // fabric's modelled delays) merged with linkStats() of every link: the
  // counters summed, the highest high-water mark kept, the histograms
  // added.
  MetricsSnapshot traffic() const override;

  // One (src, dst) link's counters as network rows:
  //   networkMessages/Bytes  logical messages and payload bytes handed to
  //                          send();
  //   networkFrames          one per batch flush, so frames <= messages,
  //                          with equality at batchSize 1;
  //   networkBatched/Immediate  messages whose frame carried >= 2 / 1;
  //                          they sum to messages once every buffer flushed;
  //   networkSpills          messages shed to the spill list at queueCap;
  //   linkQueueHighWater     the deepest in-flight handoff under the cap;
  //   netLatencyHist         spill waits: how long back-pressured messages
  //                          waited for a free slot.
  MetricsSnapshot linkStats(int src, int dst) const;

  // Instantaneous depths for the telemetry Sample: messages buffered or
  // spilled here plus in flight in the inner transport.
  std::uint64_t queuedMessagesNow() const override;
  std::uint64_t maxLinkQueueNow() const override;
  std::uint64_t linkBacklogNow(int src, int dst) const override;

  std::int64_t handshakeClockDeltaNanos(int peer) const override {
    return inner_.handshakeClockDeltaNanos(peer);
  }

 private:
  using Clock = std::chrono::steady_clock;

  struct Shed {
    Clock::time_point shedAt;
    Message msg;
  };

  // One directed (src, dst) link: batch buffer -> (inner transport, bounded
  // by queueCap) + spill overflow.
  struct Link {
    // Endpoints, fixed at construction (links_ is row-major by src); the
    // trace frame records and backlog probes need them inside flushLocked.
    int src = 0;
    int dst = 0;
    mutable Mutex mtx;
    // Layer 1: unflushed batch; flushDue is set when the first message of
    // the current batch is buffered.
    std::vector<Message> buffer GUARDED_BY(mtx);
    Clock::time_point flushDue GUARDED_BY(mtx){};
    // Layer 2 overflow: messages shed because the inner link was at
    // queueCap, waiting (FIFO) for a free slot; shedAt feeds the latency
    // histogram with the congestion wait.
    std::deque<Shed> spill GUARDED_BY(mtx);
    // Stats. Counters are atomics because totals are summed without taking
    // the link lock; highWater/latency are only touched under mtx.
    std::atomic<std::uint64_t> messages{0};
    std::atomic<std::uint64_t> bytes{0};
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> batched{0};
    std::atomic<std::uint64_t> immediate{0};
    std::atomic<std::uint64_t> spilled{0};
    std::size_t queueHighWater GUARDED_BY(mtx) = 0;
    std::array<std::uint64_t, kNetLatencyBuckets> latency GUARDED_BY(mtx){};
  };

  // Remainder of a decoded batched-frame container, per receiving
  // locality: delivered before anything newer is pulled from the inner
  // transport so per-link FIFO order survives batching.
  struct PendingBox {
    mutable Mutex mtx;
    std::deque<Message> q GUARDED_BY(mtx);
  };

  Link& link(int src, int dst) {
    return *links_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(dst)];
  }
  const Link& link(int src, int dst) const {
    return *links_[static_cast<std::size_t>(src) *
                       static_cast<std::size_t>(n_) +
                   static_cast<std::size_t>(dst)];
  }

  // Count the frame and hand the batch to the inner transport (or the
  // spill list, under back-pressure). `force` ignores the cap: teardown
  // must push everything through. Caller holds l.mtx.
  void flushLocked(Link& l, Clock::time_point now, bool force)
      REQUIRES(l.mtx);

  // Promote spilled messages into freed inner-transport slots, charging
  // the congestion wait to the latency histogram. Caller holds l.mtx.
  void promoteLocked(Link& l, Clock::time_point now, bool force)
      REQUIRES(l.mtx);

  // Flush-if-due + promote on every link adjacent to `loc`.
  void tick(int loc, Clock::time_point now);

  // Earliest pending batch deadline on the links adjacent to `loc`;
  // Clock::time_point::max() when no buffer is pending.
  Clock::time_point nextFlushDue(int loc);

  std::optional<Message> takePending(int loc);

  // Unpack a batched-frame container (queueing the tail for later
  // receives); pass anything else through.
  Message resolve(int loc, Message m);

  Transport& inner_;
  int n_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<Link>> links_;  // n_ * n_, row-major by src
  std::vector<std::unique_ptr<PendingBox>> pending_;
};

}  // namespace yewpar::rt
