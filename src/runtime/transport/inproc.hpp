#pragma once

// In-process transport backend connecting simulated localities.
//
// This is the distributed-memory substitution described in
// docs/ARCHITECTURE.md ("Transport layer"): the paper runs YewPar over HPX
// on a Beowulf cluster; this backend runs N localities inside one process,
// but all inter-locality communication goes through the Transport interface
// as serialized byte messages.
//
// The link-shaping layers live in transport/shaping.hpp (the TCP backend
// shares them); this file holds three pieces:
//
//   * InProcFabric - the bare simulated wire. One bounded-FIFO in-flight
//     queue per directed (src, dst) link, with a per-message delivery delay
//     sampled from NetConfig::delay (seeded per link, so runs are
//     reproducible). Delivery per link stays FIFO, like a TCP stream: each
//     message's delivery time is clamped to be no earlier than its link
//     predecessor's. The fabric does no batching and no back-pressure and
//     counts no messages, bytes or frames - that is all ShapedTransport's
//     job. Its traffic() carries only what the shaper cannot see: the
//     histogram of the delays it modelled. A simulated rank that dies is
//     declared dead here: every other rank finds a tag::kPeerDead message
//     from it on their link, however late it reads.
//   * InProcPort - one rank's endpoint on a shared fabric. The engine runs
//     each simulated rank over its own ShapedTransport wrapping its own
//     port, exactly as a TCP rank wraps its TcpTransport, so every rank
//     counts only its own traffic, and the port reports only the delays
//     modelled on its rank's outbound links.
//   * InProcTransport - a one-object facade for tests and benches: an
//     InProcFabric wrapped in a single ShapedTransport serving every
//     locality (send-buffer batch flush, bounded in-flight queues with
//     shed-to-spill, per-link counters).
//
// Self-sends (src == dst, e.g. the manager shutdown nudge) are loopback:
// they bypass the delay model here and bypass batching/caps in the shaper.
//
// Receivers drive the clock: the shaper's tryRecv/recvWait flush overdue
// batches and promote spilled messages, then poll the fabric, whose own
// receive path pops messages whose modelled delay has matured.

#include <array>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/metrics.hpp"
#include "runtime/transport/shaping.hpp"
#include "runtime/transport/transport.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

// The bare simulated wire: per-link delivery delay + FIFO, nothing else.
// Constructed inside InProcTransport; tests wanting batching/back-pressure
// semantics go through the facade (or wrap a fabric themselves).
class InProcFabric : public Transport {
 public:
  explicit InProcFabric(int nLocalities, NetConfig cfg = NetConfig{});

  int size() const override { return n_; }

  // Stamp a delivery time and queue on the (src, dst) link. Thread-safe,
  // never blocks. Loopback messages skip the delay model entirely.
  void send(Message m) override;

  // A flushed batch enters the link under one lock acquisition, each
  // message with its own sampled delay (the FIFO floor keeps the batch in
  // order). The fabric has real per-message delivery machinery, so the
  // batched-frame container the default implementation would build is
  // pointless indirection here.
  void sendFrame(std::vector<Message> frame) override;

  // Non-blocking receive; nothing if no message's delay has matured.
  std::optional<Message> tryRecv(int loc) override;

  // Blocking receive with timeout. Wakes for new sends and for the next
  // queued delivery maturing.
  std::optional<Message> recvWait(int loc,
                                  std::chrono::microseconds timeout) override;

  // Instantaneous depths for telemetry and for the shaper's queue cap:
  // messages whose delay has not yet matured (plus undelivered matured
  // ones) count as in flight on their link.
  std::uint64_t queuedMessagesNow() const override {
    return queuedFrom(kAllRanks);
  }
  std::uint64_t maxLinkQueueNow() const override {
    return maxLinkQueueFrom(kAllRanks);
  }
  std::uint64_t linkBacklogNow(int src, int dst) const override;

  // The modelled-delay histogram summed over links (netLatencyHist; every
  // other field is zero): bucket i counts messages whose sampled delay plus
  // FIFO clamp fell in [2^(i-1), 2^i) microseconds, bucket 0 being < 1us
  // (rt::netLatencyBucketFor). The shaper adds its spill-wait samples on
  // top.
  MetricsSnapshot traffic() const override { return trafficFrom(kAllRanks); }

  // The queue depths and traffic() restricted to the links leaving `src`
  // (kAllRanks = every link): a rank's share of the fabric, so summing
  // the per-rank readings over all ranks counts each link once.
  static constexpr int kAllRanks = -1;
  std::uint64_t queuedFrom(int src) const;
  std::uint64_t maxLinkQueueFrom(int src) const;
  MetricsSnapshot trafficFrom(int src) const;

  // Declare `rank` dead: queue a tag::kPeerDead message carrying `why` on
  // the link from `rank` to every other rank, behind the messages it sent
  // before, with no modelled delay. It stays queued until read, so a rank
  // that starts late still hears of a peer that already failed.
  void declareDead(int rank, const std::string& why);

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    Clock::time_point deliverAt;
    Message msg;
  };

  // One directed (src, dst) link: delay-stamped in-flight queue.
  struct Link {
    mutable Mutex mtx;
    std::deque<Pending> queue GUARDED_BY(mtx);
    // Monotone delivery floor keeping the link FIFO under random
    // per-message delays.
    Clock::time_point fifoFloor GUARDED_BY(mtx){};
    Rng delayRng GUARDED_BY(mtx);
    std::array<std::uint64_t, kNetLatencyBuckets> latency GUARDED_BY(mtx){};
  };

  // Receivers block here; senders bump `version` under mtx on every send
  // so a delivery between a poll and the wait cannot be missed.
  struct Inbox {
    Mutex mtx;
    std::condition_variable cv;
    std::uint64_t version GUARDED_BY(mtx) = 0;
    // Round-robin scan start so one chatty link cannot starve the others.
    int nextSrc GUARDED_BY(mtx) = 0;
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

  // Stamp a delivery time and append to the in-flight queue; caller holds
  // l.mtx.
  void enqueueLocked(Link& l, Message m, Clock::time_point now)
      REQUIRES(l.mtx);

  // Index range in links_ of the links leaving `src` (one row, as links_
  // is row-major by src), or of every link for kAllRanks.
  std::pair<std::size_t, std::size_t> linksFrom(int src) const {
    const auto n = static_cast<std::size_t>(n_);
    if (src == kAllRanks) return {0, n * n};
    const auto row = static_cast<std::size_t>(src);
    return {row * n, (row + 1) * n};
  }

  // Pop the first deliverable message in round-robin link order.
  std::optional<Message> pollNow(int loc, Clock::time_point now);

  // Earliest future delivery on the links into `loc`;
  // Clock::time_point::max() when idle.
  Clock::time_point nextEventTime(int loc);

  void notifyInbox(int dst);

  int n_;
  NetConfig cfg_;
  std::vector<std::unique_ptr<Link>> links_;    // n_ * n_, row-major by src
  std::vector<std::unique_ptr<Inbox>> inboxes_;
};

// One rank's endpoint on a shared InProcFabric: sends and receives for
// `rank` only and reports only the links leaving `rank`. Messages and
// frames are counted by the ShapedTransport wrapped around the port, as on
// TCP; the port's traffic() is its rank's share of the delay histogram.
class InProcPort : public Transport {
 public:
  InProcPort(InProcFabric& fabric, int rank)
      : fabric_(fabric), rank_(rank) {}

  int size() const override { return fabric_.size(); }
  void send(Message m) override { fabric_.send(std::move(m)); }
  void sendFrame(std::vector<Message> frame) override {
    fabric_.sendFrame(std::move(frame));
  }
  std::optional<Message> tryRecv(int loc) override {
    return fabric_.tryRecv(loc);
  }
  std::optional<Message> recvWait(
      int loc, std::chrono::microseconds timeout) override {
    return fabric_.recvWait(loc, timeout);
  }

  std::uint64_t queuedMessagesNow() const override {
    return fabric_.queuedFrom(rank_);
  }
  std::uint64_t maxLinkQueueNow() const override {
    return fabric_.maxLinkQueueFrom(rank_);
  }
  std::uint64_t linkBacklogNow(int src, int dst) const override {
    return fabric_.linkBacklogNow(src, dst);
  }
  MetricsSnapshot traffic() const override {
    return fabric_.trafficFrom(rank_);
  }

 private:
  InProcFabric& fabric_;
  int rank_;
};

// Owns the fabric an InProcTransport shapes. A base class listed ahead of
// ShapedTransport, so the fabric is built before the shaper that wraps it
// and destroyed after it.
struct InProcFabricOwner {
  InProcFabricOwner(int nLocalities, NetConfig cfg)
      : fabric(nLocalities, cfg) {}
  InProcFabric fabric;
};

// A whole shaped fabric as one Transport serving every locality (tests,
// benches): a ShapedTransport - batching, back-pressure, counters and the
// per-link view, see shaping.hpp - over a fabric of its own. Its traffic()
// is the shaper's: every link's counters plus the fabric's delay histogram.
class InProcTransport : private InProcFabricOwner, public ShapedTransport {
 public:
  explicit InProcTransport(int nLocalities, NetConfig cfg = NetConfig{})
      : InProcFabricOwner(nLocalities, cfg), ShapedTransport(fabric, cfg) {}
};

}  // namespace yewpar::rt
