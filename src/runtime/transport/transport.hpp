#pragma once

// The locality-to-locality byte transport interface.
//
// Everything above this line of the runtime (Locality, the skeleton engine,
// the termination detector) moves serialized Messages and never cares how
// they travel. Two backends implement the interface:
//
//   * InProcFabric (transport/inproc.hpp) - the simulated wire: all
//     localities live in one process and messages cross thread boundaries
//     through per-link queues with modelled delivery delays; each engine
//     rank reaches it through its own InProcPort.
//   * TcpTransport (transport/tcp.hpp) - one locality per OS process;
//     messages travel as length-prefixed frames over TCP sockets, so the
//     same binary runs as N real processes on loopback or a LAN.
//
// The link-shaping layers (send-buffer batching, bounded in-flight queues
// with shed-to-spill back-pressure, per-link counters) are NOT per-backend:
// ShapedTransport (transport/shaping.hpp) wraps any Transport and every
// engine rank, simulated or TCP, runs behind its own, so `--net-batch` and
// `--net-queue-cap` behave identically on both backends. The shaper is the
// only layer that counts traffic; a backend under it reports through
// traffic() only what the shaper cannot see (TCP heartbeats, the simulated
// fabric's modelled delays).
//
// A Transport serves receives for one or more local localities; `recvWait`
// and `tryRecv` take the locality id so the in-process backend can host all
// of them, while the TCP backend hosts exactly one rank and rejects others.
//
// A peer's death arrives the same way as everything else: the backend that
// detects it (a TCP link broke or went silent, a simulated rank threw)
// queues one tag::kPeerDead message from the dead rank to each local rank
// (payload: the reason's bytes), behind the messages from that rank already
// queued for it. The message never crosses a wire and no layer counts it as
// traffic.
//
// Thread-safety contract: every method may be called from any thread at any
// time between construction and shutdown(). Implementations keep their
// shared state behind rt::Mutex with GUARDED_BY annotations (or atomics),
// so the clang thread-safety analysis checks the contract at compile time;
// see docs/ARCHITECTURE.md "Lock hierarchy & guarded-state map".

#include <chrono>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/message.hpp"
#include "runtime/metrics.hpp"

namespace yewpar::rt {

// Configuration, connection and framing failures. Deliberately a distinct
// type: a transport error at startup (bad peer list, version mismatch) must
// abort the run with a clear message, not be confused with a search error.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class Transport {
 public:
  virtual ~Transport() = default;

  // Number of localities reachable through this transport (the world size),
  // including the local one(s).
  virtual int size() const = 0;

  // Queue `m` for delivery to m.dst. Thread-safe and non-blocking: a slow
  // or congested destination delays delivery, it never wedges the sender
  // (the manager thread sends steal replies, so a blocking send could
  // deadlock a request/reply cycle). Self-sends (src == dst) are loopback
  // and must always arrive.
  virtual void send(Message m) = 0;

  // Convenience fan-out of the same tag/payload to every locality except
  // `src` itself.
  virtual void broadcast(int src, int tagId,
                         const std::vector<std::uint8_t>& payload) {
    for (int dst = 0; dst < size(); ++dst) {
      if (dst == src) continue;
      send(Message{src, dst, tagId, payload});
    }
  }

  // Hand a whole flushed batch to the wire at once. Every message in
  // `frame` shares one (src, dst) pair and the batch is delivered in order,
  // as if sent individually. The default encodes frames of >= 2 into one
  // tag::kBatchedFrame container message (decoded transparently by the
  // ShapedTransport receive path), so a frame costs one wire round through
  // backends that know nothing about batching; backends with per-message
  // machinery (the simulated fabric) override it instead.
  virtual void sendFrame(std::vector<Message> frame);

  // Non-blocking receive for locality `loc`.
  virtual std::optional<Message> tryRecv(int loc) = 0;

  // Blocking receive with timeout; empty on timeout.
  virtual std::optional<Message> recvWait(
      int loc, std::chrono::microseconds timeout) = 0;

  // Push out anything still buffered (end-of-run accounting; batching
  // backends override).
  virtual void flushAll() {}

  // Graceful teardown: drain every queued outbound frame to the wire, then
  // close. Idempotent; called once the search and gather are finished.
  virtual void shutdown() {}

  // ---- accounting ------------------------------------------------------
  // This endpoint's traffic so far as the gather's network rows (the
  // network* fields, linkQueueHighWater and netLatencyHist of a
  // MetricsSnapshot; every other field is zero). Empty by default.
  virtual MetricsSnapshot traffic() const { return {}; }

  // ---- observability ----------------------------------------------------
  // Instantaneous queue depths for the telemetry Sample: messages queued
  // in total and on the deepest single link/peer this transport sends on.
  // Zero for backends that do not queue.
  virtual std::uint64_t queuedMessagesNow() const { return 0; }
  virtual std::uint64_t maxLinkQueueNow() const { return 0; }

  // Messages currently in flight on the (src, dst) link - the shaping
  // layer's back-pressure cap counts against this. Zero when the backend
  // does not track per-link depth.
  virtual std::uint64_t linkBacklogNow(int src, int dst) const {
    (void)src;
    (void)dst;
    return 0;
  }

  // Clock-offset raw material for cross-process trace alignment: the peer's
  // handshake send stamp minus the local steady clock at handshake receive
  // (one half-estimate; see docs/ARCHITECTURE.md "Observability"). Zero when
  // the transport shares one clock with its peers (in-process backends) or
  // no handshake was exchanged with `peer`.
  virtual std::int64_t handshakeClockDeltaNanos(int peer) const {
    (void)peer;
    return 0;
  }
};

}  // namespace yewpar::rt
