#pragma once

// Real multi-process transport: one locality per OS process, messages as
// length-prefixed frames over TCP (loopback or LAN).
//
// Topology and startup. Every process is given the same ordered peer list
// (`host:port` per rank) and its own rank. Rank i listens on its own port,
// actively connects to every rank j < i, and accepts connections from every
// rank j > i, so each unordered pair shares exactly one socket carrying
// traffic in both directions. Each connection opens with a Handshake in
// both directions (magic + tag-table protocol version + rank + world size,
// see transport/wire.hpp); any mismatch aborts with a TransportError naming
// the peer. The constructor returns only once the full mesh is up - that
// doubles as the start barrier: no search message can be sent before every
// rank is reachable.
//
// Threads. Per peer: one sender thread (drains an unbounded outbound queue
// so send() never blocks - the manager thread answers steal requests, and a
// blocking send could deadlock a request/reply cycle) and one receiver
// thread (reads frames, validates lengths against wire::kMaxFramePayload,
// and pushes into the single local inbox that recvWait serves). Self-sends
// go straight to the inbox, mirroring the simulated backend's loopback.
//
// Rank-failure detection (TcpConfig::peerTimeout, `--peer-timeout-ms`).
// An idle sender writes a zero-payload tag::kHeartbeat frame every quarter
// of the timeout, and the receiver treats any byte activity as proof of
// life, so a peer is declared dead only after a full timeout of true
// silence (a slow bulk transfer keeps the link alive by its own bytes). A
// peer is also declared dead when a write fails, a frame is cut short, or
// its end closes cleanly mid-run and this side has not started its own
// shutdown within the timeout (a SIGKILLed process and a gracefully
// finished one both close with a FIN; only the passage of time tells them
// apart). Death is reported once per peer: a diagnostic naming the dead
// rank on stderr, a trace::Ev::kPeerDead event, and a tag::kPeerDead
// message from the dead rank in the local inbox, on which the engine aborts
// the whole job instead of hanging until the drain timeout. peerTimeout 0
// disables heartbeats, the silence deadline and the mid-run EOF check.
//
// Shutdown ordering (graceful, drains in-flight frames):
//   1. each sender thread finishes writing every queued frame, then
//      half-closes its socket (shutdown(SHUT_WR)) - the frame boundary is
//      never cut mid-message;
//   2. each receiver thread keeps reading until the peer's half-close
//      arrives as EOF (bounded by TcpConfig::drainTimeout in case the peer
//      died), so frames already on the wire are received, not reset;
//   3. sockets close once both directions are done.
// A rank may therefore shut down as soon as its own work is finished; late
// traffic from slower peers is still drained and simply dropped unread,
// matching the simulated backend's "messages left queued are undelivered".

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/transport/transport.hpp"
#include "runtime/transport/wire.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

struct TcpConfig {
  // This process's locality id: an index into `peers`.
  int rank = 0;
  // One `host:port` endpoint per rank, identical on every process.
  std::vector<std::string> peers;
  // How long to keep retrying connects while the mesh comes up.
  std::chrono::milliseconds connectTimeout{15000};
  // How long a receiver waits for a peer's half-close during shutdown.
  std::chrono::milliseconds drainTimeout{5000};
  // Rank-failure detection: a peer silent (no bytes, including heartbeats)
  // for this long mid-run is declared dead; idle senders heartbeat every
  // quarter of it. 0 disables detection entirely.
  std::chrono::milliseconds peerTimeout{30000};
};

// Split "host:port"; throws TransportError on malformed specs.
std::pair<std::string, std::uint16_t> parseEndpoint(const std::string& spec);

// A completed handshake plus the local steady clock when the peer's half
// arrived: sendNanos - recvNanos is this side's half of the clock-offset
// estimate used to align traces from different processes at export.
struct HandshakeResult {
  wire::Handshake h;
  std::int64_t clockDelta = 0;  // peer sendNanos - local recvNanos
};

// The full bidirectional handshake every mesh connection opens with, on
// both the dialling and the accepting side: send ours, read theirs (both
// sides send first - 24 bytes always fit the socket buffer, so the
// symmetric order cannot deadlock). Returns nullopt when the connection
// died or went silent mid-exchange - retryable, e.g. a connect that landed
// in the backlog of a dying listener from a previous search's mesh on the
// same port. Throws TransportError naming the mismatch on bad magic,
// protocol version or world size: those are permanent and must fail fast,
// not be retried into a timeout.
std::optional<HandshakeResult> tryExchangeHandshake(
    int fd, int rank, int world, std::chrono::milliseconds timeout);

class TcpTransport : public Transport {
 public:
  // Establishes the full mesh before returning (the start barrier).
  explicit TcpTransport(TcpConfig cfg);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  int size() const override { return world_; }
  int rank() const { return cfg_.rank; }

  void send(Message m) override;
  std::optional<Message> tryRecv(int loc) override;
  std::optional<Message> recvWait(int loc,
                                  std::chrono::microseconds timeout) override;

  // Drain-and-close, idempotent (see the shutdown ordering above).
  void shutdown() override;

  // Test hook: drop the mesh on the floor - no queue drain, no half-close
  // courtesy, sockets torn down immediately - approximating a process that
  // vanished mid-run. Surviving peers see a close they must disambiguate
  // via their peerTimeout. Idempotent with (and excluded by) shutdown().
  void abandon();

  // Only networkHeartbeats: the idle keep-alive frames written towards
  // peers, which the ShapedTransport wrapped around this backend never
  // sees. Messages, bytes and frames are the shaper's to count.
  MetricsSnapshot traffic() const override;

  // Instantaneous depths for the telemetry Sample: outbound queues plus
  // the local inbox, and the deepest single peer queue.
  std::uint64_t queuedMessagesNow() const override;
  std::uint64_t maxLinkQueueNow() const override;

  // Outbound-queue depth towards `dst` (only links whose src is this rank
  // exist here); the shaping layer's queue cap counts against this.
  std::uint64_t linkBacklogNow(int src, int dst) const override;

  // Peer's handshake send stamp minus our steady clock at handshake read:
  // the local half of the clock-offset estimate used to align traces at
  // export. Zero for self or out-of-range.
  std::int64_t handshakeClockDeltaNanos(int peer) const override;

 private:
  struct Peer {
    // Set during mesh construction (before sender/receiver spawn) and reset
    // only in shutdown() after both threads have joined, so the threads read
    // it without the lock; killLink's ::shutdown() on it is async-safe.
    int fd = -1;
    // Clock-offset half-estimate from this connection's handshake (peer's
    // send stamp minus local receive time). Written during mesh
    // construction only, like fd.
    std::int64_t clockDelta = 0;
    std::thread sender;
    std::thread receiver;
    mutable Mutex mtx;
    std::condition_variable cv;
    std::deque<Message> sendq GUARDED_BY(mtx);
    bool closing GUARDED_BY(mtx) = false;
    // Write/read error; outbound traffic is dropped.
    bool dead GUARDED_BY(mtx) = false;
    // peerDied() once-guard: the diagnostic, trace event and kPeerDead
    // message happen at most once per peer, whichever path noticed first.
    bool deathReported GUARDED_BY(mtx) = false;
  };

  void senderLoop(int peerRank);
  void receiverLoop(int peerRank);
  void pushInbox(Message m);

  // Declare `peerRank` dead: report once (stderr + trace + a kPeerDead
  // message in the inbox) and kill the link. Callable from any transport
  // thread.
  void peerDied(int peerRank, const std::string& why);

  // Tear a broken link down: mark it dead (future send() drops) and
  // shut the socket both ways so a sender blocked mid-write fails fast
  // instead of wedging shutdown()'s join.
  void killLink(Peer& p);

  TcpConfig cfg_;
  int world_ = 0;
  int listenFd_ = -1;
  std::vector<std::unique_ptr<Peer>> peers_;  // index = rank; own slot unused

  mutable Mutex inboxMtx_;
  std::condition_variable inboxCv_;
  std::deque<Message> inbox_ GUARDED_BY(inboxMtx_);

  std::atomic<bool> draining_{false};
  // Written by shutdown() before the draining_ release-store, read by the
  // receiver threads after their acquire-load of draining_; atomic so a
  // receiver's unordered peek (give-up lambdas fire every poll slice) is a
  // race-free read rather than relying on the flag's fence alone.
  std::atomic<std::chrono::steady_clock::time_point> drainDeadline_{};
  std::atomic<bool> shutdownDone_{false};

  std::atomic<std::uint64_t> heartbeats_{0};
};

}  // namespace yewpar::rt
