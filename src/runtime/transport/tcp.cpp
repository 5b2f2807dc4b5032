#include "runtime/transport/tcp.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "runtime/profile.hpp"
#include "runtime/trace.hpp"

namespace yewpar::rt {

namespace {

using Clock = std::chrono::steady_clock;

std::string errnoText() { return std::strerror(errno); }

void setNoDelay(int fd) {
  // Steal request/reply round-trips are latency-bound single small frames;
  // Nagle would serialize them against the ACK clock.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Write exactly n bytes. MSG_NOSIGNAL so a vanished peer surfaces as EPIPE
// on this thread instead of a process-wide SIGPIPE.
bool writeFull(int fd, const std::uint8_t* p, std::size_t n) {
  while (n > 0) {
    const auto w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

enum class ReadResult { Ok, Eof, Error, GaveUp };

// Read exactly n bytes, polling in 100ms slices so `giveUp` (shutdown
// drain deadline, handshake timeout, peer-silence deadline) is observed
// even on a silent socket. Eof is reported only for a clean close before
// the first byte; a close mid-read is an Error (a frame or handshake was
// cut short). When `activity` is given it is stamped on every successful
// recv, so the caller's liveness clock tracks byte arrival - a slow bulk
// transfer with no frame boundaries for seconds still counts as alive.
template <typename GiveUp>
ReadResult readFull(int fd, std::uint8_t* p, std::size_t n,
                    const GiveUp& giveUp,
                    Clock::time_point* activity = nullptr) {
  std::size_t got = 0;
  while (got < n) {
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return ReadResult::Error;
    }
    if (pr == 0) {
      if (giveUp()) return ReadResult::GaveUp;
      continue;
    }
    const auto r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadResult::Error;
    }
    if (r == 0) return got == 0 ? ReadResult::Eof : ReadResult::Error;
    got += static_cast<std::size_t>(r);
    if (activity) *activity = Clock::now();
  }
  return ReadResult::Ok;
}

// Bad handshake magic: whatever connected is not a yewpar rank at all.
// Distinct from the other mismatches because an ACCEPTING rank must shrug
// a foreign connection off (close it, keep listening) - a port scanner or
// misdirected client dialing the listen port must not abort an N-process
// run - while a dialler hitting it, or a genuine peer with the wrong
// version/world, is fatal.
class ForeignConnection : public TransportError {
 public:
  ForeignConnection()
      : TransportError(
            "peer is not a yewpar transport endpoint (bad handshake "
            "magic)") {}
};

// Cap one handshake attempt so a doomed connection is abandoned and
// redialled long before the whole mesh deadline.
constexpr auto kHandshakeAttempt = std::chrono::milliseconds(2000);

}  // namespace

std::pair<std::string, std::uint16_t> parseEndpoint(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    throw TransportError("malformed peer endpoint '" + spec +
                         "' (expected host:port)");
  }
  const std::string host = spec.substr(0, colon);
  const std::string portStr = spec.substr(colon + 1);
  unsigned port = 0;
  const auto [end, ec] = std::from_chars(
      portStr.data(), portStr.data() + portStr.size(), port);
  if (ec != std::errc{} || end != portStr.data() + portStr.size() ||
      port < 1 || port > 65535) {
    throw TransportError("bad port in peer endpoint '" + spec + "'");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

std::optional<HandshakeResult> tryExchangeHandshake(
    int fd, int rank, int world, std::chrono::milliseconds timeout) {
  wire::Handshake mine;
  mine.rank = static_cast<std::uint32_t>(rank);
  mine.world = static_cast<std::uint32_t>(world);
  mine.sendNanos = prof::nowNanos();
  const auto bytes = mine.encode();
  if (!writeFull(fd, bytes.data(), bytes.size())) return std::nullopt;

  const auto deadline = Clock::now() + timeout;
  const auto expired = [&] { return Clock::now() >= deadline; };
  std::uint8_t buf[wire::Handshake::kBytes];
  // The magic comes in on its own, so a foreign client is turned away as
  // soon as its first 4 bytes arrive instead of holding the accept loop
  // until this attempt times out waiting for bytes it will never send.
  if (readFull(fd, buf, 4, expired) != ReadResult::Ok) return std::nullopt;
  if (wire::getU32(buf) != wire::kMagic) throw ForeignConnection();
  if (readFull(fd, buf + 4, sizeof(buf) - 4, expired) != ReadResult::Ok) {
    return std::nullopt;
  }
  const auto recvNanos = prof::nowNanos();
  const auto h = wire::Handshake::decode(buf);
  if (h.version != wire::protocolVersion()) {
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "wire protocol version mismatch: local %08x, peer %08x "
                  "(mixed binaries?)",
                  wire::protocolVersion(), h.version);
    throw TransportError(msg);
  }
  if (static_cast<int>(h.world) != world) {
    throw TransportError(
        "peer expects a mesh of " + std::to_string(h.world) +
        " localities, this process expects " + std::to_string(world) +
        " (differing --peers lists?)");
  }
  return HandshakeResult{h, static_cast<std::int64_t>(h.sendNanos) -
                                static_cast<std::int64_t>(recvNanos)};
}

TcpTransport::TcpTransport(TcpConfig cfg) : cfg_(std::move(cfg)) {
  world_ = static_cast<int>(cfg_.peers.size());
  if (world_ < 1) {
    throw TransportError("--peers must list at least one host:port");
  }
  if (cfg_.rank < 0 || cfg_.rank >= world_) {
    throw TransportError("--rank " + std::to_string(cfg_.rank) +
                         " out of range for " + std::to_string(world_) +
                         " peers");
  }
  peers_.reserve(static_cast<std::size_t>(world_));
  for (int i = 0; i < world_; ++i) {
    peers_.push_back(std::make_unique<Peer>());
  }
  if (world_ == 1) return;  // single rank: loopback only

  const auto [myHost, myPort] = parseEndpoint(
      cfg_.peers[static_cast<std::size_t>(cfg_.rank)]);
  (void)myHost;  // all interfaces are bound; the host part is for peers

  try {
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0) throw TransportError("socket: " + errnoText());
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(myPort);
    if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0) {
      throw TransportError("rank " + std::to_string(cfg_.rank) +
                           ": cannot bind port " + std::to_string(myPort) +
                           ": " + errnoText());
    }
    if (::listen(listenFd_, world_) != 0) {
      throw TransportError("listen: " + errnoText());
    }

    const auto deadline = Clock::now() + cfg_.connectTimeout;
    const auto remainingMs = [&] {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      return left.count() > 0 ? left : std::chrono::milliseconds(1);
    };

    // Dial every lower rank (they are the accepting side for us), retrying
    // while their listener comes up.
    for (int j = 0; j < cfg_.rank; ++j) {
      const auto [host, port] =
          parseEndpoint(cfg_.peers[static_cast<std::size_t>(j)]);
      addrinfo hints{};
      hints.ai_family = AF_INET;
      hints.ai_socktype = SOCK_STREAM;
      addrinfo* res = nullptr;
      if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                        &res) != 0 ||
          res == nullptr) {
        throw TransportError("cannot resolve peer host '" + host + "'");
      }
      for (;;) {
        if (Clock::now() >= deadline) {
          ::freeaddrinfo(res);
          throw TransportError(
              "rank " + std::to_string(cfg_.rank) +
              ": cannot establish rank " + std::to_string(j) + " at " +
              cfg_.peers[static_cast<std::size_t>(j)] + " within timeout");
        }
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
          ::freeaddrinfo(res);
          throw TransportError("socket: " + errnoText());
        }
        if (::connect(fd, res->ai_addr, res->ai_addrlen) != 0) {
          ::close(fd);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;  // listener not up yet
        }
        setNoDelay(fd);
        std::optional<HandshakeResult> h;
        try {
          h = tryExchangeHandshake(fd, cfg_.rank, world_,
                                   std::min(kHandshakeAttempt,
                                            remainingMs()));
        } catch (...) {
          ::close(fd);
          ::freeaddrinfo(res);
          throw;  // magic/version/world mismatch: permanent, fail fast
        }
        if (!h) {
          // The connection died mid-handshake (e.g. it landed in a stale
          // listener's backlog); redial.
          ::close(fd);
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          continue;
        }
        if (static_cast<int>(h->h.rank) != j) {
          ::close(fd);
          ::freeaddrinfo(res);
          throw TransportError(
              "peer at " + cfg_.peers[static_cast<std::size_t>(j)] +
              " identifies as rank " + std::to_string(h->h.rank) +
              ", expected " + std::to_string(j));
        }
        peers_[static_cast<std::size_t>(j)]->fd = fd;
        peers_[static_cast<std::size_t>(j)]->clockDelta = h->clockDelta;
        break;
      }
      ::freeaddrinfo(res);
    }

    // Accept every higher rank; the handshake tells us who arrived.
    int accepted = 0;
    while (accepted < world_ - cfg_.rank - 1) {
      pollfd pfd{listenFd_, POLLIN, 0};
      for (;;) {
        const int pr = ::poll(&pfd, 1, 100);
        if (pr > 0) break;
        if (pr < 0 && errno != EINTR) {
          throw TransportError("poll on listen socket: " + errnoText());
        }
        if (Clock::now() >= deadline) {
          throw TransportError(
              "rank " + std::to_string(cfg_.rank) + ": timed out waiting "
              "for " + std::to_string(world_ - cfg_.rank - 1 - accepted) +
              " peer connection(s)");
        }
      }
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd < 0) throw TransportError("accept: " + errnoText());
      setNoDelay(fd);
      std::optional<HandshakeResult> h;
      try {
        h = tryExchangeHandshake(fd, cfg_.rank, world_,
                                 std::min(kHandshakeAttempt, remainingMs()));
      } catch (const ForeignConnection&) {
        ::close(fd);  // not a rank; keep listening for the real peers
        continue;
      } catch (...) {
        ::close(fd);
        throw;
      }
      if (!h) {
        ::close(fd);  // dialler gave up mid-handshake; it will redial
        continue;
      }
      const int peer = static_cast<int>(h->h.rank);
      if (peer <= cfg_.rank || peer >= world_) {
        ::close(fd);
        throw TransportError("unexpected connection from rank " +
                             std::to_string(h->h.rank));
      }
      Peer& slot = *peers_[static_cast<std::size_t>(peer)];
      if (slot.fd >= 0) {
        // The dialler abandoned its previous attempt (our reply lost the
        // race against its per-attempt timeout) and redialled: the newest
        // connection is the live one.
        ::close(slot.fd);
      } else {
        ++accepted;
      }
      slot.fd = fd;
      slot.clockDelta = h->clockDelta;
    }
  } catch (...) {
    for (auto& p : peers_) {
      if (p->fd >= 0) ::close(p->fd);
    }
    if (listenFd_ >= 0) ::close(listenFd_);
    throw;
  }

  for (int j = 0; j < world_; ++j) {
    if (j == cfg_.rank) continue;
    peers_[static_cast<std::size_t>(j)]->sender =
        std::thread([this, j] { senderLoop(j); });
    peers_[static_cast<std::size_t>(j)]->receiver =
        std::thread([this, j] { receiverLoop(j); });
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::killLink(Peer& p) {
  {
    LockGuard lock(p.mtx);
    p.dead = true;
  }
  ::shutdown(p.fd, SHUT_RDWR);
  p.cv.notify_all();
}

void TcpTransport::peerDied(int peerRank, const std::string& why) {
  Peer& p = *peers_[static_cast<std::size_t>(peerRank)];
  {
    LockGuard lock(p.mtx);
    if (p.deathReported) return;
    p.deathReported = true;
  }
  std::fprintf(stderr,
               "yewpar-tcp: rank %d: peer rank %d declared dead: %s\n",
               cfg_.rank, peerRank, why.c_str());
  trace::record(trace::Ev::kPeerDead, cfg_.rank,
                static_cast<std::uint64_t>(peerRank), 0);
  killLink(p);
  pushInbox(
      Message{peerRank, cfg_.rank, tag::kPeerDead, {why.begin(), why.end()}});
}

void TcpTransport::pushInbox(Message m) {
  {
    LockGuard lock(inboxMtx_);
    inbox_.push_back(std::move(m));
  }
  inboxCv_.notify_all();
}

void TcpTransport::send(Message m) {
  assert(m.src == cfg_.rank);
  if (m.dst < 0 || m.dst >= world_) {
    throw TransportError("send to out-of-range rank " +
                         std::to_string(m.dst));
  }
  if (m.payload.size() > wire::kMaxFramePayload) {
    throw TransportError("payload of " + std::to_string(m.payload.size()) +
                         " bytes exceeds the frame limit");
  }
  if (m.dst == cfg_.rank) {
    // Loopback (e.g. the manager shutdown nudge), as on the simulated
    // backend: straight to the inbox, no framing. The logical kFrameSend
    // trace is the shaping layer's job; the physical receipt is ours.
    trace::record(trace::Ev::kFrameRecv, cfg_.rank,
                  static_cast<std::uint64_t>(m.src), m.payload.size());
    pushInbox(std::move(m));
    return;
  }
  Peer& p = *peers_[static_cast<std::size_t>(m.dst)];
  {
    LockGuard lock(p.mtx);
    if (p.closing || p.dead) return;  // late message: dropped, like sim
    p.sendq.push_back(std::move(m));
  }
  p.cv.notify_one();
}

std::optional<Message> TcpTransport::tryRecv(int loc) {
  if (loc != cfg_.rank) {
    throw TransportError("TcpTransport hosts rank " +
                         std::to_string(cfg_.rank) + ", not " +
                         std::to_string(loc));
  }
  LockGuard lock(inboxMtx_);
  if (inbox_.empty()) return std::nullopt;
  Message m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

std::optional<Message> TcpTransport::recvWait(
    int loc, std::chrono::microseconds timeout) {
  if (loc != cfg_.rank) {
    throw TransportError("TcpTransport hosts rank " +
                         std::to_string(cfg_.rank) + ", not " +
                         std::to_string(loc));
  }
  // Explicit predicate loop (not a wait lambda) so the thread-safety
  // analysis sees inbox_ read with inboxMtx_ held.
  UniqueLock lock(inboxMtx_);
  const auto deadline = Clock::now() + timeout;
  while (inbox_.empty()) {
    if (inboxCv_.wait_until(lock.native(), deadline) ==
        std::cv_status::timeout) {
      break;
    }
  }
  if (inbox_.empty()) return std::nullopt;
  Message m = std::move(inbox_.front());
  inbox_.pop_front();
  return m;
}

void TcpTransport::senderLoop(int peerRank) {
  Peer& p = *peers_[static_cast<std::size_t>(peerRank)];
  trace::nameThread("tcp.tx" + std::to_string(peerRank));
  // Heartbeat cadence: a quarter of the silence deadline, so the peer sees
  // several keep-alives per timeout window even under scheduling jitter.
  const auto hbInterval =
      cfg_.peerTimeout.count() > 0
          ? std::max(cfg_.peerTimeout / 4, std::chrono::milliseconds(1))
          : std::chrono::milliseconds(0);
  for (;;) {
    std::deque<Message> batch;
    bool idleHeartbeat = false;
    {
      // Explicit predicate loops (not wait lambdas) so the thread-safety
      // analysis sees sendq/closing/dead read with p.mtx held.
      UniqueLock lock(p.mtx);
      if (hbInterval.count() > 0) {
        while (p.sendq.empty() && !p.closing) {
          if (p.cv.wait_for(lock.native(), hbInterval) ==
              std::cv_status::timeout &&
              p.sendq.empty() && !p.closing) {
            idleHeartbeat = !p.dead;
            break;
          }
        }
      } else {
        while (p.sendq.empty() && !p.closing) {
          p.cv.wait(lock.native());
        }
      }
      if (p.sendq.empty() && p.closing) break;
      batch.swap(p.sendq);
    }
    if (idleHeartbeat && batch.empty()) {
      wire::FrameHeader h;  // payloadLen 0: the header IS the keep-alive
      h.tag = static_cast<std::uint32_t>(tag::kHeartbeat);
      const auto hb = h.encode();
      if (!writeFull(p.fd, hb.data(), hb.size())) {
        bool alreadyDown;
        {
          LockGuard lock(p.mtx);
          alreadyDown = p.dead || p.closing;
          p.dead = true;
        }
        if (!alreadyDown && !draining_.load(std::memory_order_acquire)) {
          peerDied(peerRank, "heartbeat write failed: " + errnoText());
        }
        break;
      }
      heartbeats_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    bool writeFailed = false;
    for (auto& m : batch) {
      wire::FrameHeader h;
      h.payloadLen = static_cast<std::uint32_t>(m.payload.size());
      h.tag = static_cast<std::uint32_t>(m.tag);
      const auto hb = h.encode();
      if (!writeFull(p.fd, hb.data(), hb.size()) ||
          !writeFull(p.fd, m.payload.data(), m.payload.size())) {
        const std::string why = "write failed: " + errnoText();
        bool alreadyDown;
        {
          LockGuard lock(p.mtx);
          alreadyDown = p.dead || p.closing;
          p.dead = true;
        }
        if (!alreadyDown && !draining_.load(std::memory_order_acquire)) {
          peerDied(peerRank, why);
        }
        writeFailed = true;
        break;
      }
    }
    if (writeFailed) break;
  }
  // Every queued frame is on the wire: half-close so the peer's receiver
  // sees EOF at a frame boundary.
  ::shutdown(p.fd, SHUT_WR);
}

void TcpTransport::receiverLoop(int peerRank) {
  Peer& p = *peers_[static_cast<std::size_t>(peerRank)];
  const int fd = p.fd;
  trace::nameThread("tcp.rx" + std::to_string(peerRank));
  // During shutdown, frames already in flight must still land (closing with
  // unread data RSTs the connection, which can destroy data going the OTHER
  // way that the peer has not read yet). "Drained" is either the peer's
  // half-close (EOF) or, for a peer that stays up past our shutdown, a
  // window of silence at a frame boundary; drainDeadline_ is the dead-peer
  // backstop.
  constexpr auto kDrainQuiet = std::chrono::milliseconds(250);
  const auto peerTimeout = cfg_.peerTimeout;
  auto lastFrameAt = Clock::now();
  // Liveness clock for failure detection: any byte from the peer (message
  // frames, heartbeats, partial reads of a big payload) counts.
  auto lastHeard = Clock::now();
  bool silenceExpired = false;
  const auto silenceGiveUp = [&] {
    // Only mid-run: once this side drains, the peer may legitimately be
    // gone already and the drain deadline governs instead.
    if (peerTimeout.count() <= 0 ||
        draining_.load(std::memory_order_acquire)) {
      return false;
    }
    if (Clock::now() - lastHeard >= peerTimeout) {
      silenceExpired = true;
      return true;
    }
    return false;
  };
  const auto midFrameGiveUp = [&] {
    if (silenceGiveUp()) return true;
    return draining_.load(std::memory_order_acquire) &&
           Clock::now() >= drainDeadline_.load(std::memory_order_relaxed);
  };
  const auto boundaryGiveUp = [&] {
    if (silenceGiveUp()) return true;
    if (!draining_.load(std::memory_order_acquire)) return false;
    const auto now = Clock::now();
    return now >= drainDeadline_.load(std::memory_order_relaxed) ||
           now - lastFrameAt >= kDrainQuiet;
  };
  const auto silenceDiagnosis = [&] {
    return "silent for over " + std::to_string(peerTimeout.count()) +
           " ms (no frames, no heartbeats; --peer-timeout-ms)";
  };
  for (;;) {
    std::uint8_t hb[wire::FrameHeader::kBytes];
    auto r = readFull(fd, hb, sizeof(hb), boundaryGiveUp, &lastHeard);
    if (r == ReadResult::GaveUp && silenceExpired) {
      peerDied(peerRank, silenceDiagnosis());
      break;
    }
    if (r == ReadResult::Eof && peerTimeout.count() > 0 &&
        !draining_.load(std::memory_order_acquire)) {
      // Clean close at a frame boundary before this side started its own
      // shutdown. A gracefully finished peer and a SIGKILLed one both end
      // this way (the kernel closes the socket of a killed process with a
      // normal FIN); only time tells them apart. If the job is really
      // over, this side's own shutdown follows promptly - so wait up to
      // the peer timeout for draining_ before declaring a death.
      const auto lingerEnd = Clock::now() + peerTimeout;
      while (!draining_.load(std::memory_order_acquire) &&
             Clock::now() < lingerEnd) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (!draining_.load(std::memory_order_acquire)) {
        peerDied(peerRank,
                 "connection closed mid-run and the job did not finish "
                 "within the peer timeout (rank killed?)");
      }
      break;
    }
    if (r != ReadResult::Ok) {
      if (r == ReadResult::Error && !draining_.load()) {
        peerDied(peerRank, "link broke mid-frame (" + errnoText() + ")");
      }
      break;
    }
    const auto h = wire::FrameHeader::decode(hb);
    if (h.payloadLen > wire::kMaxFramePayload) {
      // A desynchronized or hostile stream: kill the whole link, not just
      // this thread - leaving the socket open could wedge the peer's
      // sender (and its shutdown join) once buffers fill.
      peerDied(peerRank, "oversized frame (" + std::to_string(h.payloadLen) +
                             " bytes); stream desynchronized");
      break;
    }
    if (static_cast<int>(h.tag) == tag::kHeartbeat && h.payloadLen == 0) {
      // Keep-alive: proof of life only (lastHeard was stamped by the
      // read); never surfaces as a message.
      continue;
    }
    std::vector<std::uint8_t> payload(h.payloadLen);
    r = readFull(fd, payload.data(), payload.size(), midFrameGiveUp,
                 &lastHeard);
    if (r != ReadResult::Ok) {
      if (r == ReadResult::GaveUp && silenceExpired) {
        peerDied(peerRank, silenceDiagnosis());
      } else if (!draining_.load()) {
        peerDied(peerRank, "truncated frame");
      }
      break;
    }
    trace::record(trace::Ev::kFrameRecv, cfg_.rank,
                  static_cast<std::uint64_t>(peerRank), h.payloadLen);
    pushInbox(Message{peerRank, cfg_.rank, static_cast<int>(h.tag),
                      std::move(payload)});
    lastFrameAt = Clock::now();
  }
}

void TcpTransport::shutdown() {
  if (shutdownDone_.exchange(true)) return;
  // Phase 1: senders drain their queues, then half-close.
  for (auto& p : peers_) {
    {
      LockGuard lock(p->mtx);
      p->closing = true;
    }
    p->cv.notify_all();
  }
  for (auto& p : peers_) {
    if (p->sender.joinable()) p->sender.join();
  }
  // Phase 2: receivers read until the peer's half-close (EOF), bounded in
  // case a peer died without closing.
  drainDeadline_.store(Clock::now() + cfg_.drainTimeout,
                       std::memory_order_relaxed);
  draining_.store(true, std::memory_order_release);
  for (auto& p : peers_) {
    if (p->receiver.joinable()) p->receiver.join();
  }
  // Phase 3: both directions done; close the sockets.
  for (auto& p : peers_) {
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

MetricsSnapshot TcpTransport::traffic() const {
  MetricsSnapshot s;
  s.networkHeartbeats = heartbeats_.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t TcpTransport::queuedMessagesNow() const {
  std::uint64_t total = 0;
  for (const auto& p : peers_) {
    LockGuard lock(p->mtx);
    total += p->sendq.size();
  }
  LockGuard lock(inboxMtx_);
  return total + inbox_.size();
}

std::uint64_t TcpTransport::maxLinkQueueNow() const {
  std::uint64_t deepest = 0;
  for (const auto& p : peers_) {
    LockGuard lock(p->mtx);
    if (p->sendq.size() > deepest) deepest = p->sendq.size();
  }
  return deepest;
}

std::uint64_t TcpTransport::linkBacklogNow(int src, int dst) const {
  // Only outbound links exist on this rank; anything else has no local
  // queue to measure.
  if (src != cfg_.rank || dst < 0 || dst >= world_ || dst == cfg_.rank) {
    return 0;
  }
  const Peer& p = *peers_[static_cast<std::size_t>(dst)];
  LockGuard lock(p.mtx);
  return p.sendq.size();
}

void TcpTransport::abandon() {
  if (shutdownDone_.exchange(true)) return;  // also blocks later shutdown()
  // No drain: deadline now, queues dropped, sockets shut both ways. The
  // peers see an abrupt (but FIN-terminated) close, exactly what they get
  // from a process the kernel cleaned up after a SIGKILL.
  drainDeadline_.store(Clock::now(), std::memory_order_relaxed);
  draining_.store(true, std::memory_order_release);
  for (auto& p : peers_) {
    {
      LockGuard lock(p->mtx);
      p->closing = true;
      p->dead = true;
      p->sendq.clear();
    }
    p->cv.notify_all();
    if (p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  for (auto& p : peers_) {
    if (p->sender.joinable()) p->sender.join();
    if (p->receiver.joinable()) p->receiver.join();
  }
  for (auto& p : peers_) {
    if (p->fd >= 0) {
      ::close(p->fd);
      p->fd = -1;
    }
  }
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
}

std::int64_t TcpTransport::handshakeClockDeltaNanos(int peer) const {
  if (peer < 0 || peer >= world_ || peer == cfg_.rank) return 0;
  return peers_[static_cast<std::size_t>(peer)]->clockDelta;
}

}  // namespace yewpar::rt
