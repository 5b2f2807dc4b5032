// The transport subsystem behind the Locality interface: wire-format
// handshake guards (magic + tag-table protocol version), hardened archive
// parsing of untrusted payloads (truncation / overlong length prefixes /
// trailing bytes, plus a fuzz-lite mutation sweep), serialization round
// trips for every cross-locality message struct, and the real TCP backend -
// framing, FIFO delivery, drain-on-shutdown, a loopback steal
// request/reply cycle, and full 2-rank engine runs whose results must be
// identical to the simulated transport (the CI ASan lane runs this suite;
// `ctest -L net` selects it).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "apps/uts/uts.hpp"
#include "common/io.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"
#include "runtime/locality.hpp"
#include "runtime/termination.hpp"
#include "runtime/transport/shaping.hpp"
#include "runtime/transport/tcp.hpp"
#include "runtime/transport/wire.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"

using namespace yewpar;
using namespace yewpar::rt;
using namespace yewpar::testing;
using namespace std::chrono_literals;

// ---- wire format ---------------------------------------------------------

TEST(Wire, HandshakeRoundTrip) {
  wire::Handshake h;
  h.rank = 3;
  h.world = 7;
  const auto bytes = h.encode();
  const auto back = wire::Handshake::decode(bytes.data());
  EXPECT_EQ(back.magic, wire::kMagic);
  EXPECT_EQ(back.version, wire::protocolVersion());
  EXPECT_EQ(back.rank, 3u);
  EXPECT_EQ(back.world, 7u);
}

TEST(Wire, FrameHeaderRoundTrip) {
  wire::FrameHeader h;
  h.payloadLen = 123456;
  h.tag = static_cast<std::uint32_t>(tag::kStealReply);
  const auto bytes = h.encode();
  const auto back = wire::FrameHeader::decode(bytes.data());
  EXPECT_EQ(back.payloadLen, 123456u);
  EXPECT_EQ(back.tag, static_cast<std::uint32_t>(tag::kStealReply));
}

TEST(Wire, ProtocolVersionDerivesFromTagTable) {
  // Compile-time constant, non-trivial, and stable within one build: two
  // binaries of the same source always agree.
  static_assert(wire::protocolVersion() != 0);
  EXPECT_EQ(wire::protocolVersion(), wire::protocolVersion());
}

namespace {

// A connected local socket pair for handshake unit tests.
struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

void expectHandshakeError(const wire::Handshake& doctored, int world,
                          const std::string& needle) {
  SocketPair sp;
  const auto bytes = doctored.encode();
  ASSERT_EQ(::send(sp.a, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  try {
    tryExchangeHandshake(sp.b, /*rank=*/0, world, 1000ms);
    FAIL() << "expected TransportError containing '" << needle << "'";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

}  // namespace

TEST(Wire, HandshakeAcceptsMatchingPeer) {
  // Both ends run the exchange at once, as the dialling and the accepting
  // rank do: each learns the other's rank.
  SocketPair sp;
  std::optional<HandshakeResult> fromRank0;
  std::thread rank1(
      [&] { fromRank0 = tryExchangeHandshake(sp.a, 1, 2, 1000ms); });
  const auto fromRank1 = tryExchangeHandshake(sp.b, 0, 2, 1000ms);
  rank1.join();
  ASSERT_TRUE(fromRank1.has_value());
  ASSERT_TRUE(fromRank0.has_value());
  EXPECT_EQ(fromRank1->h.rank, 1u);
  EXPECT_EQ(fromRank1->h.world, 2u);
  EXPECT_EQ(fromRank0->h.rank, 0u);
}

TEST(Wire, HandshakeRejectsBadMagic) {
  wire::Handshake h;
  h.magic = 0xDEADBEEF;
  h.world = 2;
  expectHandshakeError(h, 2, "magic");
}

TEST(Wire, HandshakeRejectsVersionMismatch) {
  // A binary whose tag table differs presents a different version hash.
  wire::Handshake h;
  h.version = wire::protocolVersion() ^ 0x1;
  h.world = 2;
  expectHandshakeError(h, 2, "version mismatch");
}

TEST(Wire, HandshakeRejectsWorldMismatch) {
  wire::Handshake h;
  h.world = 3;
  expectHandshakeError(h, 2, "localities");
}

TEST(Wire, HandshakeCutShortAfterTheMagicIsRetryable) {
  // A genuine rank whose connection dies mid-handshake (a connect that
  // landed in a dying listener's backlog) is no mismatch: the exchange
  // returns nullopt, and the dialler closes and redials.
  SocketPair sp;
  std::uint8_t magic[4];
  wire::putU32(magic, wire::kMagic);
  ASSERT_EQ(::send(sp.a, magic, sizeof(magic), 0), 4);
  ::shutdown(sp.a, SHUT_WR);
  EXPECT_FALSE(tryExchangeHandshake(sp.b, 0, 2, 1000ms).has_value());
}

// ---- hardened archive parsing -------------------------------------------

namespace {

// A payload shape exercising every IArchive read path: scalars, string,
// trivially-copyable vector, nested struct vector, pair, bitset.
struct RichPayload {
  std::int64_t token = 0;
  std::string name;
  std::vector<std::uint64_t> counts;
  std::vector<SynthNode> nodes;
  std::pair<std::int32_t, std::int64_t> bounds{0, 0};
  DynBitset bits;

  void save(OArchive& a) const {
    a << token << name << counts << nodes << bounds << bits;
  }
  void load(IArchive& a) {
    a >> token >> name >> counts >> nodes >> bounds >> bits;
  }
};

RichPayload makeRichPayload() {
  RichPayload p;
  p.token = 0x1234'5678'9abc'def0LL;
  p.name = "steal-reply";
  p.counts = {1, 2, 3, 5, 8, 13};
  p.nodes = {SynthNode{2, 11}, SynthNode{3, 42}};
  p.bounds = {7, -9};
  p.bits = DynBitset(70);
  p.bits.set(0);
  p.bits.set(69);
  return p;
}

}  // namespace

TEST(ArchiveHardening, EveryTruncationThrowsTyped) {
  const auto full = toBytes(makeRichPayload());
  ASSERT_GT(full.size(), 8u);
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> cut(full.begin(),
                                  full.begin() + static_cast<long>(len));
    EXPECT_THROW(fromBytes<RichPayload>(std::move(cut)), ArchiveError)
        << "prefix length " << len;
  }
  // The untruncated payload still parses.
  const auto back = fromBytes<RichPayload>(full);
  EXPECT_EQ(back.token, makeRichPayload().token);
  EXPECT_EQ(back.counts, makeRichPayload().counts);
  EXPECT_TRUE(back.bits.test(69));
}

TEST(ArchiveHardening, TrailingBytesRejected) {
  auto bytes = toBytes(makeRichPayload());
  bytes.push_back(0x00);
  EXPECT_THROW(fromBytes<RichPayload>(std::move(bytes)), ArchiveError);
}

TEST(ArchiveHardening, OverlongLengthPrefixesRejectedBeforeAllocation) {
  // A hostile 2^64-ish element count must throw, not drive a resize.
  {
    OArchive a;
    a << ~std::uint64_t{0};
    EXPECT_THROW(
        fromBytes<std::vector<std::uint64_t>>(std::move(a).takeBytes()),
        ArchiveError);
  }
  {
    OArchive a;
    a << (~std::uint64_t{0} >> 1);
    EXPECT_THROW(fromBytes<std::string>(std::move(a).takeBytes()),
                 ArchiveError);
  }
  {
    OArchive a;
    a << ~std::uint64_t{0};  // bitset bit count
    EXPECT_THROW(fromBytes<DynBitset>(std::move(a).takeBytes()),
                 ArchiveError);
  }
  {
    // Nested case: a plausible outer structure with an absurd inner count.
    OArchive a;
    a << std::int64_t{1} << ~std::uint64_t{0};
    struct TokenAndNodes {
      std::int64_t token = 0;
      std::vector<SynthNode> nodes;
      void load(IArchive& ar) { ar >> token >> nodes; }
      void save(OArchive& ar) const { ar << token << nodes; }
    };
    EXPECT_THROW(fromBytes<TokenAndNodes>(std::move(a).takeBytes()),
                 ArchiveError);
  }
}

TEST(ArchiveHardening, FuzzLiteMutatedBuffersNeverEscapeArchiveError) {
  // Mutate a valid wire payload a few thousand times: every parse must
  // either succeed or throw ArchiveError - no other exception, no crash
  // (the CI ASan lane gives the "no out-of-bounds" half of that teeth).
  const auto full = toBytes(makeRichPayload());
  Rng rng(0xF022ED);
  for (int iter = 0; iter < 4000; ++iter) {
    auto bytes = full;
    const int flips = 1 + static_cast<int>(rng.below(3));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(rng.below(bytes.size()));
      bytes[at] = static_cast<std::uint8_t>(rng.below(256));
    }
    if (rng.below(4) == 0) {
      bytes.resize(rng.below(bytes.size() + 1));  // random truncation too
    }
    try {
      (void)fromBytes<RichPayload>(std::move(bytes));
    } catch (const ArchiveError&) {
      // expected for most mutations
    }
  }
}

// ---- cross-locality message round trips ----------------------------------

namespace {

// Instantiate the engine's nested wire structs exactly as a real search
// does: an enumeration app (UTS-shaped synthetic tree) and an optimisation
// app (conflict-MST).
using EnumEng =
    skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::Eng;
using OptEng = skeletons::DepthBounded<apps::cmst::Gen, Optimisation,
                                       BoundFunction<&apps::cmst::upperBound>>::Eng;

}  // namespace

TEST(MessageRoundTrip, EngineTask) {
  EnumEng::Task t;
  t.node = SynthNode{4, 99};
  t.depth = 4;
  t.seq = 17;
  const auto back = fromBytes<EnumEng::Task>(toBytes(t));
  EXPECT_EQ(back.node.d, 4);
  EXPECT_EQ(back.node.id, 99u);
  EXPECT_EQ(back.depth, 4);
  EXPECT_EQ(back.seq, 17u);
}

TEST(MessageRoundTrip, StealReplyCarriesChunk) {
  EnumEng::Ctx::StealReply r;
  r.token = 0x5EED;
  r.tasks = {EnumEng::Task{SynthNode{1, 2}, 1, 0},
             EnumEng::Task{SynthNode{2, 5}, 2, 0},
             EnumEng::Task{SynthNode{2, 6}, 2, 0}};
  const auto back = fromBytes<EnumEng::Ctx::StealReply>(toBytes(r));
  EXPECT_EQ(back.token, 0x5EED);
  ASSERT_EQ(back.tasks.size(), 3u);
  EXPECT_EQ(back.tasks[1].node.id, 5u);
  EXPECT_EQ(back.tasks[2].depth, 2);

  // The empty reply is the NACK; it must round-trip too.
  EnumEng::Ctx::StealReply nack;
  nack.token = 7;
  const auto backNack =
      fromBytes<EnumEng::Ctx::StealReply>(toBytes(nack));
  EXPECT_EQ(backNack.token, 7);
  EXPECT_TRUE(backNack.tasks.empty());
}

TEST(MessageRoundTrip, TerminationSnapshot) {
  TermSnapshot s;
  s.round = 12;
  s.created = 100000;
  s.completed = 99999;
  const auto back = fromBytes<TermSnapshot>(toBytes(s));
  EXPECT_EQ(back.round, 12u);
  EXPECT_EQ(back.created, 100000u);
  EXPECT_EQ(back.completed, 99999u);
}

TEST(MessageRoundTrip, BoundUpdate) {
  const auto back = fromBytes<std::int64_t>(toBytes(std::int64_t{-2031}));
  EXPECT_EQ(back, -2031);
}

TEST(MessageRoundTrip, SpaceBroadcast) {
  // The engine serializes the whole search space once per run; both app
  // shapes must survive the trip.
  SynthSpace synth{3, 6};
  const auto synthBack = fromBytes<SynthSpace>(toBytes(synth));
  EXPECT_EQ(synthBack.branching, 3);
  EXPECT_EQ(synthBack.maxDepth, 6);

  const auto inst = apps::cmst::randomInstance(9, 18, 8, 1);
  const auto instBack = fromBytes<apps::cmst::Instance>(toBytes(inst));
  EXPECT_EQ(instBack.n, inst.n);
  EXPECT_EQ(instBack.ew, inst.ew);
  EXPECT_EQ(instBack.ca, inst.ca);
}

TEST(MessageRoundTrip, GatherMsgEnumeration) {
  EnumEng::GatherMsg g;
  g.metrics.nodesProcessed = 1234;
  g.metrics.remoteSteals = 9;
  g.metrics.networkBytes = 4096;
  g.metrics.netLatencyHist[3] = 17;
  g.truncated = 1;
  g.sum = 7777;
  const auto back = fromBytes<EnumEng::GatherMsg>(toBytes(g));
  EXPECT_EQ(back.metrics.nodesProcessed, 1234u);
  EXPECT_EQ(back.metrics.remoteSteals, 9u);
  EXPECT_EQ(back.metrics.networkBytes, 4096u);
  EXPECT_EQ(back.metrics.netLatencyHist[3], 17u);
  EXPECT_EQ(back.truncated, 1);
  EXPECT_EQ(back.sum, 7777u);
}

TEST(MessageRoundTrip, GatherMsgIncumbent) {
  const auto inst = apps::cmst::randomInstance(8, 14, 5, 3);
  OptEng::GatherMsg g;
  g.hasIncumbent = 1;
  g.incumbent = apps::cmst::rootNode(inst);
  g.objective = -1500;
  const auto back = fromBytes<OptEng::GatherMsg>(toBytes(g));
  EXPECT_EQ(back.hasIncumbent, 1);
  EXPECT_EQ(back.objective, -1500);
  EXPECT_EQ(back.incumbent.included, g.incumbent.included);
}

// ---- TCP transport -------------------------------------------------------

namespace {

std::vector<std::string> loopbackPeers(std::uint16_t base, int n) {
  std::vector<std::string> peers;
  for (int i = 0; i < n; ++i) {
    peers.push_back("127.0.0.1:" + std::to_string(base + i));
  }
  return peers;
}

// Bring up an n-rank loopback mesh. Constructors block until the mesh is
// connected, so every rank constructs on its own thread.
std::vector<std::unique_ptr<TcpTransport>> makeMesh(
    int n, std::chrono::milliseconds peerTimeout = 30000ms) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto peers = loopbackPeers(nextPortBase(21000, 8), n);
    std::vector<std::unique_ptr<TcpTransport>> mesh(
        static_cast<std::size_t>(n));
    std::vector<std::exception_ptr> errs(static_cast<std::size_t>(n));
    std::vector<std::thread> threads;
    for (int r = 0; r < n; ++r) {
      threads.emplace_back([&, r] {
        try {
          TcpConfig cfg;
          cfg.rank = r;
          cfg.peers = peers;
          cfg.connectTimeout = 5000ms;
          cfg.peerTimeout = peerTimeout;
          mesh[static_cast<std::size_t>(r)] =
              std::make_unique<TcpTransport>(cfg);
        } catch (...) {
          errs[static_cast<std::size_t>(r)] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    bool ok = true;
    for (const auto& e : errs) {
      if (e) ok = false;
    }
    if (ok) return mesh;
    // A rank failed (port already in use?): drop the mesh and retry on the
    // next port block.
    mesh.clear();
  }
  throw std::runtime_error("could not bring up a loopback mesh");
}

}  // namespace

TEST(TcpTransport, RejectsBadConfig) {
  EXPECT_THROW(TcpTransport{TcpConfig{}}, TransportError);  // empty peers
  TcpConfig cfg;
  cfg.peers = {"127.0.0.1:1", "127.0.0.1:2"};
  cfg.rank = 5;
  EXPECT_THROW(TcpTransport{cfg}, TransportError);  // rank out of range
  EXPECT_THROW(parseEndpoint("no-port"), TransportError);
  EXPECT_THROW(parseEndpoint("host:notaport"), TransportError);
  EXPECT_THROW(parseEndpoint("host:70000"), TransportError);
}

TEST(TcpTransport, SingleRankIsLoopbackOnly) {
  TcpConfig cfg;
  cfg.rank = 0;
  cfg.peers = {"127.0.0.1:1"};  // never bound: no peers to hear from
  TcpTransport t(cfg);
  EXPECT_EQ(t.size(), 1);
  t.send(Message{0, 0, tag::kUser, {1, 2, 3}});
  auto m = t.tryRecv(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(TcpTransport, DeliversBothDirectionsWithFraming) {
  auto mesh = makeMesh(2);
  auto& t0 = *mesh[0];
  auto& t1 = *mesh[1];

  t0.send(Message{0, 1, tag::kUser, toBytes(std::string("ping"))});
  auto m = t1.recvWait(1, 2'000'000us);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src, 0);
  EXPECT_EQ(m->dst, 1);
  EXPECT_EQ(m->tag, tag::kUser);
  EXPECT_EQ(fromBytes<std::string>(std::move(m->payload)), "ping");

  t1.send(Message{1, 0, tag::kUser + 1, toBytes(std::string("pong"))});
  m = t0.recvWait(0, 2'000'000us);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src, 1);
  EXPECT_EQ(m->tag, tag::kUser + 1);

  // A transport hosts exactly one rank.
  EXPECT_THROW(t0.tryRecv(1), TransportError);
}

TEST(TcpTransport, PerPeerFifoOrder) {
  auto mesh = makeMesh(2);
  for (std::uint32_t i = 0; i < 200; ++i) {
    mesh[0]->send(Message{0, 1, tag::kUser, toBytes(std::uint64_t{i})});
  }
  for (std::uint32_t i = 0; i < 200; ++i) {
    auto m = mesh[1]->recvWait(1, 2'000'000us);
    ASSERT_TRUE(m.has_value()) << "lost message " << i;
    EXPECT_EQ(fromBytes<std::uint64_t>(std::move(m->payload)), i);
  }
}

TEST(TcpTransport, ShutdownDrainsQueuedFramesBeforeClose) {
  auto mesh = makeMesh(2);
  // Queue a burst (with fat payloads so the socket buffers actually fill)
  // and shut the sender down immediately: graceful shutdown must put every
  // queued frame on the wire before closing.
  const std::vector<std::uint8_t> blob(64 * 1024, 0xAB);
  const int kBurst = 128;
  for (int i = 0; i < kBurst; ++i) {
    mesh[0]->send(Message{0, 1, tag::kUser, blob});
  }
  mesh[0]->shutdown();
  int got = 0;
  while (auto m = mesh[1]->recvWait(1, 2'000'000us)) {
    EXPECT_EQ(m->payload.size(), blob.size());
    ++got;
    if (got == kBurst) break;
  }
  EXPECT_EQ(got, kBurst);
  mesh[1]->shutdown();
}

TEST(TcpTransport, LoopbackStealRequestReplyCycleNoDeadlock) {
  // The actual steal protocol shape over real sockets: locality 1's manager
  // answers locality 0's request from its own manager thread (the path that
  // must never block), under ASan in CI.
  auto mesh = makeMesh(2);
  Locality thief(*mesh[0], 0);
  Locality victim(*mesh[1], 1);

  victim.registerHandler(tag::kPoolStealRequest, [&](Message&& m) {
    const auto token = fromBytes<std::int64_t>(std::move(m.payload));
    EnumEng::Ctx::StealReply reply;
    reply.token = token;
    reply.tasks = {EnumEng::Task{SynthNode{1, 1}, 1, 0},
                   EnumEng::Task{SynthNode{1, 2}, 1, 0}};
    victim.send(m.src, tag::kStealReply, toBytes(reply));
  });

  std::mutex mtx;
  std::condition_variable cv;
  std::vector<EnumEng::Task> stolen;
  thief.registerHandler(tag::kStealReply, [&](Message&& m) {
    auto reply = fromBytes<EnumEng::Ctx::StealReply>(std::move(m.payload));
    EXPECT_EQ(reply.token, 42);
    std::lock_guard lock(mtx);
    stolen = std::move(reply.tasks);
    cv.notify_all();
  });

  thief.start();
  victim.start();
  thief.send(1, tag::kPoolStealRequest, toBytes(std::int64_t{42}));
  {
    std::unique_lock lock(mtx);
    ASSERT_TRUE(
        cv.wait_for(lock, 5s, [&] { return !stolen.empty(); }));
  }
  EXPECT_EQ(stolen.size(), 2u);
  EXPECT_EQ(stolen[1].node.id, 2u);
  thief.stop();
  victim.stop();
  mesh[0]->shutdown();
  mesh[1]->shutdown();
}

TEST(TcpTransport, ForeignConnectionDuringMeshFormationIsShruggedOff) {
  // A port scanner / misdirected client hitting a rank's listen port while
  // the mesh forms must be closed and ignored, not abort the run. Only a
  // genuine peer with a mismatched version/world is fatal.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto peers = loopbackPeers(nextPortBase(21000, 8), 2);
    std::unique_ptr<TcpTransport> t0;
    std::exception_ptr err0;
    std::thread th0([&] {
      try {
        TcpConfig cfg;
        cfg.rank = 0;
        cfg.peers = peers;
        cfg.connectTimeout = 5000ms;
        t0 = std::make_unique<TcpTransport>(cfg);  // blocks in accept
      } catch (...) {
        err0 = std::current_exception();
      }
    });

    // The foreign client: dial rank 0 and send 16 bytes of garbage.
    const auto [host, port] = parseEndpoint(peers[0]);
    int foreign = -1;
    for (int i = 0; i < 200 && foreign < 0; ++i) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) == 0) {
        foreign = fd;
      } else {
        ::close(fd);
        std::this_thread::sleep_for(10ms);
      }
    }
    if (foreign >= 0) {
      const std::uint8_t junk[16] = {'G', 'E', 'T', ' ', '/', ' ', 'H',
                                     'T', 'T', 'P', '/', '1', '.', '1',
                                     '\r', '\n'};
      (void)::send(foreign, junk, sizeof(junk), MSG_NOSIGNAL);
    }

    // The real rank 1 arrives afterwards; the mesh must still form.
    std::unique_ptr<TcpTransport> t1;
    std::exception_ptr err1;
    try {
      TcpConfig cfg;
      cfg.rank = 1;
      cfg.peers = peers;
      cfg.connectTimeout = 5000ms;
      t1 = std::make_unique<TcpTransport>(cfg);
    } catch (...) {
      err1 = std::current_exception();
    }
    th0.join();
    if (foreign >= 0) ::close(foreign);
    if (err0 || err1) continue;  // port collision: retry on a new block

    ASSERT_TRUE(foreign >= 0) << "foreign client never connected";
    t0->send(Message{0, 1, tag::kUser, toBytes(std::int64_t{5})});
    auto m = t1->recvWait(1, 2'000'000us);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(fromBytes<std::int64_t>(std::move(m->payload)), 5);
    return;
  }
  FAIL() << "could not bring up a mesh with a foreign client";
}

TEST(TcpTransport, MalformedPayloadDropsMessageNotTheRank) {
  // A payload that fails archive parsing inside a handler must be dropped
  // with a warning, not escape the manager thread (which would
  // std::terminate the rank). The manager must stay alive and process the
  // next well-formed message.
  auto mesh = makeMesh(2);
  Locality rx(*mesh[0], 0);
  std::mutex mtx;
  std::condition_variable cv;
  std::vector<std::int64_t> seen;
  rx.registerHandler(tag::kUser, [&](Message&& m) {
    const auto v = fromBytes<std::int64_t>(std::move(m.payload));
    std::lock_guard lock(mtx);
    seen.push_back(v);
    cv.notify_all();
  });
  rx.start();

  mesh[1]->send(Message{1, 0, tag::kUser, {0xBA, 0xD1}});  // truncated int64
  mesh[1]->send(Message{1, 0, tag::kUser, toBytes(std::int64_t{7})});
  {
    std::unique_lock lock(mtx);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] { return !seen.empty(); }));
  }
  EXPECT_EQ(seen, (std::vector<std::int64_t>{7}));
  rx.stop();
  mesh[0]->shutdown();
  mesh[1]->shutdown();
}

// ---- link shaping over real sockets --------------------------------------

TEST(ShapedTcp, BatchFlushCutsWireFrames) {
  // The engine's TCP composition: a ShapedTransport wrapping each rank's
  // raw socket backend. With --net-batch 8 and a flush deadline too long to
  // fire, 64 messages must leave as exactly 8 size-triggered container
  // frames on the wire - fewer frames than messages is the whole point.
  // Rank 1 reads its raw backend, so every wire frame arrives undecoded.
  auto mesh = makeMesh(2);
  NetConfig net;
  net.batchSize = 8;
  net.flushAfter = std::chrono::microseconds(5'000'000);
  ShapedTransport s0(*mesh[0], net);

  const std::uint64_t kMsgs = 64;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    s0.send(Message{0, 1, tag::kUser, toBytes(i)});
  }
  std::uint64_t next = 0;
  for (std::uint64_t f = 0; f < kMsgs / 8; ++f) {
    auto frame = mesh[1]->recvWait(1, 2'000'000us);
    ASSERT_TRUE(frame.has_value()) << "lost wire frame " << f;
    ASSERT_EQ(frame->tag, tag::kBatchedFrame);
    for (auto& m : decodeBatchedFrame(0, 1, std::move(frame->payload))) {
      EXPECT_EQ(fromBytes<std::uint64_t>(std::move(m.payload)), next++)
          << "FIFO broken under shaping";
    }
  }
  EXPECT_EQ(next, kMsgs);
  EXPECT_FALSE(mesh[1]->recvWait(1, 100'000us).has_value())
      << "a wire frame beyond the batches";

  const auto t = s0.traffic();
  EXPECT_EQ(t.networkMessages, kMsgs);
  EXPECT_EQ(t.networkBatched, kMsgs);
  EXPECT_EQ(t.networkFrames, kMsgs / 8);

  s0.shutdown();
  mesh[1]->shutdown();
}

TEST(ShapedTcp, QueueCapShedsToSpillAndLosesNothing) {
  // --net-queue-cap back-pressure against the real socket backlog: a size-
  // triggered flush of 4 with cap 2 hands 2 to the socket and sheds 2 to
  // the spill list; a forced flush later promotes them. Nothing is lost or
  // reordered, and the shed is visible in traffic().networkSpills.
  auto mesh = makeMesh(2);
  NetConfig net;
  net.batchSize = 4;
  net.flushAfter = std::chrono::microseconds(5'000'000);
  net.queueCap = 2;
  ShapedTransport s0(*mesh[0], net);
  ShapedTransport s1(*mesh[1], net);

  const std::uint64_t kMsgs = 6;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    s0.send(Message{0, 1, tag::kUser, toBytes(i)});
  }
  // The 4th send flushed: the socket queue was empty, so exactly cap = 2
  // messages were handed over and the other 2 shed behind them.
  EXPECT_EQ(s0.traffic().networkSpills, 2u);
  s0.flushAll();  // forced: promotes the spill, then the remaining buffer

  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    auto m = s1.recvWait(1, 2'000'000us);
    ASSERT_TRUE(m.has_value()) << "lost message " << i;
    EXPECT_EQ(fromBytes<std::uint64_t>(std::move(m->payload)), i)
        << "spill promotion broke FIFO";
  }
  EXPECT_EQ(s0.traffic().networkMessages, kMsgs);
  // The high-water mark never exceeds the cap on capped handoffs.
  EXPECT_LE(s0.traffic().linkQueueHighWater, 2u);

  s0.shutdown();
  s1.shutdown();
}

TEST(ShapedTcp, MixedFlushSizesPreserveFifoAndAccounting) {
  // Irregular flushes (size-triggered full frames, forced partial frames,
  // singleton frames) must keep per-link FIFO and the accounting identity
  // batched + immediate == messages.
  auto mesh = makeMesh(2);
  NetConfig net;
  net.batchSize = 5;
  net.flushAfter = std::chrono::microseconds(5'000'000);
  ShapedTransport s0(*mesh[0], net);
  ShapedTransport s1(*mesh[1], net);

  const std::uint64_t kMsgs = 25;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    s0.send(Message{0, 1, tag::kUser, toBytes(i)});
    if (i % 7 == 0) s0.flushAll();  // partial frames, including size 1
  }
  s0.flushAll();

  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    auto m = s1.recvWait(1, 2'000'000us);
    ASSERT_TRUE(m.has_value()) << "lost message " << i;
    EXPECT_EQ(fromBytes<std::uint64_t>(std::move(m->payload)), i);
  }
  const auto t = s0.traffic();
  EXPECT_EQ(t.networkMessages, kMsgs);
  EXPECT_EQ(t.networkBatched + t.networkImmediate, kMsgs);
  EXPECT_GT(t.networkBatched, 0u);
  EXPECT_GT(t.networkImmediate, 0u);
  EXPECT_LT(t.networkFrames, kMsgs);

  s0.shutdown();
  s1.shutdown();
}

// ---- rank-failure detection ----------------------------------------------

TEST(TcpFailure, AbandonedPeerFiresFailureCallbackNamingRank) {
  // abandon() approximates a SIGKILLed process: no drain, no goodbye. The
  // survivor must declare the peer dead within the peer timeout and fire
  // onPeerFailure exactly once with the dead rank.
  auto mesh = makeMesh(2, 400ms);
  std::mutex mtx;
  std::condition_variable cv;
  int dead = -1;
  std::string why;
  int fires = 0;
  mesh[0]->onPeerFailure([&](int r, const std::string& w) {
    std::lock_guard lock(mtx);
    dead = r;
    why = w;
    ++fires;
    cv.notify_all();
  });

  mesh[1]->abandon();
  {
    std::unique_lock lock(mtx);
    ASSERT_TRUE(cv.wait_for(lock, 10s, [&] { return dead >= 0; }))
        << "peer death never reported";
  }
  std::this_thread::sleep_for(100ms);  // window for a (wrong) second fire
  {
    std::lock_guard lock(mtx);
    EXPECT_EQ(dead, 1);
    EXPECT_EQ(fires, 1);
    EXPECT_FALSE(why.empty());
  }
  mesh[0]->shutdown();
}

TEST(TcpFailure, IdleHeartbeatsKeepSilentLinkAlive) {
  // An idle but healthy mesh must NOT trip the silence deadline: the idle
  // senders' heartbeats are the proof of life. Sit well past the timeout,
  // then check the link still delivers.
  auto mesh = makeMesh(2, 500ms);
  std::atomic<int> deaths{0};
  mesh[0]->onPeerFailure([&](int, const std::string&) { ++deaths; });
  mesh[1]->onPeerFailure([&](int, const std::string&) { ++deaths; });

  std::this_thread::sleep_for(1500ms);  // 3x the timeout of pure idleness
  EXPECT_EQ(deaths.load(), 0);
  EXPECT_GE(mesh[0]->traffic().networkHeartbeats, 1u);
  EXPECT_GE(mesh[1]->traffic().networkHeartbeats, 1u);

  mesh[0]->send(Message{0, 1, tag::kUser, toBytes(std::uint64_t{99})});
  auto m = mesh[1]->recvWait(1, 2'000'000us);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(fromBytes<std::uint64_t>(std::move(m->payload)), 99u);

  mesh[0]->shutdown();
  mesh[1]->shutdown();
}

// ---- full engine over TCP: results identical to the simulated run --------

namespace {

// Run `search` on a fresh 2-rank loopback mesh, one OS thread per rank
// (each thread builds its own TcpTransport inside the engine, exactly as
// two separate processes would). Returns rank 0's merged outcome.
template <typename SearchFn>
auto runTwoRanks(Params base, SearchFn search) {
  using Out = decltype(search(base));
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto peers = loopbackPeers(nextPortBase(21000, 8), 2);
    Out outs[2];
    std::exception_ptr errs[2];
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Params p = base;
        p.transport = TransportKind::Tcp;
        p.rank = r;
        p.peers = peers;
        try {
          outs[r] = search(p);
        } catch (...) {
          errs[r] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (!errs[0] && !errs[1]) {
      EXPECT_TRUE(outs[0].isRoot);
      EXPECT_FALSE(outs[1].isRoot);
      return outs[0];
    }
    // Port collision with a parallel suite: try the next block. Any other
    // transport failure will persist through all attempts and surface.
  }
  throw std::runtime_error("could not complete a 2-rank engine run");
}

}  // namespace

TEST(TcpEngine, UtsCountsIdenticalToSim) {
  apps::uts::Params tree;
  tree.b0 = 6;
  tree.maxDepth = 6;
  tree.seed = 42;
  const auto root = apps::uts::rootNode(tree);

  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.chunk = parseChunkPolicy("half");

  const auto sim =
      skeletons::StackStealing<apps::uts::Gen,
                               Enumeration<CountByDepth>>::search(p, tree,
                                                                  root);
  const auto tcp = runTwoRanks(p, [&](const Params& pr) {
    return skeletons::StackStealing<apps::uts::Gen,
                                    Enumeration<CountByDepth>>::search(
        pr, tree, root);
  });
  // Byte-identical enumeration: the same per-depth histogram.
  EXPECT_EQ(tcp.sum, sim.sum);
  EXPECT_TRUE(tcp.complete);
  // Work really crossed process boundaries as wire frames.
  EXPECT_GT(tcp.metrics.networkMessages, 0u);
}

TEST(TcpEngine, CmstOptimumIdenticalToSim) {
  const auto inst = apps::cmst::randomInstance(9, 18, 8, 1);
  const auto root = apps::cmst::rootNode(inst);

  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.chunk = parseChunkPolicy("adaptive");

  const auto sim =
      skeletons::DepthBounded<apps::cmst::Gen, Optimisation,
                              BoundFunction<&apps::cmst::upperBound>>::
          search(p, inst, root);
  const auto tcp = runTwoRanks(p, [&](const Params& pr) {
    return skeletons::DepthBounded<apps::cmst::Gen, Optimisation,
                                   BoundFunction<&apps::cmst::upperBound>>::
        search(pr, inst, root);
  });
  EXPECT_EQ(tcp.objective, sim.objective);
  ASSERT_TRUE(tcp.incumbent.has_value());
  EXPECT_TRUE(tcp.incumbent->complete);
}

TEST(TcpEngine, DecisionShortCircuitCrossesRanks) {
  // A Decision search must stop all ranks once any rank finds the target.
  const auto inst = apps::cmst::randomInstance(9, 18, 8, 1);
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.decisionTarget = -3000;  // generous cost budget: certainly satisfiable
  const auto tcp = runTwoRanks(p, [&](const Params& pr) {
    return skeletons::DepthBounded<apps::cmst::Gen, Decision,
                                   BoundFunction<&apps::cmst::upperBound>>::
        search(pr, inst, apps::cmst::rootNode(inst));
  });
  EXPECT_TRUE(tcp.decided);
}

TEST(TcpEngine, BatchingSplitIsExactInTheGather) {
  // The TCP leg of NetworkEngine.MetricsExposeTransportBehaviour: each rank
  // flushes its own links before snapshotting its transport counters, so
  // the merged batched/immediate split adds up to the message count. The
  // 20 ms flush deadline keeps idle ranks' steal requests buffered at
  // quiesce, so a snapshot taken without that flush would come up short.
  const SynthSpace space{3, 6};
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.net.batchSize = 16;
  p.net.flushAfter = 20ms;
  const auto tcp = runTwoRanks(p, [&](const Params& pr) {
    return skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
        pr, space, SynthNode{});
  });
  EXPECT_LE(tcp.metrics.networkFrames, tcp.metrics.networkMessages);
  EXPECT_EQ(tcp.metrics.networkBatched + tcp.metrics.networkImmediate,
            tcp.metrics.networkMessages);
  EXPECT_GT(tcp.metrics.networkMessages, 0u);
}

TEST(TcpEngine, KilledRankAbortsSurvivorNamingDeadRank) {
  // Kill-one-rank: rank 1 joins the mesh as a bare transport (so the start
  // barrier passes) and then vanishes mid-run via abandon() - the closest a
  // unit test gets to SIGKILL. Rank 0 runs a real search that can never
  // terminate without rank 1's snapshot replies; without failure detection
  // it would hang forever. It must instead abort within --peer-timeout-ms
  // with a TransportError naming the dead rank.
  apps::uts::Params tree;
  tree.b0 = 4;
  tree.maxDepth = 4;
  tree.seed = 7;
  const auto root = apps::uts::rootNode(tree);

  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto peers = loopbackPeers(nextPortBase(21000, 8), 2);

    std::unique_ptr<TcpTransport> t1;
    std::exception_ptr err1;
    std::thread th1([&] {
      try {
        TcpConfig cfg;
        cfg.rank = 1;
        cfg.peers = peers;
        cfg.connectTimeout = 5000ms;
        cfg.peerTimeout = 500ms;
        t1 = std::make_unique<TcpTransport>(cfg);  // blocks until mesh up
        std::this_thread::sleep_for(300ms);        // let rank 0 start working
        t1->abandon();
      } catch (...) {
        err1 = std::current_exception();
      }
    });

    Params p;
    p.transport = TransportKind::Tcp;
    p.rank = 0;
    p.peers = peers;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.peerTimeoutMs = 500;

    const auto t0 = std::chrono::steady_clock::now();
    std::string aborted;
    try {
      skeletons::StackStealing<apps::uts::Gen,
                               Enumeration<CountByDepth>>::search(p, tree,
                                                                  root);
    } catch (const TransportError& e) {
      aborted = e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    th1.join();

    if (aborted.find("rank 1 died") != std::string::npos) {
      // Detection latency: mesh formation + 300ms grace + the 500ms peer
      // timeout, with generous slack for sanitizer builds. The hard claim
      // is "seconds, not a 120s gather timeout or a hang".
      EXPECT_LT(elapsed, 30s);
      return;
    }
    // Port collision (either side failed to form the mesh): retry.
    if (err1) continue;
    if (aborted.empty()) {
      FAIL() << "search completed despite a dead peer";
    }
  }
  FAIL() << "could not bring up a mesh to kill a rank in";
}

TEST(TcpEngine, PeerDeathStopsTheSurvivorMidTask) {
  // Rank 0's one worker searches the whole tree as one Stack-Stealing task
  // (rank 1 joins as a bare transport and never steals), and rank 1
  // vanishes while that task runs. The failure callback must stop the task
  // mid-search: rank 0 aborts naming rank 1 within the peer timeout (plus
  // slack) of the abandon, not once it has searched the whole tree.
  apps::uts::Params tree;
  tree.b0 = 8;
  tree.maxDepth = 14;
  const auto root = apps::uts::rootNode(tree);
  constexpr auto kPeerTimeout = 500ms;

  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto peers = loopbackPeers(nextPortBase(21000, 8), 2);

    std::unique_ptr<TcpTransport> t1;
    std::exception_ptr err1;
    std::chrono::steady_clock::time_point abandonedAt;
    std::thread th1([&] {
      try {
        TcpConfig cfg;
        cfg.rank = 1;
        cfg.peers = peers;
        cfg.connectTimeout = 5000ms;
        cfg.peerTimeout = kPeerTimeout;
        t1 = std::make_unique<TcpTransport>(cfg);  // blocks until mesh up
        std::this_thread::sleep_for(300ms);  // rank 0 is inside its task
        abandonedAt = std::chrono::steady_clock::now();
        t1->abandon();
      } catch (...) {
        err1 = std::current_exception();
      }
    });

    Params p;
    p.transport = TransportKind::Tcp;
    p.rank = 0;
    p.peers = peers;
    p.nLocalities = 2;
    p.workersPerLocality = 1;
    p.peerTimeoutMs = static_cast<std::uint64_t>(kPeerTimeout.count());

    std::string aborted;
    try {
      skeletons::StackStealing<apps::uts::Gen,
                               Enumeration<CountByDepth>>::search(p, tree,
                                                                  root);
    } catch (const TransportError& e) {
      aborted = e.what();
    }
    const auto abortedAt = std::chrono::steady_clock::now();
    th1.join();

    if (aborted.find("rank 1 died") != std::string::npos) {
      EXPECT_LT(abortedAt - abandonedAt, kPeerTimeout + 2s)
          << "rank 0 finished its task before it aborted";
      return;
    }
    // Port collision (either side failed to form the mesh): retry.
    if (err1) continue;
    FAIL() << (aborted.empty() ? "search completed despite a dead peer"
                               : aborted);
  }
  FAIL() << "could not bring up a mesh to kill a rank in";
}
