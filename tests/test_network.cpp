// The layered simulated transport: delay-model parsing and sampling, batch
// flush (size- and deadline-triggered), FIFO delivery under randomised
// per-message delays, bounded links with shed-to-spill back-pressure,
// per-link counter accounting, and the delivery of a declared rank death.
// The engine-level leg checks that no batch/cap/delay combination can
// change a search result on any skeleton, and that a saturated link never
// deadlocks the steal request/reply cycle (the CI TSan and ASan lanes run
// this suite alongside test_runtime).

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common/run_skeleton.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"
#include "runtime/locality.hpp"
#include "runtime/transport/inproc.hpp"
#include "util/archive.hpp"

using namespace yewpar;
using namespace yewpar::rt;
using namespace yewpar::testing;
using namespace std::chrono_literals;

// ---- DelayModel ----------------------------------------------------------

TEST(DelayModel, ParsesEverySpec) {
  EXPECT_EQ(DelayModel::parse("none").kind, DelayModel::Kind::None);

  auto fixed = DelayModel::parse("fixed:250");
  EXPECT_EQ(fixed.kind, DelayModel::Kind::Fixed);
  EXPECT_DOUBLE_EQ(fixed.a, 250.0);

  auto uni = DelayModel::parse("uniform:10,200");
  EXPECT_EQ(uni.kind, DelayModel::Kind::Uniform);
  EXPECT_DOUBLE_EQ(uni.a, 10.0);
  EXPECT_DOUBLE_EQ(uni.b, 200.0);

  auto logn = DelayModel::parse("lognormal:3.5,0.7");
  EXPECT_EQ(logn.kind, DelayModel::Kind::Lognormal);
  EXPECT_DOUBLE_EQ(logn.a, 3.5);
  EXPECT_DOUBLE_EQ(logn.b, 0.7);

  // Round-trips through the printable name.
  for (const char* spec :
       {"none", "fixed:250", "uniform:10,200", "lognormal:3.5,0.7"}) {
    EXPECT_EQ(DelayModel::parse(DelayModel::parse(spec).name()).kind,
              DelayModel::parse(spec).kind)
        << spec;
  }
}

TEST(DelayModel, RejectsBadSpecs) {
  for (const char* spec :
       {"", "slow", "fixed:", "fixed:abc", "fixed:-5", "uniform:10",
        "uniform:200,10", "uniform:-1,5", "lognormal:3", "lognormal:3,-1",
        "uniform:1,2,3x", "fixed:nan", "fixed:inf", "uniform:nan,nan",
        "lognormal:nan,1"}) {
    EXPECT_THROW(DelayModel::parse(spec), std::invalid_argument) << spec;
  }
}

TEST(DelayModel, SamplesWithinModelRange) {
  Rng rng(42);
  EXPECT_DOUBLE_EQ(DelayModel::parse("none").sampleMicros(rng), 0.0);
  EXPECT_DOUBLE_EQ(DelayModel::parse("fixed:70").sampleMicros(rng), 70.0);
  auto uni = DelayModel::parse("uniform:10,200");
  auto logn = DelayModel::parse("lognormal:3,0.7");
  for (int i = 0; i < 1000; ++i) {
    const double u = uni.sampleMicros(rng);
    EXPECT_GE(u, 10.0);
    EXPECT_LE(u, 200.0);
    EXPECT_GT(logn.sampleMicros(rng), 0.0);  // strictly positive, any tail
  }
}

TEST(DelayModel, SamplingIsDeterministicPerSeed) {
  auto logn = DelayModel::parse("lognormal:3,0.7");
  Rng a(7), b(7), c(8);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    const double va = logn.sampleMicros(a);
    EXPECT_DOUBLE_EQ(va, logn.sampleMicros(b));
    if (va != logn.sampleMicros(c)) diverged = true;
  }
  EXPECT_TRUE(diverged);  // different seeds give a different schedule
}

// ---- batching ------------------------------------------------------------

TEST(NetworkBatch, SizeTriggeredFlush) {
  NetConfig cfg;
  cfg.batchSize = 3;
  cfg.flushAfter = 1h;  // deadline effectively off
  InProcTransport net(2, cfg);
  net.send(Message{0, 1, 1, {}});
  net.send(Message{0, 1, 2, {}});
  // Two buffered messages: nothing on the wire yet.
  EXPECT_FALSE(net.tryRecv(1).has_value());
  EXPECT_EQ(net.traffic().networkFrames, 0u);
  // The third fills the batch: one frame, three deliverable messages, FIFO.
  net.send(Message{0, 1, 3, {}});
  for (int tagId = 1; tagId <= 3; ++tagId) {
    auto m = net.recvWait(1, 100ms);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, tagId);
  }
  const auto t = net.traffic();
  EXPECT_EQ(t.networkFrames, 1u);
  EXPECT_EQ(t.networkBatched, 3u);
  EXPECT_EQ(t.networkImmediate, 0u);
  EXPECT_EQ(t.networkMessages, 3u);
}

TEST(NetworkBatch, DeadlineTriggeredFlush) {
  NetConfig cfg;
  cfg.batchSize = 100;  // size trigger effectively off
  // Wide enough that a loaded CI runner (TSan, 1 core) cannot plausibly
  // preempt this thread past the deadline before the EXPECT_FALSE poll.
  cfg.flushAfter = 100ms;
  InProcTransport net(2, cfg);
  net.send(Message{0, 1, 7, {}});
  EXPECT_FALSE(net.tryRecv(1).has_value());  // buffered, not yet due
  // The receiver's own poll flushes the overdue batch.
  auto m = net.recvWait(1, 5s);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 7);
  EXPECT_EQ(net.traffic().networkFrames, 1u);
  EXPECT_EQ(net.traffic().networkImmediate, 1u);  // a frame of one
}

TEST(NetworkBatch, FlushAllForcesBufferedFrames) {
  NetConfig cfg;
  cfg.batchSize = 100;
  cfg.flushAfter = 1h;
  InProcTransport net(2, cfg);
  net.send(Message{0, 1, 1, {}});
  net.send(Message{0, 1, 2, {}});
  EXPECT_FALSE(net.tryRecv(1).has_value());
  net.flushAll();
  EXPECT_TRUE(net.tryRecv(1).has_value());
  EXPECT_TRUE(net.tryRecv(1).has_value());
  EXPECT_EQ(net.traffic().networkFrames, 1u);
  EXPECT_EQ(net.traffic().networkBatched, 2u);
}

TEST(NetworkBatch, SelfSendBypassesBatchingAndDelay) {
  // Locality::stop() wakes its manager with a self-addressed shutdown
  // message; it must arrive immediately whatever the transport config.
  NetConfig cfg;
  cfg.batchSize = 100;
  cfg.flushAfter = 1h;
  cfg.queueCap = 1;
  cfg.delay = DelayModel::parse("fixed:1000000");
  InProcTransport net(2, cfg);
  net.send(Message{0, 0, 42, {}});
  auto m = net.tryRecv(0);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->tag, 42);
}

// ---- delay + FIFO --------------------------------------------------------

TEST(NetworkDelay, RandomPerMessageDelaysKeepLinkFifo) {
  NetConfig cfg;
  cfg.delay = DelayModel::parse("uniform:0,3000");
  cfg.seed = 99;
  InProcTransport net(2, cfg);
  constexpr int kMsgs = 50;
  // kUser offsets: raw low integers would collide with the transport's
  // reserved link tags (tag::kBatchedFrame / tag::kHeartbeat).
  for (int i = 0; i < kMsgs; ++i) {
    net.send(Message{0, 1, tag::kUser + i, {}});
  }
  // Whatever delays were sampled, delivery order must match send order
  // (the per-link monotone floor models a FIFO pipe of varying latency).
  for (int i = 0; i < kMsgs; ++i) {
    auto m = net.recvWait(1, 500ms);
    ASSERT_TRUE(m.has_value()) << i;
    EXPECT_EQ(m->tag, tag::kUser + i);
  }
}

TEST(NetworkDelay, DelayHoldsDelivery) {
  NetConfig cfg;
  cfg.delay = DelayModel::parse("fixed:20000");  // 20ms
  InProcTransport net(2, cfg);
  net.send(Message{0, 1, 1, {}});
  EXPECT_FALSE(net.tryRecv(1).has_value());  // still in flight
  auto m = net.recvWait(1, 500ms);
  ASSERT_TRUE(m.has_value());
  // The modelled latency landed in the histogram (20000us -> bucket 15).
  const auto hist = net.traffic().netLatencyHist;
  std::uint64_t recorded = 0;
  for (auto c : hist) recorded += c;
  EXPECT_EQ(recorded, 1u);
  EXPECT_EQ(hist[static_cast<std::size_t>(netLatencyBucketFor(20000))], 1u);
}

// ---- back-pressure -------------------------------------------------------

TEST(NetworkBackPressure, FullLinkShedsToSpillAndLosesNothing) {
  NetConfig cfg;
  cfg.queueCap = 4;
  InProcTransport net(2, cfg);
  constexpr int kMsgs = 10;
  for (int i = 0; i < kMsgs; ++i) {
    net.send(Message{0, 1, tag::kUser + i, {}});
  }
  const auto stats = net.linkStats(0, 1);
  EXPECT_EQ(stats.linkQueueHighWater, 4u);        // never above the cap
  EXPECT_EQ(stats.networkSpills, 6u);             // overflow shed, not lost
  EXPECT_EQ(net.traffic().networkSpills, 6u);
  // Draining the link promotes spilled messages in FIFO order.
  for (int i = 0; i < kMsgs; ++i) {
    auto m = net.recvWait(1, 100ms);
    ASSERT_TRUE(m.has_value()) << i;
    EXPECT_EQ(m->tag, tag::kUser + i);
  }
  EXPECT_FALSE(net.tryRecv(1).has_value());
  EXPECT_EQ(net.linkStats(0, 1).linkQueueHighWater, 4u);
}

TEST(NetworkBackPressure, CongestedLinkStillServesRequestReplyCycles) {
  // A saturated 0->1 link must not wedge a request/reply protocol: the
  // reply direction is a different link, and spilled requests drain as the
  // receiver polls. This is the transport half of the engine-level
  // no-deadlock guarantee for steals.
  NetConfig cfg;
  cfg.queueCap = 2;
  cfg.delay = DelayModel::parse("fixed:100");
  InProcTransport net(2, cfg);
  Locality requester(net, 0), responder(net, 1);
  std::atomic<int> acks{0};
  responder.registerHandler(tag::kUser, [&](Message&& m) {
    responder.send(m.src, tag::kUser + 1, std::move(m.payload));
  });
  requester.registerHandler(tag::kUser + 1,
                            [&](Message&&) { acks.fetch_add(1); });
  requester.start();
  responder.start();
  constexpr int kRequests = 64;  // far beyond the 2-deep link
  for (int i = 0; i < kRequests; ++i) {
    requester.send(1, tag::kUser, toBytes(std::int32_t{i}));
  }
  for (int i = 0; i < 4000 && acks.load() < kRequests; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(acks.load(), kRequests);
  EXPECT_GT(net.traffic().networkSpills, 0u);  // the cap actually bit
  requester.stop();
  responder.stop();
}

// ---- per-link accounting -------------------------------------------------

TEST(NetworkCounters, PerLinkAtomicsSumToTotalsUnderConcurrency) {
  // Regression guard for the batch-flush counter race: totals are sums of
  // per-link atomics, so concurrent senders sharing links (and racing the
  // flush path) must never lose a count.
  NetConfig cfg;
  cfg.batchSize = 4;
  cfg.flushAfter = 0us;  // every poll flushes
  InProcTransport net(3, cfg);
  constexpr int kPerSender = 2000;
  std::vector<std::thread> senders;
  for (int s = 0; s < 4; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        // Two threads per link: (0->1) and (0->2) each written by two
        // senders concurrently.
        const int dst = 1 + (s % 2);
        net.send(Message{0, dst, s, toBytes(std::int32_t{i})});
      }
    });
  }
  for (auto& t : senders) t.join();
  net.flushAll();

  const auto l01 = net.linkStats(0, 1);
  const auto l02 = net.linkStats(0, 2);
  const auto total = net.traffic();
  EXPECT_EQ(l01.networkMessages, 2u * kPerSender);
  EXPECT_EQ(l02.networkMessages, 2u * kPerSender);
  EXPECT_EQ(total.networkMessages, l01.networkMessages + l02.networkMessages);
  EXPECT_EQ(total.networkBytes, l01.networkBytes + l02.networkBytes);
  EXPECT_EQ(total.networkFrames, l01.networkFrames + l02.networkFrames);
  // Every message is accounted batched or immediate once flushed.
  EXPECT_EQ(total.networkBatched + total.networkImmediate,
            total.networkMessages);
  // And every message is deliverable exactly once.
  int received = 0;
  while (net.tryRecv(1)) ++received;
  while (net.tryRecv(2)) ++received;
  EXPECT_EQ(received, 4 * kPerSender);
}

TEST(NetworkCounters, EachSimulatedRankCountsOnlyItsOwnLinks) {
  // The engine's simulated composition: one fabric, one port per rank and
  // a shaper around each. Each shaper reports only what its rank sent,
  // including its share of the fabric's modelled delays; the fabric itself
  // reports every link's.
  NetConfig cfg;
  cfg.delay = DelayModel::parse("fixed:200");
  InProcFabric fabric(2, cfg);
  InProcPort p0(fabric, 0), p1(fabric, 1);
  ShapedTransport s0(p0, cfg), s1(p1, cfg);
  for (std::int32_t i = 0; i < 3; ++i) {
    s0.send(Message{0, 1, tag::kUser, toBytes(i)});  // 4 bytes each
  }
  for (std::int64_t i = 0; i < 2; ++i) {
    s1.send(Message{1, 0, tag::kUser, toBytes(i)});  // 8 bytes each
  }

  const auto bucket = static_cast<std::size_t>(netLatencyBucketFor(200));
  const auto t0 = s0.traffic();
  const auto t1 = s1.traffic();
  EXPECT_EQ(t0.networkMessages, 3u);
  EXPECT_EQ(t0.networkBytes, 12u);
  EXPECT_EQ(t1.networkMessages, 2u);
  EXPECT_EQ(t1.networkBytes, 16u);
  EXPECT_EQ(t0.netLatencyHist[bucket], 3u);
  EXPECT_EQ(t1.netLatencyHist[bucket], 2u);
  EXPECT_EQ(fabric.traffic().netLatencyHist[bucket], 5u);
}

// ---- rank failure --------------------------------------------------------

TEST(NetworkFailure, DeclaredDeathReachesEachSurvivorOnceBehindEarlierSends) {
  // A simulated rank's death is one tag::kPeerDead message from it, carrying
  // the reason, on its link to every other rank: behind what it sent before
  // (here still in flight under a 2 ms modelled delay), never to the dead
  // rank itself, and neither counted as traffic nor given a delay.
  NetConfig cfg;
  cfg.delay = DelayModel::parse("fixed:2000");
  InProcFabric fabric(3, cfg);
  InProcPort p0(fabric, 0), p1(fabric, 1), p2(fabric, 2);
  ShapedTransport s0(p0, cfg), s1(p1, cfg), s2(p2, cfg);
  s1.send(Message{1, 0, tag::kUser, toBytes(std::int32_t{7})});
  fabric.declareDead(1, "boom");

  const auto expectDeath = [](std::optional<Message> m, int dst) {
    ASSERT_TRUE(m.has_value()) << "rank " << dst << " never heard";
    EXPECT_EQ(m->tag, tag::kPeerDead);
    EXPECT_EQ(m->src, 1);
    EXPECT_EQ(m->dst, dst);
    EXPECT_EQ(std::string(m->payload.begin(), m->payload.end()), "boom");
  };
  auto earlier = s0.recvWait(0, 500ms);
  ASSERT_TRUE(earlier.has_value());
  EXPECT_EQ(earlier->tag, tag::kUser);
  expectDeath(s0.recvWait(0, 500ms), 0);
  expectDeath(s2.recvWait(2, 500ms), 2);
  EXPECT_FALSE(s0.recvWait(0, 20ms).has_value());
  EXPECT_FALSE(s2.recvWait(2, 20ms).has_value());
  EXPECT_FALSE(s1.recvWait(1, 20ms).has_value());

  EXPECT_EQ(s0.traffic().networkMessages, 0u);
  EXPECT_EQ(s1.traffic().networkMessages, 1u);
  EXPECT_EQ(s2.traffic().networkMessages, 0u);
  std::uint64_t delays = 0;
  for (auto c : fabric.traffic().netLatencyHist) delays += c;
  EXPECT_EQ(delays, 1u);
}

// ---- engine-level determinism -------------------------------------------

namespace {

// The transport configurations the determinism sweep exercises: batching
// only, back-pressure only, every delay model, and a hostile combination.
std::vector<NetConfig> sweepConfigs() {
  std::vector<NetConfig> out;
  {
    NetConfig c;  // defaults: the unbatched, unbounded, zero-delay baseline
    out.push_back(c);
  }
  {
    NetConfig c;
    c.batchSize = 16;
    out.push_back(c);
  }
  {
    NetConfig c;
    c.queueCap = 1;
    out.push_back(c);
  }
  {
    NetConfig c;
    c.delay = DelayModel::parse("fixed:150");
    out.push_back(c);
  }
  {
    NetConfig c;
    c.delay = DelayModel::parse("uniform:0,400");
    out.push_back(c);
  }
  {
    NetConfig c;  // batch + tight cap + heavy-tailed delay all at once
    c.batchSize = 8;
    c.queueCap = 2;
    c.delay = DelayModel::parse("lognormal:4,0.8");
    out.push_back(c);
  }
  return out;
}

}  // namespace

TEST(NetworkEngine, EveryConfigCountsTheFullTreeOnAllSkeletons) {
  SynthSpace space{3, 6};
  const auto expect = completeTreeSize(3, 6);
  for (const auto& net : sweepConfigs()) {
    for (Skel skel : kAllSkels) {
      Params p;
      p.nLocalities = skel == Skel::Seq ? 1 : 2;
      p.workersPerLocality = 2;
      p.dcutoff = 3;
      p.backtrackBudget = 64;
      p.chunk = parseChunkPolicy("half");
      p.net = net;
      auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
          skel, p, space, SynthNode{});
      EXPECT_EQ(out.sum, expect)
          << skelName(skel) << " batch=" << net.batchSize
          << " cap=" << net.queueCap << " delay=" << net.delay.name();
    }
  }
}

TEST(NetworkEngine, EveryConfigFindsTheSameMaxClique) {
  auto g = apps::gnp(40, 0.6, 5);
  g.sortByDegreeDesc();
  const auto seq =
      runSkeleton<apps::mc::Gen, Optimisation,
                  BoundFunction<&apps::mc::upperBound>, PruneLevel>(
          Skel::Seq, Params{}, g, apps::mc::rootNode(g));
  for (const auto& net : sweepConfigs()) {
    for (Skel skel : {Skel::DepthBounded, Skel::StackStealing}) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 2;
      p.chunk = parseChunkPolicy("adaptive");
      p.net = net;
      auto out = runSkeleton<apps::mc::Gen, Optimisation,
                             BoundFunction<&apps::mc::upperBound>,
                             PruneLevel>(skel, p, g, apps::mc::rootNode(g));
      EXPECT_EQ(out.objective, seq.objective)
          << skelName(skel) << " batch=" << net.batchSize
          << " cap=" << net.queueCap << " delay=" << net.delay.name();
    }
  }
}

TEST(NetworkEngine, SaturatedLinksNeverDeadlockStealCycles) {
  // The hostile end of the sweep, cranked: 1-deep links, delayed delivery,
  // a deep spawn cutoff generating heavy steal traffic, three localities so
  // steal requests, replies and bound broadcasts contend for the same
  // capped links. Completion within the suite timeout IS the assertion;
  // the spill counter confirms back-pressure actually engaged.
  SynthSpace space{3, 7};
  const auto expect = completeTreeSize(3, 7);
  Params p;
  p.nLocalities = 3;
  p.workersPerLocality = 2;
  p.dcutoff = 5;
  p.chunk = parseChunkPolicy("one");  // max request/reply round-trips
  p.net.batchSize = 4;
  p.net.queueCap = 1;
  p.net.delay = DelayModel::parse("fixed:100");
  auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
      Skel::DepthBounded, p, space, SynthNode{});
  EXPECT_EQ(out.sum, expect);
  EXPECT_EQ(out.metrics.linkQueueHighWater, 1u);
  // Back-pressure must actually have engaged, or this test stops covering
  // the shed-to-spill path: with 1-deep links holding each message for
  // 100us, three localities' steal requests and replies overlap.
  EXPECT_GT(out.metrics.networkSpills, 0u);
}

TEST(NetworkEngine, OneLocalityRunCountsNoTraffic) {
  // A one-locality run crosses no link. Stopping its manager sends itself a
  // shutdown nudge, which is loopback: neither counted nor traced.
  SynthSpace space{3, 5};
  Params p;
  p.workersPerLocality = 2;
  auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
      Skel::DepthBounded, p, space, SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
  EXPECT_EQ(out.metrics.networkMessages, 0u);
  EXPECT_EQ(out.metrics.networkFrames, 0u);
}

TEST(NetworkEngine, MetricsExposeTransportBehaviour) {
  // Batching accounting flows through gather: frames never exceed logical
  // messages, and with a real batch size some messages share frames.
  SynthSpace space{3, 6};
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.net.batchSize = 16;
  auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
      Skel::DepthBounded, p, space, SynthNode{});
  EXPECT_LE(out.metrics.networkFrames, out.metrics.networkMessages);
  // Each rank flushes its residual buffers before its gather snapshot, so
  // the batching split is exact (TcpEngine.BatchingSplitIsExactInTheGather
  // checks the same over TCP).
  EXPECT_EQ(out.metrics.networkBatched + out.metrics.networkImmediate,
            out.metrics.networkMessages);
  EXPECT_GT(out.metrics.networkMessages, 0u);
}
