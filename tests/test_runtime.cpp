// Unit tests for the runtime substrate: the channel, workpools, the message
// network, locality managers, and distributed termination detection.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "runtime/channel.hpp"
#include "runtime/locality.hpp"
#include "runtime/metrics.hpp"
#include "runtime/transport/inproc.hpp"
#include "runtime/steal_slot.hpp"
#include "runtime/termination.hpp"
#include "runtime/worker_team.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"

using namespace yewpar;
using namespace yewpar::rt;
using namespace std::chrono_literals;

TEST(Channel, PushPopFifo) {
  Channel<int> c;
  c.push(1);
  c.push(2);
  EXPECT_EQ(c.size(), 2u);
  EXPECT_EQ(c.tryPop().value(), 1);
  EXPECT_EQ(c.tryPop().value(), 2);
  EXPECT_FALSE(c.tryPop().has_value());
}

TEST(StealSlot, HeldUntilReleased) {
  StealSlot slot(1ms);
  EXPECT_FALSE(slot.inFlight());
  auto token = slot.tryAcquireAt(1000);
  ASSERT_TRUE(token.has_value());
  EXPECT_TRUE(slot.inFlight());
  // A live (non-expired) request blocks further acquires.
  EXPECT_FALSE(slot.tryAcquireAt(1001).has_value());
  slot.release(*token);
  EXPECT_FALSE(slot.inFlight());
  EXPECT_TRUE(slot.tryAcquireAt(1002).has_value());
}

TEST(StealSlot, ExactlyOneThiefWinsExpiredSlot) {
  // Regression: the pre-StealSlot engine logic did a plain load/store on the
  // send timestamp, so any number of concurrent thieves could pass the
  // expiry check and each claim the single in-flight slot. The CAS on the
  // timestamp must let exactly one win.
  constexpr std::int64_t kTimeoutNs = 1000;
  constexpr int kThieves = 8;
  for (int iter = 0; iter < 200; ++iter) {
    StealSlot slot{std::chrono::nanoseconds(kTimeoutNs)};
    // Request that will look lost.
    ASSERT_TRUE(slot.tryAcquireAt(0).has_value());
    std::atomic<int> wins{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> thieves;
    thieves.reserve(kThieves);
    for (int t = 0; t < kThieves; ++t) {
      thieves.emplace_back([&] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (slot.tryAcquireAt(kTimeoutNs + 1).has_value()) {
          wins.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& th : thieves) th.join();
    ASSERT_EQ(wins.load(), 1);
  }
}

TEST(StealSlot, StaleReplyDoesNotFreeRenewedRequest) {
  // Regression: after a thief took over an expired slot, the superseded
  // request's late reply used to store inFlight=false, freeing the slot
  // while the renewed request was still outstanding. Replies now echo the
  // request token, so a stale reply misses.
  StealSlot slot{std::chrono::nanoseconds(1000)};
  auto original = slot.tryAcquireAt(0);
  ASSERT_TRUE(original.has_value());
  auto renewed = slot.tryAcquireAt(2000);  // expired; renewed by a new thief
  ASSERT_TRUE(renewed.has_value());
  slot.release(*original);  // late reply to the original
  // The renewed request is still outstanding: the slot must stay held.
  EXPECT_TRUE(slot.inFlight());
  EXPECT_FALSE(slot.tryAcquireAt(2500).has_value());
  slot.release(*renewed);  // the renewed request's own reply
  EXPECT_FALSE(slot.inFlight());
  EXPECT_TRUE(slot.tryAcquireAt(2600).has_value());
}

TEST(StealSlot, UnansweredRequestRecoversAfterExpiry) {
  // A request whose reply never arrives must not wedge the slot: the next
  // thief takes over after the timeout, and once ITS reply lands the slot
  // is fully free again (no expiry-gated throttling left behind).
  StealSlot slot{std::chrono::nanoseconds(1000)};
  auto lost = slot.tryAcquireAt(0);
  ASSERT_TRUE(lost.has_value());  // this request is never answered
  auto renewed = slot.tryAcquireAt(5000);
  ASSERT_TRUE(renewed.has_value());
  slot.release(*renewed);
  EXPECT_FALSE(slot.inFlight());
  // Fresh acquire works immediately, with no leftover bookkeeping to
  // swallow its reply.
  auto next = slot.tryAcquireAt(5001);
  ASSERT_TRUE(next.has_value());
  slot.release(*next);
  EXPECT_FALSE(slot.inFlight());
}

TEST(DepthPool, OrderPreserving) {
  DepthPool<int> pool;
  // Push out of depth order; FIFO within a depth, shallowest depth first.
  pool.push(30, 3);
  pool.push(10, 1);
  pool.push(11, 1);
  pool.push(20, 2);
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.pop().value(), 10);
  EXPECT_EQ(pool.pop().value(), 11);
  EXPECT_EQ(pool.pop().value(), 20);
  EXPECT_EQ(pool.steal().value(), 30);
  EXPECT_FALSE(pool.pop().has_value());
}

TEST(DequePool, LifoLocalFifoSteal) {
  DequePool<int> pool(/*lifoLocal=*/true);
  pool.push(1, 0);
  pool.push(2, 0);
  pool.push(3, 0);
  EXPECT_EQ(pool.pop().value(), 3);    // newest first locally
  EXPECT_EQ(pool.steal().value(), 1);  // oldest for thieves
  EXPECT_EQ(pool.pop().value(), 2);
}

TEST(DequePool, FifoLocal) {
  DequePool<int> pool(/*lifoLocal=*/false);
  pool.push(1, 0);
  pool.push(2, 0);
  EXPECT_EQ(pool.pop().value(), 1);
}

TEST(Workpool, StealManyOnEmptyPoolReturnsNothing) {
  DepthPool<int> dp;
  EXPECT_TRUE(dp.stealMany(4).empty());
  EXPECT_FALSE(dp.steal().has_value());
  DequePool<int> qp(/*lifoLocal=*/true);
  EXPECT_TRUE(qp.stealMany(4).empty());
  EXPECT_TRUE(qp.stealMany(0).empty());
}

TEST(Workpool, StealManyLargerThanPoolDrainsIt) {
  DequePool<int> pool(/*lifoLocal=*/true);
  pool.push(1, 0);
  pool.push(2, 0);
  pool.push(3, 0);
  auto chunk = pool.stealMany(99);
  EXPECT_EQ(chunk, (std::vector<int>{1, 2, 3}));  // oldest first
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.stealMany(1).empty());
}

TEST(DepthPool, StealTakesBackOfShallowestBucket) {
  // Steal is not a pop alias: local pops get the heuristic-best (front) of
  // the shallowest bucket, thieves get the back of that same bucket.
  DepthPool<int> pool;
  pool.push(10, 1);
  pool.push(11, 1);
  pool.push(12, 1);
  pool.push(20, 2);
  EXPECT_EQ(pool.steal().value(), 12);
  EXPECT_EQ(pool.pop().value(), 10);
  EXPECT_EQ(pool.steal().value(), 11);
  EXPECT_EQ(pool.steal().value(), 20);
  EXPECT_FALSE(pool.steal().has_value());
}

TEST(DepthPool, StealManyKeepsChunkOrderAndSpillsDeeper) {
  DepthPool<int> pool;
  pool.push(10, 1);
  pool.push(11, 1);
  pool.push(12, 1);
  pool.push(20, 2);
  pool.push(21, 2);
  // k above the shallowest bucket's size: the whole depth-1 bucket in FIFO
  // order, then the back of depth 2.
  auto chunk = pool.stealMany(4);
  EXPECT_EQ(chunk, (std::vector<int>{10, 11, 12, 21}));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.pop().value(), 20);
}

TEST(Workpool, StealChunkSizesFromLiveOccupancy) {
  // Half/Adaptive/All size the chunk and take the tasks under one lock, so
  // the count always reflects the occupancy they steal from.
  DepthPool<int> pool;
  for (int i = 0; i < 10; ++i) pool.push(i, 0);
  EXPECT_EQ(pool.stealChunk(parseChunkPolicy("half")).size(), 5u);
  EXPECT_EQ(pool.stealChunk(parseChunkPolicy("all")).size(), 5u);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(pool.stealChunk(parseChunkPolicy("adaptive")).empty());
  DequePool<int> qp(/*lifoLocal=*/true);
  qp.push(1, 0);
  qp.push(2, 0);
  qp.push(3, 0);
  EXPECT_EQ(qp.stealChunk(parseChunkPolicy("fixed:2")).size(), 2u);
  EXPECT_EQ(qp.size(), 1u);
}

namespace {
struct SeqTask {
  std::uint64_t seq = 0;
};
}  // namespace

TEST(OneShardPool, StealManyHandsOutAscendingSeq) {
  ShardedPriorityPool<SeqTask> pool(/*shards=*/1);
  for (std::uint64_t s : {5u, 1u, 4u, 2u, 3u}) {
    pool.push(SeqTask{s}, 0);
  }
  // A chunked hand-out preserves the global sequence order: the k lowest
  // sequence numbers, ascending.
  auto chunk = pool.stealMany(3);
  ASSERT_EQ(chunk.size(), 3u);
  EXPECT_EQ(chunk[0].seq, 1u);
  EXPECT_EQ(chunk[1].seq, 2u);
  EXPECT_EQ(chunk[2].seq, 3u);
  // Local pops continue exactly where the chunk left off.
  EXPECT_EQ(pool.pop().value().seq, 4u);
  // k larger than the pool returns just the remainder.
  auto rest = pool.stealMany(10);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].seq, 5u);
  EXPECT_TRUE(pool.stealMany(1).empty());
}

TEST(OneShardPool, MixedWorkersGetStrictlyAscendingSeq) {
  // One shard is one global heap: whichever worker pushed a task (0..3, or
  // -1 unattributed) and whichever worker pops, hand-out follows the
  // global sequence order - the --ordered-shards 1 contract.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/1);
  const std::vector<std::uint64_t> seqs = {9, 3, 14, 0, 7, 11,
                                           1, 5, 12, 2, 8,  6};
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    pool.push(SeqTask{seqs[i]}, 0, static_cast<int>(i % 5) - 1);
  }
  std::uint64_t last = 0;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    auto t = pool.pop(static_cast<int>(i % 5) - 1);
    ASSERT_TRUE(t.has_value());
    if (i > 0) {
      EXPECT_GT(t->seq, last) << "pop " << i;
    }
    last = t->seq;
  }
  EXPECT_EQ(last, 14u);
  EXPECT_FALSE(pool.pop(0).has_value());
}

TEST(ShardedPriorityPool, WindowGatesOwnShardPop) {
  // Worker 0's shard holds seq 100, worker 1's holds seq 0. With a window
  // of 10, worker 0 may not run 100 while 0 is outstanding: its pop falls
  // through to the global minimum. Once 0 is gone, 100 becomes the low-water
  // mark itself and is eligible.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/2, /*window=*/10);
  pool.push(SeqTask{100}, 0, /*worker=*/0);
  pool.push(SeqTask{0}, 0, /*worker=*/1);
  EXPECT_EQ(pool.lowWaterMark(), 0u);
  EXPECT_EQ(pool.pop(0).value().seq, 0u);
  EXPECT_EQ(pool.lowWaterMark(), 100u);
  EXPECT_EQ(pool.pop(0).value().seq, 100u);
  EXPECT_FALSE(pool.pop(0).has_value());
  EXPECT_EQ(pool.lowWaterMark(), kNoSeqWindow);
}

TEST(ShardedPriorityPool, InfiniteWindowPopsOwnShardFirst) {
  // Window off: the owner's shard top is always eligible, so worker 0 runs
  // its own seq 100 even though seq 0 sits in another shard - exactly the
  // run-ahead the window exists to bound.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/2, kNoSeqWindow);
  pool.push(SeqTask{100}, 0, /*worker=*/0);
  pool.push(SeqTask{0}, 0, /*worker=*/1);
  EXPECT_EQ(pool.pop(0).value().seq, 100u);
  // An empty own shard still finds work elsewhere.
  EXPECT_EQ(pool.pop(0).value().seq, 0u);
}

TEST(ShardedPriorityPool, WindowZeroForcesGlobalOrder) {
  // Window 0: every pop takes the global minimum regardless of the popping
  // worker, i.e. near-sequential order - and a pop never fails on a
  // non-empty pool (the window shapes WHICH task runs, not whether).
  ShardedPriorityPool<SeqTask> pool(/*shards=*/4, /*window=*/0);
  for (std::uint64_t s : {7u, 2u, 9u, 0u, 5u, 3u}) {
    pool.push(SeqTask{s}, 0, static_cast<int>(s % 4));
  }
  std::uint64_t expect[] = {0, 2, 3, 5, 7, 9};
  for (int i = 0; i < 6; ++i) {
    auto t = pool.pop(/*worker=*/i % 4);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->seq, expect[i]);
  }
  EXPECT_FALSE(pool.pop(0).has_value());
}

TEST(ShardedPriorityPool, UnattributedPushesRoundRobinAcrossShards) {
  // Worker < 0 pushes (root task, steal replies, the Ordered prefix
  // expansion) spread round-robin: with 4 shards and 4 pushes, shard i
  // holds seq i, so under an infinite window each worker's own-shard pop
  // returns its own index.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/4, kNoSeqWindow);
  for (std::uint64_t s = 0; s < 4; ++s) pool.push(SeqTask{s}, 0);
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(pool.pop(w).value().seq, static_cast<std::uint64_t>(w));
  }
}

TEST(ShardedPriorityPool, StealManyHandsOutAscendingSeqAcrossShards) {
  ShardedPriorityPool<SeqTask> pool(/*shards=*/3, /*window=*/4);
  for (std::uint64_t s : {5u, 1u, 4u, 2u, 3u, 0u}) {
    pool.push(SeqTask{s}, 0, static_cast<int>(s % 3));
  }
  auto chunk = pool.stealMany(4);
  ASSERT_EQ(chunk.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(chunk[i].seq, i);
  // Steals and pops agree on where the order left off.
  EXPECT_EQ(pool.pop().value().seq, 4u);
  auto rest = pool.stealMany(10);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].seq, 5u);
  EXPECT_TRUE(pool.stealMany(1).empty());
}

TEST(ShardedPriorityPool, StealChunkSizesFromTotalOccupancy) {
  // Half sizes from the pool-wide count, not one shard's: 8 tasks across 2
  // shards hand out a 4-task ascending chunk.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/2, kNoSeqWindow);
  for (std::uint64_t s = 0; s < 8; ++s) {
    pool.push(SeqTask{s}, 0, static_cast<int>(s % 2));
  }
  auto chunk = pool.stealChunk(ChunkPolicy{ChunkKind::Half, 0});
  ASSERT_EQ(chunk.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(chunk[i].seq, i);
  EXPECT_EQ(pool.size(), 4u);
}

TEST(Workpool, MakeWorkpoolRejectsPriorityPoliciesWithoutSeq) {
  // Pinned: the priority policy on a task type without .seq is a
  // configuration error, not a silent DepthPool substitution (which voided
  // the ordering guarantee the caller asked for).
  EXPECT_THROW(makeWorkpool<int>(PoolPolicy::PrioritySharded),
               std::invalid_argument);
  // Seq-carrying tasks get a real priority pool via the same factory.
  auto sharded = makeWorkpool<SeqTask>(PoolPolicy::PrioritySharded,
                                       PoolConfig{4, 16, 0});
  sharded->push(SeqTask{3}, 0, 2);
  sharded->push(SeqTask{1}, 0, 3);
  EXPECT_EQ(sharded->pop(0).value().seq, 1u);
}

TEST(ShardedPriorityPool, ConcurrentPushersAndStealersLoseNothing) {
  // N attributed pushers + 1 unattributed (steal-reply style) pusher race
  // M chunked stealers and a local popper (the CI TSan lane runs this
  // suite). Every task is handed out exactly once, and every stolen chunk
  // arrives ascending in seq.
  ShardedPriorityPool<SeqTask> pool(/*shards=*/4, /*window=*/64);
  constexpr int kPushers = 3;  // workers 0..2 plus the unattributed pusher
  constexpr std::uint64_t kPerPusher = 3000;
  std::atomic<std::uint64_t> taken{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> chunksAscending{true};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPushers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerPusher; ++i) {
        // Disjoint seq ranges per pusher; values do not matter, uniqueness
        // and the per-chunk ascending check do.
        pool.push(SeqTask{static_cast<std::uint64_t>(p) * kPerPusher + i}, 0,
                  p);
      }
    });
  }
  threads.emplace_back([&] {
    for (std::uint64_t i = 0; i < kPerPusher; ++i) {
      pool.push(SeqTask{3 * kPerPusher + i}, 0);  // worker -1: round-robin
    }
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto chunk = pool.stealMany(7);
        for (std::size_t i = 1; i < chunk.size(); ++i) {
          if (chunk[i - 1].seq >= chunk[i].seq) chunksAscending.store(false);
        }
        if (!chunk.empty()) taken.fetch_add(chunk.size());
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      if (pool.pop(/*worker=*/0)) taken.fetch_add(1);
    }
  });
  constexpr std::uint64_t kTotal = (kPushers + 1) * kPerPusher;
  for (int p = 0; p < kPushers + 1; ++p) threads[static_cast<std::size_t>(p)].join();
  while (taken.load() + pool.size() < kTotal) std::this_thread::yield();
  stop.store(true);
  for (std::size_t t = kPushers + 1; t < threads.size(); ++t) {
    threads[t].join();
  }
  while (pool.pop()) taken.fetch_add(1);
  EXPECT_EQ(taken.load(), kTotal);
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_TRUE(chunksAscending.load());
  // Exhaustion: every hand-out path agrees the pool is dry.
  EXPECT_FALSE(pool.pop(0).has_value());
  EXPECT_FALSE(pool.pop().has_value());
  EXPECT_TRUE(pool.stealMany(5).empty());
  EXPECT_EQ(pool.lowWaterMark(), kNoSeqWindow);
}

TEST(DepthPool, ConcurrentChunkedStealersLoseNothing) {
  // Chunked-steal stress (the CI TSan lane runs this suite): producers push
  // while two thieves stealMany(7) and one local worker pops; every task
  // must be handed out exactly once.
  DepthPool<int> pool;
  constexpr int kPerProducer = 4000;
  std::atomic<int> taken{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.push(p * kPerProducer + i, i % 5);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto chunk = pool.stealMany(7);
        if (!chunk.empty()) {
          taken.fetch_add(static_cast<int>(chunk.size()));
        }
      }
    });
  }
  threads.emplace_back([&] {
    while (!stop.load()) {
      if (pool.pop()) taken.fetch_add(1);
    }
  });
  threads[0].join();
  threads[1].join();
  while (taken.load() + static_cast<int>(pool.size()) < 2 * kPerProducer) {
    std::this_thread::yield();
  }
  stop.store(true);
  for (std::size_t t = 2; t < threads.size(); ++t) threads[t].join();
  while (pool.pop()) taken.fetch_add(1);
  EXPECT_EQ(taken.load(), 2 * kPerProducer);
}

TEST(Workpool, PopWaitWakesOnPush) {
  DepthPool<int> pool;
  std::thread producer([&] {
    std::this_thread::sleep_for(2ms);
    pool.push(5, 0);
  });
  auto got = pool.popWait(500ms);
  producer.join();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 5);
}

TEST(Network, DeliversPointToPoint) {
  InProcTransport net(3);
  net.send(Message{0, 2, 42, toBytes(std::int32_t{7})});
  auto m = net.recvWait(2, 100ms);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->src, 0);
  EXPECT_EQ(m->tag, 42);
  EXPECT_EQ(fromBytes<std::int32_t>(std::move(m->payload)), 7);
  EXPECT_FALSE(net.tryRecv(2).has_value());
  EXPECT_FALSE(net.tryRecv(0).has_value());
}

TEST(Network, FifoPerDestination) {
  InProcTransport net(2);
  // kUser offsets: raw low integers would collide with the transport's
  // reserved link tags (tag::kBatchedFrame / tag::kHeartbeat).
  for (int i = 0; i < 10; ++i) {
    net.send(Message{0, 1, tag::kUser + i, {}});
  }
  for (int i = 0; i < 10; ++i) {
    auto m = net.recvWait(1, 100ms);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, tag::kUser + i);
  }
}

TEST(Network, BroadcastSkipsSender) {
  InProcTransport net(4);
  net.broadcast(1, 9, {});
  EXPECT_FALSE(net.tryRecv(1).has_value());
  for (int loc : {0, 2, 3}) {
    auto m = net.recvWait(loc, 100ms);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->tag, 9);
  }
  EXPECT_EQ(net.traffic().networkMessages, 3u);
}

TEST(Network, DelayHoldsDelivery) {
  NetConfig cfg;
  cfg.delay = DelayModel::parse("fixed:20000");  // 20ms
  InProcTransport net(2, cfg);
  net.send(Message{0, 1, 1, {}});
  EXPECT_FALSE(net.tryRecv(1).has_value());  // still in flight
  auto m = net.recvWait(1, 500ms);
  ASSERT_TRUE(m.has_value());
}

TEST(Locality, DispatchesToHandlers) {
  InProcTransport net(2);
  Locality a(net, 0), b(net, 1);
  std::atomic<int> got{0};
  b.registerHandler(100, [&](Message&& m) {
    got.store(fromBytes<std::int32_t>(std::move(m.payload)));
  });
  b.start();
  a.send(1, 100, toBytes(std::int32_t{55}));
  for (int i = 0; i < 1000 && got.load() == 0; ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(got.load(), 55);
  b.stop();
}

TEST(Termination, SingleLocalityQuiesces) {
  InProcTransport net(1);
  Locality loc(net, 0);
  TerminationDetector term(loc, 1);
  loc.start();
  term.taskCreated();
  term.startLeader();
  EXPECT_FALSE(term.finished());
  term.taskCompleted();
  for (int i = 0; i < 2000 && !term.finished(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(term.finished());
  term.stop();
  loc.stop();
}

TEST(Termination, WaitsForOutstandingTasks) {
  InProcTransport net(2);
  Locality l0(net, 0), l1(net, 1);
  TerminationDetector t0(l0, 2), t1(l1, 2);
  l0.start();
  l1.start();
  t0.taskCreated();  // root
  t0.startLeader();
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(t0.finished());
  EXPECT_FALSE(t1.finished());
  // Simulate the task migrating: created at 0, completed at 1.
  t1.taskCreated();
  t1.taskCompleted();
  t1.taskCompleted();  // completes the root too (sums are global)
  for (int i = 0; i < 2000 && !(t0.finished() && t1.finished()); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(t0.finished());
  EXPECT_TRUE(t1.finished());
  t0.stop();
  l0.stop();
  l1.stop();
}

TEST(Termination, BusyLeaderSendsNothing) {
  // Rounds open only while the leader's idle test holds: a busy rank 0
  // polls nobody however long it stays busy, even with balanced counters,
  // and stamps itself live instead.
  InProcTransport net(2);
  Locality l0(net, 0), l1(net, 1);
  TerminationDetector t0(l0, 2), t1(l1, 2);
  l0.start();
  l1.start();
  std::atomic<bool> idle{false};
  t0.taskCreated();
  t0.startLeader([&idle] { return idle.load(); });
  t0.taskCompleted();
  std::this_thread::sleep_for(20ms);
  EXPECT_EQ(net.traffic().networkMessages, 0u);
  EXPECT_FALSE(t0.finished());
  EXPECT_NE(t0.lastProbeNanos(), 0u);
  idle.store(true);
  for (int i = 0; i < 2000 && !(t0.finished() && t1.finished()); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(t0.finished());
  EXPECT_TRUE(t1.finished());
  EXPECT_GT(net.traffic().networkMessages, 0u);
  EXPECT_EQ(t1.lastProbeNanos(), 0u) << "only the leader stamps";
  t0.stop();
  l0.stop();
  l1.stop();
}

TEST(Termination, ManyTasksAcrossThreads) {
  InProcTransport net(1);
  Locality loc(net, 0);
  TerminationDetector term(loc, 1);
  loc.start();
  term.taskCreated();  // root
  term.startLeader();
  constexpr int kTasks = 2000;
  {
    WorkerTeam team(4, [&](int) {
      for (int i = 0; i < kTasks / 4; ++i) {
        term.taskCreated();
        term.taskCompleted();
      }
    });
  }
  term.taskCompleted();  // root done
  for (int i = 0; i < 2000 && !term.finished(); ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(term.finished());
  EXPECT_EQ(term.createdLocal(), static_cast<std::uint64_t>(kTasks) + 1);
  term.stop();
  loc.stop();
}

TEST(WorkerTeam, RunsAllWorkers) {
  std::atomic<int> sum{0};
  {
    WorkerTeam team(8, [&](int w) { sum.fetch_add(w + 1); });
  }
  EXPECT_EQ(sum.load(), 36);
}

TEST(DepthPool, ConcurrentPushPopLosesNothing) {
  DepthPool<int> pool;
  constexpr int kPerProducer = 5000;
  std::atomic<int> consumed{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        pool.push(p * kPerProducer + i, i % 7);
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        if (pool.pop()) consumed.fetch_add(1);
      }
    });
  }
  threads[0].join();
  threads[1].join();
  while (consumed.load() + static_cast<int>(pool.size()) <
         2 * kPerProducer) {
    std::this_thread::yield();
  }
  stop.store(true);
  threads[2].join();
  threads[3].join();
  while (pool.pop()) consumed.fetch_add(1);
  EXPECT_EQ(consumed.load(), 2 * kPerProducer);
}

TEST(Network, ConcurrentSendersPreserveCounts) {
  InProcTransport net(2);
  constexpr int kPerSender = 2000;
  std::vector<std::thread> senders;
  for (int s = 0; s < 3; ++s) {
    senders.emplace_back([&, s] {
      for (int i = 0; i < kPerSender; ++i) {
        net.send(Message{0, 1, s, {}});
      }
    });
  }
  for (auto& t : senders) t.join();
  int received = 0;
  int perTag[3] = {0, 0, 0};
  int lastSeen = -1;
  (void)lastSeen;
  while (auto m = net.tryRecv(1)) {
    ++received;
    perTag[m->tag] += 1;
  }
  EXPECT_EQ(received, 3 * kPerSender);
  for (int s = 0; s < 3; ++s) EXPECT_EQ(perTag[s], kPerSender);
}

TEST(Network, PerLinkCountersMatchFabricTotals) {
  // Regression: per-destination tallies updated outside the link lock raced
  // the batch flush path; counters are now per-link atomics and the fabric
  // totals are their sum (the full concurrency stress lives in
  // test_network.cpp).
  InProcTransport net(3);
  net.send(Message{0, 1, 1, toBytes(std::int32_t{7})});
  net.send(Message{0, 2, 2, toBytes(std::int64_t{8})});
  net.send(Message{1, 2, 3, {}});
  std::uint64_t msgs = 0, bytes = 0;
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      const auto s = net.linkStats(src, dst);
      msgs += s.networkMessages;
      bytes += s.networkBytes;
    }
  }
  EXPECT_EQ(msgs, net.traffic().networkMessages);
  EXPECT_EQ(bytes, net.traffic().networkBytes);
  EXPECT_EQ(net.linkStats(0, 1).networkMessages, 1u);
  EXPECT_EQ(net.linkStats(1, 2).networkBytes, 0u);
  EXPECT_EQ(net.linkStats(2, 0).networkMessages, 0u);
}

TEST(Termination, NoFalsePositiveWhileTasksFlow) {
  // Continuously create/complete tasks with a deliberate lag; the detector
  // must never fire while any task is outstanding.
  InProcTransport net(1);
  Locality loc(net, 0);
  TerminationDetector term(loc, 1);
  loc.start();
  term.taskCreated();
  term.startLeader();
  for (int i = 0; i < 200; ++i) {
    term.taskCreated();
    EXPECT_FALSE(term.finished());
    std::this_thread::sleep_for(std::chrono::microseconds(50));
    term.taskCompleted();
  }
  term.taskCompleted();  // root
  for (int i = 0; i < 2000 && !term.finished(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(term.finished());
  term.stop();
  loc.stop();
}

TEST(Channel, MpmcStressLosesNothing) {
  // Many producers and many polling consumers on one channel (the CI TSan
  // lane runs this suite): every pushed value must be popped exactly once,
  // whether the consumer found the queue empty or raced the push.
  Channel<int> chan;
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 3000;
  constexpr int kTotal = kProducers * kPerProducer;
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        chan.push(p * kPerProducer + i);
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kTotal) {
        if (auto v = chan.tryPop()) {
          consumed.fetch_add(1);
          sum.fetch_add(*v);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<long long>(kTotal) * (kTotal - 1) / 2);
  EXPECT_FALSE(chan.tryPop().has_value());
}

TEST(Metrics, ContendedCountersGatherExactly) {
  // Per-locality Metrics hammered from several threads, then gathered the
  // way the engine does it: snapshot each instance and fold the snapshots
  // with operator+=. Relaxed atomics must still sum exactly once the
  // counting threads have joined.
  constexpr int kLocalities = 3;
  constexpr int kThreadsPerLocality = 4;
  constexpr int kBumps = 10000;
  Metrics metrics[kLocalities];
  std::vector<std::thread> threads;
  for (int l = 0; l < kLocalities; ++l) {
    for (int t = 0; t < kThreadsPerLocality; ++t) {
      threads.emplace_back([&, l] {
        for (int i = 0; i < kBumps; ++i) {
          metrics[l].nodesProcessed.fetch_add(1, std::memory_order_relaxed);
          metrics[l].backtracks.fetch_add(1, std::memory_order_relaxed);
          if (i % 2 == 0) {
            metrics[l].localSteals.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  MetricsSnapshot total;
  for (const auto& m : metrics) total += m.snapshot();
  constexpr std::uint64_t kExpected =
      static_cast<std::uint64_t>(kLocalities) * kThreadsPerLocality * kBumps;
  EXPECT_EQ(total.nodesProcessed, kExpected);
  EXPECT_EQ(total.backtracks, kExpected);
  EXPECT_EQ(total.localSteals, kExpected / 2);
  EXPECT_EQ(total.tasksStolen(), kExpected / 2);
}

TEST(Workpool, PushWakeupIsNeverMissed) {
  // Regression: notifyWaiters() used to notify without ever holding
  // waitMtx_, so a notify landing between a consumer's empty pop() and its
  // cv sleep was lost and the consumer idled for its whole popWait timeout.
  // Each round would then take the full 2s instead of ~1ms; the elapsed
  // bound fails loudly on any reintroduction.
  DepthPool<int> pool;
  constexpr int kRounds = 50;
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < kRounds; ++round) {
    std::thread producer([&] {
      std::this_thread::sleep_for(500us);
      pool.push(round, 0);
    });
    auto got = pool.popWait(2s);
    producer.join();
    ASSERT_TRUE(got.has_value()) << "round " << round;
    EXPECT_EQ(*got, round);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2) * kRounds / 4)
      << "popWait consumers are sleeping through pushes";
}
