#pragma once

// Per-layer probes for the traced run: timed loops over one layer's public
// API, fed with the workload's own node and task types. Each probe runs
// inside a span and its metric is that span's duration over the operations
// it covered.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_count.hpp"
#include "core/skeletons/engine.hpp"
#include "report.hpp"
#include "runtime/locality.hpp"
#include "runtime/termination.hpp"
#include "runtime/transport/inproc.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"

namespace perf {

using namespace std::chrono_literals;

inline constexpr std::size_t kReplayNodes = 10000;
inline constexpr int kPasses = 5;  // each loop probe reports its median pass

template <typename Node>
using Task = yewpar::detail::EngineTask<Node>;

// A probe loop's result is stored here, where the optimiser must assume it
// is read, so the loop cannot be discarded.
inline volatile std::int64_t gSink = 0;

inline void keep(std::int64_t v) { gSink = v; }

using yewpar::median;

// The first `limit` nodes of a plain depth-first traversal in generator
// order, each with its depth: the inputs every probe below replays.
template <typename Gen>
std::vector<Task<typename Gen::Node>> replayDfs(
    const typename Gen::Space& space, const typename Gen::Node& root,
    std::size_t limit) {
  std::vector<Task<typename Gen::Node>> out;
  out.push_back({root, 0, 0});
  std::vector<Gen> stack;
  stack.emplace_back(space, root);
  while (!stack.empty() && out.size() < limit) {
    if (!stack.back().hasNext()) {
      stack.pop_back();
      continue;
    }
    auto child = stack.back().next();
    out.push_back({child, static_cast<std::int32_t>(stack.size()), 0});
    stack.emplace_back(space, std::move(child));
  }
  return out;
}

// apps layer: what a depth-first search pays the application per node it
// visits - one Gen construction (timed alone, per replayed node) plus one
// next() (the drain of every Gen minus construction, per child produced) -
// and heap allocations per replayed node over construction and drain. The
// two are timed apart because a few wide nodes (the UTS root has 200k
// children) would otherwise swamp the per-child average.
template <typename Gen>
void probeExpand(Spans& spans, Metrics& m,
                 const typename Gen::Space& space,
                 const std::vector<Task<typename Gen::Node>>& nodes) {
  const auto n = static_cast<double>(nodes.size());
  std::vector<double> expand;
  std::uint64_t allocs = 0;
  std::int64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    SpanScope c(spans, "probe apps.gen_construct", "probe");
    for (const auto& t : nodes) {
      Gen gen(space, t.node);
      sink += gen.hasNext() ? 1 : 0;
    }
    const auto constructNs = static_cast<double>(c.close());

    std::uint64_t children = 0;
    const std::uint64_t a0 = allocations();
    SpanScope d(spans, "probe apps.gen_drain", "probe");
    for (const auto& t : nodes) {
      Gen gen(space, t.node);
      while (gen.hasNext()) {
        sink += gen.next().getObj();
        ++children;
      }
    }
    const auto drainNs = static_cast<double>(d.close());
    allocs = allocations() - a0;
    const double nextNs =
        std::max(0.0, drainNs - constructNs) /
        static_cast<double>(std::max<std::uint64_t>(children, 1));
    expand.push_back(constructNs / n + nextNs);
  }
  m.add("apps.expand_ns_per_child", "ns", median(expand));
  m.add("apps.allocs_per_node", "count", static_cast<double>(allocs) / n);
  keep(sink);
}

// apps layer: the bound function alone, per node.
template <auto Bound, typename Space, typename Node>
void probeBound(Spans& spans, Metrics& m, const Space& space,
                const std::vector<Task<Node>>& nodes) {
  std::vector<double> nsPerNode;
  std::int64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    SpanScope s(spans, "probe apps.bound", "probe");
    for (const auto& t : nodes) sink += Bound(space, t.node);
    nsPerNode.push_back(static_cast<double>(s.close()) /
                        static_cast<double>(nodes.size()));
  }
  m.add("apps.bound_ns", "ns", median(nsPerNode));
  keep(sink);
}

// workpool layer: push+pop pairs and policy-sized steals on a DepthPool,
// then push+pop throughput with three threads sharing one pool.
template <typename Node>
void probeWorkpool(Spans& spans, Metrics& m,
                   const std::vector<Task<Node>>& tasks,
                   const yewpar::rt::ChunkPolicy& chunk) {
  using T = Task<Node>;
  std::vector<double> pushPop;
  std::vector<double> steal;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto pool = yewpar::rt::makeWorkpool<T>(yewpar::rt::PoolPolicy::Depth);
    std::vector<T> batch = tasks;
    {
      SpanScope s(spans, "probe workpool.push_pop", "probe");
      for (auto& t : batch) {
        const int d = t.depth;
        pool->push(std::move(t), d);
      }
      while (pool->pop()) {
      }
      pushPop.push_back(static_cast<double>(s.close()) /
                        static_cast<double>(tasks.size()));
    }
    batch = tasks;
    for (auto& t : batch) {
      const int d = t.depth;
      pool->push(std::move(t), d);
    }
    std::uint64_t calls = 0;
    SpanScope s(spans, "probe workpool.steal_chunk", "probe");
    do {
      ++calls;
    } while (!pool->stealChunk(chunk).empty());
    steal.push_back(static_cast<double>(s.close()) /
                    static_cast<double>(calls));
  }
  m.add("workpool.push_pop_ns", "ns", median(pushPop));
  m.add("workpool.steal_chunk_ns", "ns", median(steal));

  // Three threads (the benchmark's worker cap) each push their slice and
  // pop as many back, several rounds, on one shared pool.
  constexpr int kThreads = 3;
  constexpr int kRounds = 20;
  auto pool = yewpar::rt::makeWorkpool<T>(yewpar::rt::PoolPolicy::Depth);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> ops{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      std::vector<T> mine;
      for (std::size_t i = static_cast<std::size_t>(w); i < tasks.size();
           i += kThreads) {
        mine.push_back(tasks[i]);
      }
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t n = 0;
      for (int r = 0; r < kRounds; ++r) {
        for (const auto& t : mine) {
          pool->push(t, t.depth, w);
          ++n;
        }
        for (std::size_t i = 0; i < mine.size(); ++i) {
          if (pool->pop(w)) ++n;
        }
      }
      ops.fetch_add(n, std::memory_order_relaxed);
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads) {
    std::this_thread::yield();
  }
  SpanScope s(spans, "probe workpool.contended", "probe");
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double secs = static_cast<double>(s.close()) / 1e9;
  m.add("workpool.contended_mops", "Mop/s",
        static_cast<double>(ops.load()) / secs / 1e6);
}

// archive layer: one task through toBytes and back.
template <typename Node>
void probeArchive(Spans& spans, Metrics& m,
                  const std::vector<Task<Node>>& tasks) {
  using T = Task<Node>;
  std::vector<double> enc;
  std::vector<double> dec;
  double bytes = 0;
  std::int64_t sink = 0;
  for (int pass = 0; pass < kPasses; ++pass) {
    std::vector<std::vector<std::uint8_t>> wire;
    wire.reserve(tasks.size());
    {
      SpanScope s(spans, "probe archive.encode", "probe");
      for (const auto& t : tasks) wire.push_back(yewpar::toBytes(t));
      enc.push_back(static_cast<double>(s.close()) /
                    static_cast<double>(tasks.size()));
    }
    bytes = 0;
    for (const auto& w : wire) bytes += static_cast<double>(w.size());
    SpanScope s(spans, "probe archive.decode", "probe");
    for (auto& w : wire) sink += yewpar::fromBytes<T>(std::move(w)).depth;
    dec.push_back(static_cast<double>(s.close()) /
                  static_cast<double>(tasks.size()));
  }
  m.add("archive.encode_ns_per_task", "ns", median(enc));
  m.add("archive.decode_ns_per_task", "ns", median(dec));
  m.add("archive.bytes_per_task", "B",
        bytes / static_cast<double>(tasks.size()));
  keep(sink);
}

// transport layer: InProcTransport send -> recvWait on another thread, one
// message in flight at a time; median one-way latency in microseconds.
inline double oneWayMicros(std::size_t payloadBytes, int messages) {
  yewpar::rt::InProcTransport net(2);
  std::atomic<int> received{0};
  std::vector<double> latency;
  latency.reserve(static_cast<std::size_t>(messages));
  std::thread rx([&] {
    while (received.load(std::memory_order_relaxed) < messages) {
      auto msg = net.recvWait(1, 20ms);
      if (!msg) continue;
      std::uint64_t sent = 0;
      std::memcpy(&sent, msg->payload.data(), sizeof sent);
      latency.push_back(static_cast<double>(nowNanos() - sent) / 1e3);
      received.fetch_add(1, std::memory_order_release);
    }
  });
  const std::vector<std::uint8_t> payload(
      std::max(payloadBytes, sizeof(std::uint64_t)), 0);
  for (int i = 0; i < messages; ++i) {
    yewpar::rt::Message msg{0, 1, yewpar::rt::tag::kUser, payload};
    const std::uint64_t now = nowNanos();
    std::memcpy(msg.payload.data(), &now, sizeof now);
    net.send(std::move(msg));
    while (received.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
  }
  rx.join();
  return median(std::move(latency));
}

// steal protocol: a request/reply round trip between two Localities (each
// answered on its manager thread), the reply sized like a steal reply.
inline double stealRoundTripMicros(std::size_t replyBytes, int trips) {
  std::atomic<int> replies{0};
  const std::vector<std::uint8_t> reply(replyBytes, 0);
  yewpar::rt::InProcTransport net(2);
  yewpar::rt::Locality thief(net, 0);
  yewpar::rt::Locality victim(net, 1);
  constexpr int kRequest = yewpar::rt::tag::kUser;
  constexpr int kReply = yewpar::rt::tag::kUser + 1;
  victim.registerHandler(kRequest, [&](yewpar::rt::Message&& msg) {
    victim.send(msg.src, kReply, reply);
  });
  thief.registerHandler(kReply, [&](yewpar::rt::Message&&) {
    replies.fetch_add(1, std::memory_order_release);
  });
  thief.start();
  victim.start();
  std::vector<double> rtt;
  for (int i = 0; i < trips; ++i) {
    const std::uint64_t t0 = nowNanos();
    thief.send(1, kRequest, yewpar::toBytes(std::int64_t{i}));
    while (replies.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
    rtt.push_back(static_cast<double>(nowNanos() - t0) / 1e3);
  }
  thief.stop();
  victim.stop();
  return median(std::move(rtt));
}

// termination layer: two localities, one task; time from its
// taskCompleted() until both detectors report finished().
inline double terminationDetectMicros(int rounds) {
  std::vector<double> detect;
  for (int r = 0; r < rounds; ++r) {
    yewpar::rt::InProcTransport net(2);
    yewpar::rt::Locality l0(net, 0);
    yewpar::rt::Locality l1(net, 1);
    yewpar::rt::TerminationDetector t0(l0, 2);
    yewpar::rt::TerminationDetector t1(l1, 2);
    l0.start();
    l1.start();
    t0.taskCreated();
    t0.startLeader();
    const std::uint64_t done = nowNanos();
    t0.taskCompleted();
    while (!t0.finished() || !t1.finished()) std::this_thread::yield();
    detect.push_back(static_cast<double>(nowNanos() - done) / 1e3);
    t0.stop();
    l0.stop();
    l1.stop();
  }
  return median(std::move(detect));
}

}  // namespace perf
