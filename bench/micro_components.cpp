// Component micro-benchmarks (google-benchmark): the low-level costs that
// Section 5.3 attributes the skeleton overheads to - node copies in the
// Lazy Node Generator, the greedy colour bound, workpool and channel
// operations, and task serialization - plus the trace-record hot path and
// its overhead gate: main() exits non-zero if the DISABLED per-event cost
// regresses above a few ns, enforcing the contract in
// docs/ARCHITECTURE.md "Observability".

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "runtime/channel.hpp"
#include "runtime/profile.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport/wire.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"

using namespace yewpar;
using namespace yewpar::apps;

namespace {

const Graph& benchGraph() {
  static Graph g = [] {
    Graph gg = gnp(128, 0.6, 77);
    gg.sortByDegreeDesc();
    return gg;
  }();
  return g;
}

void BM_GreedyColour(benchmark::State& state) {
  const auto& g = benchGraph();
  DynBitset p(g.size());
  p.setAll();
  mc::ColourOrder order;
  for (auto _ : state) {
    mc::greedyColour(g, p, order);
    benchmark::DoNotOptimize(order.colours());
  }
}
BENCHMARK(BM_GreedyColour);

void BM_NodeGeneratorExpand(benchmark::State& state) {
  // Cost of one generator construction + full child materialisation: the
  // copy overhead the paper accepts for generality (Section 5.3). On this
  // 128-vertex graph the colour order and every bitset are inline, so the
  // loop makes no heap allocation.
  const auto& g = benchGraph();
  auto root = mc::rootNode(g);
  for (auto _ : state) {
    mc::Gen gen(g, root);
    while (gen.hasNext()) {
      auto child = gen.next();
      benchmark::DoNotOptimize(child.size);
    }
  }
}
BENCHMARK(BM_NodeGeneratorExpand);

void BM_NodeSerializeRoundTrip(benchmark::State& state) {
  const auto& g = benchGraph();
  auto root = mc::rootNode(g);
  mc::Gen gen(g, root);
  auto node = gen.next();
  for (auto _ : state) {
    auto bytes = toBytes(node);
    auto copy = fromBytes<mc::Node>(std::move(bytes));
    benchmark::DoNotOptimize(copy.size);
  }
}
BENCHMARK(BM_NodeSerializeRoundTrip);

void BM_DepthPoolPushPop(benchmark::State& state) {
  rt::DepthPool<int> pool;
  int depth = 0;
  for (auto _ : state) {
    pool.push(1, depth % 8);
    ++depth;
    benchmark::DoNotOptimize(pool.pop());
  }
}
BENCHMARK(BM_DepthPoolPushPop);

void BM_DequePoolPushPop(benchmark::State& state) {
  rt::DequePool<int> pool(true);
  for (auto _ : state) {
    pool.push(1, 0);
    benchmark::DoNotOptimize(pool.pop());
  }
}
BENCHMARK(BM_DequePoolPushPop);

void BM_BitsetIntersect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  DynBitset a(n), b(n);
  for (std::size_t i = 0; i < n; i += 3) a.set(i);
  for (std::size_t i = 0; i < n; i += 2) b.set(i);
  for (auto _ : state) {
    DynBitset c = a;
    c &= b;
    benchmark::DoNotOptimize(c.count());
  }
}
BENCHMARK(BM_BitsetIntersect)->Arg(128)->Arg(1024)->Arg(8192);

void BM_WireFrameEncodeDecode(benchmark::State& state) {
  // Per-message framing cost on the TCP transport: header encode + decode
  // around an archive payload of the given size (the payload bytes move by
  // pointer on the real path, so the header is the per-frame CPU tax).
  std::vector<std::uint8_t> payload(static_cast<std::size_t>(state.range(0)),
                                    0x5A);
  for (auto _ : state) {
    rt::wire::FrameHeader h;
    h.payloadLen = static_cast<std::uint32_t>(payload.size());
    h.tag = static_cast<std::uint32_t>(rt::tag::kStealReply);
    auto bytes = h.encode();
    auto back = rt::wire::FrameHeader::decode(bytes.data());
    benchmark::DoNotOptimize(back.payloadLen);
  }
}
BENCHMARK(BM_WireFrameEncodeDecode)->Arg(64)->Arg(4096);

void BM_HardenedArchiveParse(benchmark::State& state) {
  // Bounds-checked deserialization of a steal-reply-sized task chunk: the
  // receive-path cost added by hardening IArchive against hostile frames.
  const auto& g = benchGraph();
  auto root = mc::rootNode(g);
  mc::Gen gen(g, root);
  std::vector<mc::Node> chunk;
  for (int i = 0; i < 8 && gen.hasNext(); ++i) chunk.push_back(gen.next());
  const auto bytes = toBytes(chunk);
  for (auto _ : state) {
    auto back = fromBytes<std::vector<mc::Node>>(bytes);
    benchmark::DoNotOptimize(back.data());
  }
}
BENCHMARK(BM_HardenedArchiveParse);

void BM_TraceRecordDisabled(benchmark::State& state) {
  // The cost every instrumented call site pays on an untraced run: one
  // relaxed atomic load and a branch. No session is armed here.
  for (auto _ : state) {
    rt::trace::record(rt::trace::Ev::kPoolPush, 0, 1, 2);
  }
}
BENCHMARK(BM_TraceRecordDisabled);

void BM_TraceRecordEnabled(benchmark::State& state) {
  // The armed hot path: timestamp + 32-byte append into the thread-local
  // ring. Once the ring fills, iterations measure the (cheaper) drop path;
  // the capacity keeps that from dominating a default run.
  rt::trace::session().begin(/*capacityPerThread=*/std::size_t{1} << 22);
  for (auto _ : state) {
    rt::trace::record(rt::trace::Ev::kPoolPush, 0, 1, 2);
  }
  rt::trace::session().end();
}
BENCHMARK(BM_TraceRecordEnabled);

void BM_PhaseTimerDisabled(benchmark::State& state) {
  // The cost a worker-loop phase boundary pays outside an engine run: the
  // clock is never based, so every lap() is the enabled() load + a branch.
  rt::prof::WorkerProfile w;
  rt::prof::PhaseClock clock;
  clock.start();
  for (auto _ : state) {
    clock.lap(w, rt::prof::Phase::kWorking);
  }
  benchmark::DoNotOptimize(w.get(rt::prof::Phase::kWorking));
}
BENCHMARK(BM_PhaseTimerDisabled);

void BM_PhaseTimerEnabled(benchmark::State& state) {
  // The armed boundary: one steady_clock read + one relaxed fetch_add.
  rt::prof::ArmScope armed;
  rt::prof::WorkerProfile w;
  rt::prof::PhaseClock clock;
  clock.start();
  for (auto _ : state) {
    clock.lap(w, rt::prof::Phase::kWorking);
  }
  benchmark::DoNotOptimize(w.get(rt::prof::Phase::kWorking));
}
BENCHMARK(BM_PhaseTimerEnabled);

// The regression gate behind the "zero overhead when disabled" claim: the
// minimum over kReps timed batches bounds scheduler noise from above, and
// the threshold is generous enough for an emulated CI host yet far below
// any accidental mutex/allocation on the path.
bool checkTraceDisabledOverhead() {
  constexpr int kReps = 10;
  constexpr std::uint64_t kEvents = 1'000'000;
  constexpr double kMaxNanosPerEvent = 5.0;
  if (rt::trace::enabled()) {
    std::fprintf(stderr,
                 "trace gate: a session is still armed; cannot measure the "
                 "disabled path\n");
    return false;
  }
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      rt::trace::record(rt::trace::Ev::kPoolPush, 0, i, i);
    }
    const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const double per = static_cast<double>(dt) / static_cast<double>(kEvents);
    if (per < best) best = per;
  }
  std::printf("trace gate: disabled-path record() = %.3f ns/event "
              "(threshold %.1f)\n",
              best, kMaxNanosPerEvent);
  if (best > kMaxNanosPerEvent) {
    std::fprintf(stderr,
                 "trace gate FAILED: disabled-path record() costs %.3f "
                 "ns/event, above the %.1f ns contract\n",
                 best, kMaxNanosPerEvent);
    return false;
  }
  return true;
}

// The same contract for the phase timer (runtime/profile.hpp): with no
// engine run armed, a worker-loop phase boundary must stay a relaxed load
// and a branch - no clock read.
bool checkPhaseTimerDisabledOverhead() {
  constexpr int kReps = 10;
  constexpr std::uint64_t kLaps = 1'000'000;
  constexpr double kMaxNanosPerLap = 5.0;
  if (rt::prof::enabled()) {
    std::fprintf(stderr,
                 "phase gate: profiling is still armed; cannot measure the "
                 "disabled path\n");
    return false;
  }
  rt::prof::WorkerProfile w;
  rt::prof::PhaseClock clock;
  clock.start();
  double best = 1e300;
  for (int r = 0; r < kReps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kLaps; ++i) {
      clock.lap(w, rt::prof::Phase::kWorking);
    }
    const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    const double per = static_cast<double>(dt) / static_cast<double>(kLaps);
    if (per < best) best = per;
  }
  std::printf("phase gate: disabled-path lap() = %.3f ns/lap "
              "(threshold %.1f)\n",
              best, kMaxNanosPerLap);
  if (w.get(rt::prof::Phase::kWorking) != 0) {
    std::fprintf(stderr,
                 "phase gate FAILED: disabled laps recorded time\n");
    return false;
  }
  if (best > kMaxNanosPerLap) {
    std::fprintf(stderr,
                 "phase gate FAILED: disabled-path lap() costs %.3f ns/lap, "
                 "above the %.1f ns contract\n",
                 best, kMaxNanosPerLap);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Evaluate both gates unconditionally: a && short-circuit would let a
  // trace regression mask a phase-timer one in the same run.
  const bool traceOk = checkTraceDisabledOverhead();
  const bool phaseOk = checkPhaseTimerDisabledOverhead();
  return traceOk && phaseOk ? 0 : 1;
}
