// Ablation D: the simulated transport's cost model.
//
// Sweeps the layered network (send-buffer batching x per-link delay model)
// over message-heavy distributed workloads, reporting what each layer
// changes: logical messages vs wire frames (batching amortises per-message
// overhead), per-link queue high-water marks and spills (back-pressure),
// and the modelled latency distribution. The search result must be
// identical in every configuration - the transport may reshape cost, never
// answers.
//
// Workloads, both over 2 localities so all coordination crosses the fabric:
//   UTS(geo)/stack  - Stack-Stealing enumeration: bursty steal traffic
//   CMST/pool       - Depth-Bounded branch-and-bound: pool steal replies
//                     plus incumbent-bound broadcast storms
// A final back-pressure block re-runs CMST with a tiny --net-queue-cap to
// drive the spill path.
//
// The shaping layer is transport-generic, so the same sweep has real-wire
// rows: a framed-vs-unframed block re-runs both workloads over a genuine
// 2-rank loopback TCP mesh (each rank an engine on its own thread, exactly
// as two processes would run) and requires batching to cut wire frames
// there too, with byte-identical results.
//
// Flags: --tiny (CI smoke sizes)  --reps N (timing repetitions)
//        --only UTS|CMST|TCP (restrict workloads)
// Exits non-zero if any configuration changes a search result, or if
// batching fails to cut the frame count on the CMST sweep or the TCP rows.

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "apps/uts/uts.hpp"
#include "common.hpp"
#include "util/flags.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

namespace {

struct NetPoint {
  std::size_t batch;
  const char* delay;
};

struct RunResult {
  std::int64_t result = 0;  // enumeration count or objective
  rt::MetricsSnapshot metrics;
  double seconds = 0;
};

bool gResultsAgree = true;
bool gBatchingReduces = true;
bool gTcpBatchingReduces = true;

std::string batchLabel(std::size_t batch) {
  return batch == 1 ? "1 (off)" : std::to_string(batch);
}

// Sequential port blocks per process so parallel CI jobs do not collide.
std::uint16_t nextPortBase() {
  static std::atomic<std::uint16_t> counter{0};
  const auto pidSpread =
      static_cast<std::uint16_t>((::getpid() * 41) % 12000);
  return static_cast<std::uint16_t>(33000 + pidSpread + counter.fetch_add(4));
}

// Run `searchFn` as a real 2-rank loopback TCP job, one engine per thread
// (each constructs its own TcpTransport exactly as two processes would).
// Returns rank 0's merged outcome; retries on port collisions.
template <typename SearchFn>
RunResult runTcpPair(const Params& base, SearchFn&& searchFn) {
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto portBase = nextPortBase();
    std::vector<std::string> peers;
    for (int r = 0; r < 2; ++r) {
      peers.push_back("127.0.0.1:" + std::to_string(portBase + r));
    }
    RunResult res[2];
    std::exception_ptr errs[2];
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Params p = base;
        p.transport = TransportKind::Tcp;
        p.rank = r;
        p.peers = peers;
        try {
          res[r] = searchFn(p);
        } catch (...) {
          errs[r] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (!errs[0] && !errs[1]) return res[0];
  }
  throw std::runtime_error(
      "ablation_network: could not bring up a 2-rank loopback TCP mesh");
}

// Run `runFn` at every (batch x delay) point; one table row each. Every
// point must reproduce the first point's search result, and for workloads
// with `checkReduction` the largest batch must send no more frames than the
// unbatched baseline under the same delay model (and strictly fewer under
// "none", where timing noise cannot mask the effect).
template <typename RunFn>
void sweepNet(TablePrinter& table, const char* workload,
              const std::vector<std::size_t>& batches,
              const std::vector<const char*>& delays, bool checkReduction,
              RunFn&& runFn) {
  std::optional<std::int64_t> expected;
  for (const char* delaySpec : delays) {
    std::uint64_t framesUnbatched = 0;
    for (std::size_t batch : batches) {
      NetConfig net;
      net.batchSize = batch;
      net.delay = rt::DelayModel::parse(delaySpec);
      RunResult r = runFn(net);
      if (!expected) expected = r.result;
      const bool ok = r.result == *expected;
      if (!ok) gResultsAgree = false;
      if (batch == 1) framesUnbatched = r.metrics.networkFrames;
      if (checkReduction && batch == batches.back() &&
          r.metrics.networkFrames >= framesUnbatched &&
          std::string(delaySpec) == "none") {
        gBatchingReduces = false;
      }
      table.addRow({workload, batchLabel(batch), delaySpec,
                    TablePrinter::cell(r.seconds, 3),
                    std::to_string(r.metrics.networkMessages),
                    std::to_string(r.metrics.networkFrames),
                    std::to_string(r.metrics.networkBatched),
                    std::to_string(r.metrics.linkQueueHighWater),
                    std::to_string(r.metrics.networkSpills),
                    std::to_string(
                        r.metrics.netLatencyQuantileMicros(0.99)),
                    std::to_string(r.result) + (ok ? "" : " MISMATCH")});
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Flags f(argc, argv);
  const bool tiny = f.getBool("tiny");
  const int reps = static_cast<int>(f.getInt("reps", tiny ? 1 : 3));
  const std::string only = f.getString("only", "");
  f.rejectUnread();

  std::printf("== Ablation D: simulated-network batching, back-pressure, "
              "delay models ==\n");
  std::printf("(2 localities; Msgs = logical sends, Frames = wire flushes, "
              "HW = per-link queue high-water, p99 = modelled latency upper "
              "bound in us)\n\n");

  const std::vector<std::size_t> batches = {1, 8, 32};
  const std::vector<const char*> delays = {"none", "fixed:50",
                                           "lognormal:3,0.7"};

  TablePrinter table({"Workload", "Batch", "Delay", "Time(s)", "Msgs",
                      "Frames", "Batched", "HW", "Spills", "p99us",
                      "Result"});

  if (only.empty() || only == "UTS") {
    // UTS enumeration, Stack-Stealing across 2 localities: remote stack
    // steals (request token -> chunked reply) ride the fabric.
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = 6;
    tree.maxDepth = tiny ? 8 : 12;
    tree.seed = 23;
    sweepNet(table, "UTS(geo)/stack", batches, delays,
             /*checkReduction=*/false, [&](const NetConfig& net) {
               Params p;
               p.nLocalities = 2;
               p.workersPerLocality = 2;
               p.chunk = parseChunkPolicy("half");
               p.net = net;
               RunResult r;
               r.seconds = timeMedian(reps, [&] {
                 auto out =
                     skeletons::StackStealing<uts::Gen,
                                              Enumeration<CountAll>>::
                         search(p, tree, uts::rootNode(tree));
                 r.result = static_cast<std::int64_t>(out.sum);
                 r.metrics = out.metrics;
               });
               return r;
             });
  }

  auto runCmst = [&](const apps::cmst::Instance& inst, const NetConfig& net) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 4;
    p.chunk = parseChunkPolicy("half");
    p.net = net;
    RunResult r;
    r.seconds = timeMedian(reps, [&] {
      auto out = skeletons::DepthBounded<
          cmst::Gen, Optimisation,
          BoundFunction<&cmst::upperBound>>::search(p, inst,
                                                    cmst::rootNode(inst));
      r.result = out.objective;
      r.metrics = out.metrics;
    });
    return r;
  };

  if (only.empty() || only == "CMST") {
    // Conflict-MST branch-and-bound: incumbent improvements broadcast
    // bounds to every peer, so sends cluster in exactly the bursts
    // batching is for. This is the sweep the frame-reduction check runs
    // on (acceptance: batching must beat --net-batch 1).
    auto inst = tiny ? cmst::randomInstance(12, 30, 60, 2020)
                     : sweepCmstInstance();
    sweepNet(table, "CMST/pool", batches, delays, /*checkReduction=*/true,
             [&](const NetConfig& net) { return runCmst(inst, net); });

    // Back-pressure: a 2-deep link under a fixed delay keeps the queue
    // full, so flushes shed to the spill list (Spills > 0) while the
    // result still cannot change and no steal cycle deadlocks.
    for (std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      NetConfig net;
      net.batchSize = batch;
      net.queueCap = 2;
      net.delay = rt::DelayModel::parse("fixed:200");
      RunResult r = runCmst(inst, net);
      table.addRow({"CMST/pool cap=2", batchLabel(batch), "fixed:200",
                    TablePrinter::cell(r.seconds, 3),
                    std::to_string(r.metrics.networkMessages),
                    std::to_string(r.metrics.networkFrames),
                    std::to_string(r.metrics.networkBatched),
                    std::to_string(r.metrics.linkQueueHighWater),
                    std::to_string(r.metrics.networkSpills),
                    std::to_string(
                        r.metrics.netLatencyQuantileMicros(0.99)),
                    std::to_string(r.result)});
    }
  }

  if (only.empty() || only == "TCP") {
    // Framed vs unframed over real sockets: the same shaping layer wraps
    // the TCP backend in the engine, so batching must cut genuine wire
    // frames too. "wire" in the Delay column = whatever loopback actually
    // does; no model is applied on this backend. The framed row holds the
    // flush window open longer (--net-flush-us 2000) so bursty coordination
    // traffic actually shares frames.
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = 6;
    tree.maxDepth = tiny ? 8 : 12;
    tree.seed = 23;
    auto runUts = [&](const Params& p) {
      RunResult r;
      Timer t;
      auto out = skeletons::StackStealing<uts::Gen, Enumeration<CountAll>>::
          search(p, tree, uts::rootNode(tree));
      r.seconds = t.elapsedSeconds();
      r.result = static_cast<std::int64_t>(out.sum);
      r.metrics = out.metrics;
      return r;
    };
    auto inst = tiny ? cmst::randomInstance(12, 30, 60, 2020)
                     : sweepCmstInstance();
    auto runCmstTcp = [&](const Params& p) {
      RunResult r;
      Timer t;
      auto out = skeletons::DepthBounded<
          cmst::Gen, Optimisation,
          BoundFunction<&cmst::upperBound>>::search(p, inst,
                                                    cmst::rootNode(inst));
      r.seconds = t.elapsedSeconds();
      r.result = out.objective;
      r.metrics = out.metrics;
      return r;
    };

    struct TcpWorkload {
      const char* name;
      std::function<RunResult(const Params&)> run;
    };
    const std::vector<TcpWorkload> workloads = {
        {"UTS(geo)/tcp", runUts},
        {"CMST/tcp", runCmstTcp},
    };
    for (const auto& w : workloads) {
      Params base;
      base.nLocalities = 2;
      base.workersPerLocality = 2;
      base.chunk = parseChunkPolicy("half");
      base.dcutoff = 4;

      // Reference result from the simulated backend: the wire must never
      // change an answer, whichever transport carries it.
      const std::int64_t simResult = w.run(base).result;

      for (std::size_t batch : {std::size_t{1}, std::size_t{32}}) {
        Params p = base;
        p.net.batchSize = batch;
        if (batch > 1) {
          p.net.flushAfter = std::chrono::microseconds(2000);
        }
        RunResult r = runTcpPair(p, w.run);
        const bool ok = r.result == simResult;
        if (!ok) gResultsAgree = false;
        if (batch == 1 &&
            r.metrics.networkFrames != r.metrics.networkMessages) {
          // Unframed baseline identity: one wire frame per message.
          gTcpBatchingReduces = false;
        }
        if (batch > 1 &&
            r.metrics.networkFrames >= r.metrics.networkMessages) {
          gTcpBatchingReduces = false;
        }
        table.addRow({w.name, batchLabel(batch), "wire",
                      TablePrinter::cell(r.seconds, 3),
                      std::to_string(r.metrics.networkMessages),
                      std::to_string(r.metrics.networkFrames),
                      std::to_string(r.metrics.networkBatched),
                      std::to_string(r.metrics.linkQueueHighWater),
                      std::to_string(r.metrics.networkSpills),
                      std::to_string(
                          r.metrics.netLatencyQuantileMicros(0.99)),
                      std::to_string(r.result) + (ok ? "" : " MISMATCH")});
      }
    }
  }

  table.print(std::cout);
  std::printf("\nexpectation: Frames == Msgs at batch 1, Frames < Msgs at "
              "batch 8/32 (Batched counts the messages that shared a "
              "frame); HW bounded and Spills > 0 only under cap=2; p99 "
              "tracks the delay model; identical Result down every "
              "workload, sim or wire.\n");

  bool failed = false;
  if (!gResultsAgree) {
    std::fprintf(stderr, "FAIL: a transport configuration changed a search "
                         "result (see MISMATCH rows)\n");
    failed = true;
  }
  if (!gBatchingReduces) {
    std::fprintf(stderr, "FAIL: batching did not reduce the frame count on "
                         "the CMST sweep vs --net-batch 1\n");
    failed = true;
  }
  if (!gTcpBatchingReduces) {
    std::fprintf(stderr, "FAIL: batching did not cut TCP wire frames vs "
                         "--net-batch 1 on the loopback rows\n");
    failed = true;
  }
  return failed ? 1 : 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
