// Ablation A (paper Section 4.3): the order-preserving workpool.
//
// Part 1 - YewPar's schedulers "seek to preserve search order heuristics,
// e.g. by using a bespoke order-preserving workpool". This ablation runs the
// Depth-Bounded skeleton on branch-and-bound MaxClique with three pool
// policies:
//   * DepthPool   - FIFO within depth, shallowest first (YewPar's choice)
//   * Deque-LIFO  - standard work-stealing deque order (breaks heuristics)
//   * Deque-FIFO  - plain global FIFO
// Breaking the heuristic order delays strong incumbents, which shows up as
// more nodes searched (less pruning) rather than as a correctness issue.
//
// Part 2 - the Ordered skeleton's pool, ShardedPriorityPool (workpool.hpp),
// at one shard (one global heap: every push/pop/steal on one lock) vs one
// shard per worker at several sequence windows. The sweep reports the
// contended-lock count each configuration observed (LockCont; exported
// through MetricsSnapshot::poolLockContentions) and the throughput in tasks
// per second: per-worker shards must cut contention at high worker counts,
// and every row must produce the Sequential skeleton's result (uts::countTree
// for UTS) - a mismatch exits non-zero, and the CI bench-smoke lane runs
// `--tiny` as a gate on exactly that.
//
// Part 3 - a 2-locality Ordered run, where steal-reply chunks exercise the
// ascending-run contract across pools (Tasks/Steal > 1 under --chunk-policy
// adaptive shows chunked hand-out working over the sharded shards too).

#include <cinttypes>
#include <cstdio>
#include <iostream>

#include "apps/uts/uts.hpp"
#include "common.hpp"
#include "util/flags.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

namespace {

struct OrderedCfg {
  int shards;  // Params::orderedShards: 0 = one per worker
  std::uint64_t window;
  const char* name;
};

// One shard is the global heap (exact global hand-out order at any window);
// the per-worker rows sweep the window: infinite (unbounded run-ahead), a
// small finite window, and 0 (near-sequential order).
constexpr OrderedCfg kOrderedCfgs[] = {
    {1, rt::kNoSeqWindow, "1-shard"},
    {0, rt::kNoSeqWindow, "sharded-winf"},
    {0, 64, "sharded-w64"},
    {0, 0, "sharded-w0"},
};

bool gResultMismatch = false;

// One Ordered sweep over pool configs x worker counts for one workload;
// `run` executes the search and returns (result, metrics). Every row must
// equal `expect`, the Sequential skeleton's result.
template <typename RunFn>
void sweepOrdered(TablePrinter& table, const char* workload, int reps,
                  const std::vector<int>& workerCounts, std::int64_t expect,
                  RunFn&& run) {
  for (int workers : workerCounts) {
    for (const auto& cfg : kOrderedCfgs) {
      Params p;
      p.workersPerLocality = workers;
      p.dcutoff = 2;
      p.orderedShards = cfg.shards;
      p.orderedWindow = cfg.window;
      std::int64_t result = 0;
      rt::MetricsSnapshot m;
      const double t = timeMedian(reps, [&] {
        auto r = run(p);
        result = r.first;
        m = r.second;
      });
      const bool ok = result == expect;
      if (!ok) gResultMismatch = true;
      const double tasksPerSec =
          t > 0 ? static_cast<double>(m.tasksSpawned) / t : 0.0;
      table.addRow({workload, cfg.name, std::to_string(workers),
                    TablePrinter::cell(t, 3),
                    std::to_string(m.nodesProcessed),
                    std::to_string(m.poolLockContentions),
                    TablePrinter::cell(tasksPerSec, 0),
                    std::to_string(result) + (ok ? "" : " MISMATCH")});
    }
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Flags f(argc, argv);
  const bool tiny = f.getBool("tiny");
  const int reps = static_cast<int>(f.getInt("reps", tiny ? 1 : 3));
  f.rejectUnread();

  std::printf("== Ablation A: order-preserving workpool vs deques ==\n\n");

  TablePrinter table({"Instance", "Pool", "Time(s)", "Nodes", "Prunes",
                      "CliqueSize"});

  struct Policy {
    rt::PoolPolicy pool;
    const char* name;
  };
  const Policy policies[] = {
      {rt::PoolPolicy::Depth, "DepthPool"},
      {rt::PoolPolicy::DequeLifo, "Deque-LIFO"},
      {rt::PoolPolicy::DequeFifo, "Deque-FIFO"},
  };

  struct Inst {
    const char* name;
    Graph g;
  };
  std::vector<Inst> instances;
  if (tiny) {
    Graph a = gnp(70, 0.62, 51);
    a.sortByDegreeDesc();
    instances.push_back({"brock-like", std::move(a)});
    Graph b = plantedClique(80, 0.58, 14, 52);
    b.sortByDegreeDesc();
    instances.push_back({"san-like", std::move(b)});
  } else {
    Graph a = gnp(190, 0.72, 51);
    a.sortByDegreeDesc();
    instances.push_back({"brock-like", std::move(a)});
    Graph b = plantedClique(200, 0.68, 26, 52);
    b.sortByDegreeDesc();
    instances.push_back({"san-like", std::move(b)});
  }

  for (auto& inst : instances) {
    for (const auto& pol : policies) {
      Params p;
      p.workersPerLocality = 2;
      p.dcutoff = 2;
      p.pool = pol.pool;
      std::int64_t size = 0;
      rt::MetricsSnapshot m;
      const double t = timeMedian(reps, [&] {
        auto out = skeletons::DepthBounded<
            mc::Gen, Optimisation,
            BoundFunction<&mc::upperBound>, PruneLevel>::search(p, inst.g,
                                                    mc::rootNode(inst.g));
        size = out.objective;
        m = out.metrics;
      });
      table.addRow({inst.name, pol.name, TablePrinter::cell(t, 3),
                    std::to_string(m.nodesProcessed),
                    std::to_string(m.prunes), std::to_string(size)});
    }
  }
  table.print(std::cout);
  std::printf("\nexpectation: on diffuse instances (brock-like) DepthPool "
              "searches fewer nodes than the heuristic-breaking LIFO deque; "
              "on planted instances LIFO diving can get lucky (a classic "
              "search anomaly, Section 2.1). The answer is identical for "
              "every policy.\n");

  std::printf("\n== Ablation A2: Ordered pool - one shard vs per-worker "
              "shards and sequence window ==\n");
  std::printf("(LockCont = contended pool-lock acquisitions; every row must "
              "match the Sequential skeleton's Result)\n\n");

  TablePrinter otable({"Workload", "Pool", "Workers", "Time(s)", "Nodes",
                       "LockCont", "Tasks/s", "Result"});
  const std::vector<int> workerCounts = tiny ? std::vector<int>{2, 4}
                                             : std::vector<int>{2, 8};

  {  // UTS enumeration: spawn-heavy, pool-bound - the contention showcase.
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = tiny ? 4 : 6;
    tree.maxDepth = tiny ? 8 : 12;
    tree.seed = 33;
    const auto expect = static_cast<std::int64_t>(uts::countTree(tree));
    sweepOrdered(otable, "UTS(geo)", reps, workerCounts, expect,
                 [&](const Params& p) {
                   auto out = skeletons::Ordered<
                       uts::Gen, Enumeration<CountAll>>::search(
                       p, tree, uts::rootNode(tree));
                   return std::make_pair(static_cast<std::int64_t>(out.sum),
                                         out.metrics);
                 });
  }

  {  // CMST optimisation: pruning-heavy, result = optimal cost.
    auto inst = tiny ? cmst::randomInstance(12, 30, 60, 2020)
                     : sweepCmstInstance();
    using Bound = BoundFunction<&cmst::upperBound>;
    const auto expect =
        skeletons::Sequential<cmst::Gen, Optimisation, Bound>::search(
            Params{}, inst, cmst::rootNode(inst))
            .objective;
    sweepOrdered(otable, "CMST", reps, workerCounts, expect,
                 [&](const Params& p) {
                   auto out =
                       skeletons::Ordered<cmst::Gen, Optimisation,
                                          Bound>::search(
                           p, inst, cmst::rootNode(inst));
                   return std::make_pair(out.objective, out.metrics);
                 });
  }
  otable.print(std::cout);
  std::printf("\nexpectation: at the higher worker count per-worker "
              "shards show fewer contended lock acquisitions and higher "
              "tasks/s than one shard (the ROADMAP's >8-worker scaling "
              "wall); window size trades run-ahead freedom against fidelity "
              "to the sequential order, never correctness.\n");

  std::printf("\n== Ablation A3: Ordered across 2 localities (chunked "
              "steal replies over the sharded pool) ==\n\n");

  TablePrinter ntable({"Pool", "Time(s)", "Tasks/Steal", "Msgs", "Result"});
  {
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = 4;
    tree.maxDepth = tiny ? 7 : 9;
    tree.seed = 33;
    const auto expect = static_cast<std::int64_t>(uts::countTree(tree));
    for (const auto& cfg : kOrderedCfgs) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 2;
      p.orderedShards = cfg.shards;
      p.orderedWindow = cfg.window;
      p.chunk = parseChunkPolicy("adaptive");
      std::int64_t result = 0;
      rt::MetricsSnapshot m;
      const double t = timeMedian(reps, [&] {
        auto out = skeletons::Ordered<uts::Gen, Enumeration<CountAll>>::search(
            p, tree, uts::rootNode(tree));
        result = static_cast<std::int64_t>(out.sum);
        m = out.metrics;
      });
      const bool ok = result == expect;
      if (!ok) gResultMismatch = true;
      ntable.addRow({cfg.name, TablePrinter::cell(t, 3),
                     TablePrinter::cell(m.tasksPerSteal(), 2),
                     std::to_string(m.networkMessages),
                     std::to_string(result) + (ok ? "" : " MISMATCH")});
    }
  }
  ntable.print(std::cout);

  if (gResultMismatch) {
    std::fprintf(stderr, "\nFAIL: an Ordered pool configuration changed a "
                         "search result vs the Sequential skeleton\n");
    return 1;
  }
  std::printf("\nevery Ordered pool configuration matches the Sequential "
              "skeleton.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
