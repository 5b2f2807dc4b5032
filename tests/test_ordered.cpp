// Replicability harness for the Ordered skeleton and its sharded
// sequence-window pool (docs/ARCHITECTURE.md "Ordered pool sharding &
// sequence window").
//
// The Ordered skeleton's guarantee is that execution order is a
// prefix-parallelisation of the Sequential skeleton's traversal order, which
// bounds the search anomalies of the paper's Section 2.1 and makes results
// replicable: the same instance must produce byte-identical answers no
// matter how many workers run it or how its pool is configured. This suite
// pins that contract across {1,2,4,8} workers x {one shard (the global
// heap), per-worker shards at window 0 / small / infinite}:
//
//   - UTS enumeration sums are exact-equal to the sequential tree count;
//   - CMST optimisation reproduces the Sequential incumbent byte-for-byte
//     (not just the objective), so a search anomaly that lands on a
//     different argmin is caught;
//   - a single-threaded property check that every pop the sharded pool
//     hands out respects the window invariant (no task runs more than
//     `window` ahead of the lowest outstanding sequence number).
//
// The oracles are independent of every pool: uts::countTree and the
// Sequential skeleton's incumbent. One shard hands out the exact global
// sequence order; window=0 gives near-sequential order at any shard count
// (pool-level ordering pinned in tests/test_runtime.cpp).

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"
#include "runtime/workpool.hpp"
#include "util/archive.hpp"
#include "util/rng.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

// One ordered-pool configuration of the replicability sweep.
struct PoolCfg {
  int shards;  // Params::orderedShards: 0 = one per worker
  std::uint64_t window;
  const char* name;
};

constexpr PoolCfg kPoolCfgs[] = {
    {1, rt::kNoSeqWindow, "global"},
    {0, 0, "sharded_w0"},
    {0, 8, "sharded_w8"},
    {0, rt::kNoSeqWindow, "sharded_winf"},
};

constexpr int kWorkerCounts[] = {1, 2, 4, 8};

Params orderedParams(int workers, const PoolCfg& cfg) {
  Params p;
  p.workersPerLocality = workers;
  p.dcutoff = 2;
  p.orderedShards = cfg.shards;
  p.orderedWindow = cfg.window;
  return p;
}

}  // namespace

TEST(OrderedReplicability, UtsSumsIdenticalAcrossWorkersAndPools) {
  uts::Params tree;
  tree.b0 = 4;
  tree.maxDepth = 7;
  tree.seed = 33;
  const auto expect = uts::countTree(tree);
  for (const auto& cfg : kPoolCfgs) {
    for (int w : kWorkerCounts) {
      auto out = runSkeleton<uts::Gen, Enumeration<CountAll>>(
          Skel::Ordered, orderedParams(w, cfg), tree, uts::rootNode(tree));
      EXPECT_EQ(out.sum, expect) << cfg.name << " workers=" << w;
      EXPECT_TRUE(out.complete) << cfg.name << " workers=" << w;
    }
  }
}

TEST(OrderedReplicability, CmstIncumbentBytesIdenticalAcrossWorkersAndPools) {
  // Replicability is byte-equality of the *incumbent*, not just its cost:
  // compare the serialized winning tree against the Sequential skeleton's.
  // Edge weights are drawn from [1,1000], so this seed's optimum is unique
  // (a cost tie between distinct trees would make the argmin
  // schedule-dependent and void the byte-equality oracle).
  auto inst = cmst::randomInstance(10, 22, 8, 97);
  auto ref =
      runSkeleton<cmst::Gen, Optimisation, BoundFunction<&cmst::upperBound>>(
          Skel::Seq, Params{}, inst, cmst::rootNode(inst));
  ASSERT_TRUE(ref.incumbent.has_value());
  const auto refBytes = toBytes(*ref.incumbent);
  for (const auto& cfg : kPoolCfgs) {
    for (int w : kWorkerCounts) {
      auto out = runSkeleton<cmst::Gen, Optimisation,
                             BoundFunction<&cmst::upperBound>>(
          Skel::Ordered, orderedParams(w, cfg), inst, cmst::rootNode(inst));
      EXPECT_EQ(out.objective, ref.objective) << cfg.name << " workers=" << w;
      ASSERT_TRUE(out.incumbent.has_value()) << cfg.name << " workers=" << w;
      EXPECT_EQ(toBytes(*out.incumbent), refBytes)
          << cfg.name << " workers=" << w;
    }
  }
}

TEST(OrderedReplicability, ShardedPoolSurvivesRemoteSteals) {
  // The sharded pool behind multiple localities: steal-reply reintegration
  // pushes arrive unattributed and may carry sequence numbers below the
  // local low-water mark; results must not change.
  uts::Params tree;
  tree.b0 = 4;
  tree.maxDepth = 7;
  tree.seed = 33;
  const auto expect = uts::countTree(tree);
  for (std::uint64_t window : {std::uint64_t{4}, rt::kNoSeqWindow}) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 2;
    p.orderedWindow = window;
    auto out = runSkeleton<uts::Gen, Enumeration<CountAll>>(
        Skel::Ordered, p, tree, uts::rootNode(tree));
    EXPECT_EQ(out.sum, expect) << "window=" << window;
  }
}

namespace {
struct SeqTask {
  std::uint64_t seq = 0;
};
}  // namespace

TEST(OrderedReplicability, EveryPopRespectsTheWindowInvariant) {
  // Property check, single-threaded so the invariant is exact (under
  // concurrency the low-water mark is a racy observation by design): over a
  // randomized push/pop schedule with shuffled sequence numbers, every task
  // handed out satisfies lowWater <= seq <= lowWater + window, where
  // lowWater is the mark observed immediately before the pop.
  constexpr std::uint64_t kWindow = 5;
  constexpr std::uint64_t kTasks = 400;
  rt::ShardedPriorityPool<SeqTask> pool(/*shards=*/4, kWindow);

  std::vector<std::uint64_t> seqs(kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) seqs[i] = i;
  Rng rng(2026);
  for (std::uint64_t i = kTasks - 1; i > 0; --i) {
    std::swap(seqs[i], seqs[rng.below(i + 1)]);
  }

  std::uint64_t pushed = 0;
  std::uint64_t popped = 0;
  while (popped < kTasks) {
    const bool canPush = pushed < kTasks;
    const bool doPush = canPush && (pool.size() == 0 || rng.below(2) == 0);
    if (doPush) {
      // Mix attributed and unattributed pushes, like the engine does.
      const int worker = static_cast<int>(rng.below(5)) - 1;
      pool.push(SeqTask{seqs[pushed++]}, 0, worker);
      continue;
    }
    const std::uint64_t lowWater = pool.lowWaterMark();
    const int worker = static_cast<int>(rng.below(4));
    auto t = pool.pop(worker);
    ASSERT_TRUE(t.has_value());  // a non-empty pool always yields a task
    ++popped;
    EXPECT_GE(t->seq, lowWater);
    EXPECT_LE(t->seq, lowWater + kWindow)
        << "task ran more than " << kWindow
        << " ahead of the lowest outstanding seq " << lowWater;
  }
  EXPECT_EQ(pool.size(), 0u);
}
