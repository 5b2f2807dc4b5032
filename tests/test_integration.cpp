// Cross-cutting integration tests: full configuration sweeps (skeleton x
// localities x workers x pool policy), stale-knowledge correctness under
// injected network latency, node-cap truncation, and decision
// short-circuit draining.

#include <gtest/gtest.h>

#include "apps/maxclique/maxclique.hpp"
#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

struct Config {
  Skel skel;
  int localities;
  int workers;
  rt::PoolPolicy pool;
};

std::string configName(const Config& c) {
  std::string s = skelName(c.skel);
  s += "_L" + std::to_string(c.localities) + "W" + std::to_string(c.workers);
  switch (c.pool) {
    case rt::PoolPolicy::Depth: s += "_Depth"; break;
    case rt::PoolPolicy::DequeLifo: s += "_Lifo"; break;
    case rt::PoolPolicy::DequeFifo: s += "_Fifo"; break;
    case rt::PoolPolicy::PrioritySharded: s += "_PrioSh"; break;
  }
  return s;
}

std::vector<Config> allConfigs() {
  std::vector<Config> out;
  for (Skel s : kParallelSkels) {
    for (int loc : {1, 2}) {
      for (int w : {1, 3}) {
        out.push_back({s, loc, w, rt::PoolPolicy::Depth});
      }
    }
  }
  // Pool-policy variations on one representative skeleton.
  out.push_back({Skel::DepthBounded, 1, 2, rt::PoolPolicy::DequeLifo});
  out.push_back({Skel::DepthBounded, 1, 2, rt::PoolPolicy::DequeFifo});
  out.push_back({Skel::Budget, 2, 2, rt::PoolPolicy::DequeLifo});
  return out;
}

}  // namespace

class FullConfigSweep : public ::testing::TestWithParam<Config> {};

TEST_P(FullConfigSweep, CliqueOptimumInvariant) {
  const auto& cfg = GetParam();
  Graph g = gnp(34, 0.55, 6);
  const auto expect = mc::bruteForceMaxClique(g);
  Params p;
  p.nLocalities = cfg.localities;
  p.workersPerLocality = cfg.workers;
  p.pool = cfg.pool;
  p.dcutoff = 2;
  p.backtrackBudget = 40;
  auto out = runSkeleton<mc::Gen, Optimisation,
                         BoundFunction<&mc::upperBound>, PruneLevel>(
      cfg.skel, p, g, mc::rootNode(g));
  EXPECT_EQ(out.objective, expect);
}

TEST_P(FullConfigSweep, UtsCountInvariant) {
  const auto& cfg = GetParam();
  uts::Params tree;
  tree.b0 = 4;
  tree.maxDepth = 7;
  tree.seed = 11;
  const auto expect = uts::countTree(tree);
  Params p;
  p.nLocalities = cfg.localities;
  p.workersPerLocality = cfg.workers;
  p.pool = cfg.pool;
  p.dcutoff = 2;
  p.backtrackBudget = 40;
  auto out = runSkeleton<uts::Gen, Enumeration<CountAll>>(cfg.skel, p, tree,
                                                          uts::rootNode(tree));
  EXPECT_EQ(out.sum, expect);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FullConfigSweep,
                         ::testing::ValuesIn(allConfigs()),
                         [](const auto& paramInfo) {
                           return configName(paramInfo.param);
                         });

TEST(KnowledgeDelay, StaleBoundsNeverChangeTheOptimum) {
  Graph g = gnp(36, 0.6, 12);
  const auto expect = mc::bruteForceMaxClique(g);
  for (double delayUs : {0.0, 500.0, 5000.0}) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 2;
    p.net.delay = DelayModel{DelayModel::Kind::Fixed, delayUs, 0.0};
    auto out = skeletons::DepthBounded<
        mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
        PruneLevel>::search(p, g, mc::rootNode(g));
    EXPECT_EQ(out.objective, expect) << "delay " << delayUs;
  }
}

TEST(NodeCap, TruncatedSearchIsFlaggedIncomplete) {
  uts::Params tree;
  tree.b0 = 5;
  tree.maxDepth = 9;
  tree.seed = 3;
  const auto full = uts::countTree(tree);
  Params p;
  p.maxNodes = full / 10;
  auto out = skeletons::Sequential<uts::Gen, Enumeration<CountAll>>::search(
      p, tree, uts::rootNode(tree));
  EXPECT_FALSE(out.complete);
  EXPECT_LT(out.sum, full);
}

TEST(NodeCap, ParallelTruncationDrainsCleanly) {
  uts::Params tree;
  tree.b0 = 5;
  tree.maxDepth = 9;
  tree.seed = 3;
  Params p;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  p.maxNodes = 2000;
  // Must terminate (drain) promptly and flag incompleteness.
  auto out = skeletons::DepthBounded<uts::Gen, Enumeration<CountAll>>::search(
      p, tree, uts::rootNode(tree));
  EXPECT_FALSE(out.complete);
}

TEST(DecisionDrain, EarlyStopStillTerminatesWithManyTasks) {
  // A satisfiable decision search with an aggressive dcutoff spawns many
  // tasks; the short-circuit must drain them all and terminate.
  Graph g = plantedClique(40, 0.5, 12, 77);
  Params p;
  p.workersPerLocality = 3;
  p.nLocalities = 2;
  p.dcutoff = 3;
  p.decisionTarget = 12;
  auto out = skeletons::DepthBounded<
      mc::Gen, Decision, BoundFunction<&mc::upperBound>,
      PruneLevel>::search(p, g, mc::rootNode(g));
  EXPECT_TRUE(out.decided);
}

TEST(OrderedSkeleton, PrefixExpansionCountsEveryNodeOnce) {
  uts::Params tree;
  tree.b0 = 4;
  tree.maxDepth = 7;
  tree.seed = 21;
  const auto expect = uts::countTree(tree);
  for (int d : {1, 2, 3}) {
    Params p;
    p.workersPerLocality = 2;
    p.dcutoff = d;
    auto out = skeletons::Ordered<uts::Gen, Enumeration<CountAll>>::search(
        p, tree, uts::rootNode(tree));
    EXPECT_EQ(out.sum, expect) << "dcutoff " << d;
  }
}

TEST(OrderedSkeleton, RemoteStealsPreserveResults) {
  Graph g = gnp(34, 0.55, 15);
  const auto expect = mc::bruteForceMaxClique(g);
  Params p;
  p.nLocalities = 3;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  auto out = skeletons::Ordered<
      mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
      PruneLevel>::search(p, g, mc::rootNode(g));
  EXPECT_EQ(out.objective, expect);
}
