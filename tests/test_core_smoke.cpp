// End-to-end smoke tests: every skeleton, every search type, on complete
// synthetic trees where all answers are known in closed form.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "../examples/common.hpp"
#include "core/yewpar.hpp"
#include "common/run_skeleton.hpp"
#include "common/synth.hpp"

using namespace yewpar;
using namespace yewpar::testing;

namespace {

using Enum = Enumeration<CountAll>;

Params seqParams() { return Params{}; }

Params parParams(int nLoc, int workers) {
  Params p;
  p.nLocalities = nLoc;
  p.workersPerLocality = workers;
  p.dcutoff = 2;
  p.backtrackBudget = 16;
  return p;
}

}  // namespace

TEST(CoreSmoke, SequentialEnumerationCountsCompleteTree) {
  SynthSpace space{3, 5};
  auto out = skeletons::Sequential<SynthGen, Enum>::search(seqParams(), space,
                                                           SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
  EXPECT_EQ(out.metrics.nodesProcessed, completeTreeSize(3, 5));
  EXPECT_TRUE(out.complete);
}

TEST(CoreSmoke, SequentialOptimisationFindsMaxDepth) {
  SynthSpace space{2, 6};
  auto out = skeletons::Sequential<SynthGen, Optimisation>::search(
      seqParams(), space, SynthNode{});
  EXPECT_EQ(out.objective, 6);
  ASSERT_TRUE(out.incumbent.has_value());
  EXPECT_EQ(out.incumbent->d, 6);
}

TEST(CoreSmoke, SequentialDecisionShortCircuits) {
  SynthSpace space{2, 6};
  Params p = seqParams();
  p.decisionTarget = 4;
  auto out =
      skeletons::Sequential<SynthGen, Decision>::search(p, space, SynthNode{});
  EXPECT_TRUE(out.decided);
  // Short-circuit: a depth-4 node is found after visiting exactly 5 nodes on
  // the leftmost path.
  EXPECT_EQ(out.metrics.nodesProcessed, 5u);
}

TEST(CoreSmoke, DepthBoundedEnumerationMatchesSequential) {
  SynthSpace space{3, 5};
  auto out = skeletons::DepthBounded<SynthGen, Enum>::search(
      parParams(1, 2), space, SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
}

TEST(CoreSmoke, DepthBoundedTwoLocalities) {
  SynthSpace space{3, 5};
  auto out = skeletons::DepthBounded<SynthGen, Enum>::search(
      parParams(2, 2), space, SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
}

TEST(CoreSmoke, BudgetEnumerationMatchesSequential) {
  SynthSpace space{3, 5};
  auto out = skeletons::Budget<SynthGen, Enum>::search(parParams(1, 2), space,
                                                       SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
}

TEST(CoreSmoke, StackStealingEnumerationMatchesSequential) {
  SynthSpace space{3, 5};
  auto out = skeletons::StackStealing<SynthGen, Enum>::search(
      parParams(1, 2), space, SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
}

TEST(CoreSmoke, ParallelOptimisationFindsMaxDepth) {
  SynthSpace space{2, 7};
  {
    auto out = skeletons::DepthBounded<SynthGen, Optimisation>::search(
        parParams(1, 2), space, SynthNode{});
    EXPECT_EQ(out.objective, 7);
  }
  {
    auto out = skeletons::Budget<SynthGen, Optimisation>::search(
        parParams(1, 2), space, SynthNode{});
    EXPECT_EQ(out.objective, 7);
  }
  {
    auto out = skeletons::StackStealing<SynthGen, Optimisation>::search(
        parParams(1, 2), space, SynthNode{});
    EXPECT_EQ(out.objective, 7);
  }
}

TEST(CoreSmoke, ParallelDecisionFindsTarget) {
  SynthSpace space{2, 7};
  Params p = parParams(1, 2);
  p.decisionTarget = 6;
  {
    auto out = skeletons::DepthBounded<SynthGen, Decision>::search(
        p, space, SynthNode{});
    EXPECT_TRUE(out.decided);
  }
  {
    auto out =
        skeletons::Budget<SynthGen, Decision>::search(p, space, SynthNode{});
    EXPECT_TRUE(out.decided);
  }
  {
    auto out = skeletons::StackStealing<SynthGen, Decision>::search(
        p, space, SynthNode{});
    EXPECT_TRUE(out.decided);
  }
}

TEST(CoreSmoke, DecisionUnreachableTargetVisitsWholeTree) {
  SynthSpace space{2, 5};
  Params p = seqParams();
  p.decisionTarget = 99;
  auto out =
      skeletons::Sequential<SynthGen, Decision>::search(p, space, SynthNode{});
  EXPECT_FALSE(out.decided);
  EXPECT_EQ(out.metrics.nodesProcessed, completeTreeSize(2, 5));
}

// Registry::stop / Registry::truncated semantics across every skeleton: a
// decision short-circuit raises stop but NOT truncated (the outcome stays
// `complete`), while a maxNodes cap raises both (the outcome is incomplete).

class StopSemantics : public ::testing::TestWithParam<Skel> {};

TEST_P(StopSemantics, DecisionShortCircuitIsCompleteAndEarly) {
  SynthSpace space{3, 6};
  const auto treeSize = completeTreeSize(3, 6);
  Params p = parParams(1, 2);
  p.decisionTarget = 5;
  auto out = runSkeleton<SynthGen, Decision>(GetParam(), p, space,
                                             SynthNode{});
  EXPECT_TRUE(out.decided);
  // Short-circuit is not truncation: the answer is exact.
  EXPECT_TRUE(out.complete);
  // Stop propagated before the whole tree was searched.
  EXPECT_LT(out.metrics.nodesProcessed, treeSize);
}

TEST_P(StopSemantics, DecisionUnachievableVisitsEveryNodeOnce) {
  SynthSpace space{3, 5};
  Params p = parParams(1, 2);
  p.decisionTarget = 99;
  auto out = runSkeleton<SynthGen, Decision>(GetParam(), p, space,
                                             SynthNode{});
  EXPECT_FALSE(out.decided);
  EXPECT_TRUE(out.complete);
  EXPECT_EQ(out.metrics.nodesProcessed, completeTreeSize(3, 5));
}

TEST_P(StopSemantics, MaxNodesCapSetsTruncated) {
  SynthSpace space{3, 6};
  Params p = parParams(1, 2);
  p.maxNodes = 20;
  auto out = runSkeleton<SynthGen, Optimisation>(GetParam(), p, space,
                                                 SynthNode{});
  EXPECT_FALSE(out.complete);
  EXPECT_LT(out.metrics.nodesProcessed, completeTreeSize(3, 6));
}

INSTANTIATE_TEST_SUITE_P(AllSkeletons, StopSemantics,
                         ::testing::ValuesIn(kAllSkels),
                         [](const auto& paramInfo) {
                           return skelName(paramInfo.param);
                         });

// Every skeleton counts the same search the same way: a node per visit, and
// a backtrack per generator popped. On an unpruned complete tree every node
// is visited once and pushes one generator, so backtracks equal nodes.
class SearchCounts
    : public ::testing::TestWithParam<std::tuple<Skel, int>> {};

TEST_P(SearchCounts, BacktracksEqualNodesOnACompleteTree) {
  const auto [skel, nLoc] = GetParam();
  SynthSpace space{3, 5};
  const auto out = runSkeleton<SynthGen, Enum>(skel, parParams(nLoc, 2),
                                               space, SynthNode{});
  const auto size = completeTreeSize(3, 5);
  EXPECT_EQ(out.sum, size);
  EXPECT_EQ(out.metrics.nodesProcessed, size);
  EXPECT_EQ(out.metrics.backtracks, size);
  EXPECT_EQ(out.metrics.prunes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSkeletons, SearchCounts,
    ::testing::Combine(::testing::ValuesIn(kAllSkels), ::testing::Values(1, 2)),
    [](const auto& paramInfo) {
      return std::string(skelName(std::get<0>(paramInfo.param))) + "_" +
             std::to_string(std::get<1>(paramInfo.param)) + "loc";
    });

// The result gates cannot see a spawn rule firing at the wrong depth: every
// placement counts the same tree. The tasks each rule spawns on the complete
// 3-ary depth-5 tree pin where it fires.
TEST(SpawnRules, FireAtTheirDepths) {
  SynthSpace space{3, 5};
  const auto tasks = [&space](Skel skel, const Params& p) {
    return runSkeleton<SynthGen, Enum>(skel, p, space, SynthNode{})
        .metrics.tasksSpawned;
  };
  for (int nLoc : {1, 2}) {
    Params p = parParams(nLoc, 2);  // dcutoff 2
    // The root plus every node at depths 1-2.
    EXPECT_EQ(tasks(Skel::DepthBounded, p), 13u) << nLoc << " localities";
    // The root plus the depth-2 frontier.
    EXPECT_EQ(tasks(Skel::Ordered, p), 10u) << nLoc << " localities";
    // A budget never spent offloads nothing: the root only.
    p.backtrackBudget = 1'000'000'000;
    EXPECT_EQ(tasks(Skel::Budget, p), 1u) << nLoc << " localities";
  }
}

// Stack-Stealing spawns nothing: every task but the root is a split a victim
// handed to a thief, local or remote, and counted created as it did. The
// tree is large enough (2.4M nodes) that local thieves get work even on a
// loaded host.
TEST(SpawnRules, EveryStackStealingTaskButTheRootIsAStolenSplit) {
  SynthSpace space{3, 13};
  for (const auto& [nLoc, workers] : {std::pair{1, 3}, std::pair{2, 2}}) {
    const auto out = skeletons::StackStealing<SynthGen, Enum>::search(
        parParams(nLoc, workers), space, SynthNode{});
    const auto& m = out.metrics;
    EXPECT_EQ(out.sum, completeTreeSize(3, 13)) << nLoc << "x" << workers;
    EXPECT_GT(m.localSteals, 0u) << nLoc << "x" << workers;
    EXPECT_EQ(m.tasksSpawned, 1 + m.localSteals + m.remoteSteals)
        << nLoc << "x" << workers;
  }
}

namespace {
// The std::invalid_argument message `run` throws, or "" if it returns.
template <typename Run>
std::string rejection(Run&& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

Params paramsFrom(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return examples::paramsFromFlags(
      Flags(static_cast<int>(args.size()), args.data()));
}
}  // namespace

TEST(CoreSmoke, EngineRejectsEmptyLayouts) {
  // Neither layout can search (zero workers would return an empty result,
  // zero localities index an empty fabric): the error names the field.
  SynthSpace space{2, 3};
  const auto search = [&space](const Params& p) {
    return rejection([&] {
      skeletons::DepthBounded<SynthGen, Enum>::search(p, space, SynthNode{});
    });
  };
  EXPECT_NE(search(parParams(1, 0)).find("workersPerLocality"),
            std::string::npos);
  EXPECT_NE(search(parParams(0, 1)).find("nLocalities"), std::string::npos);
}

TEST(ParamsFromFlags, RemovedFlagsNameTheirReplacement) {
  const auto removed = [](std::vector<const char*> args) {
    return rejection([&] { paramsFrom(std::move(args)); });
  };
  EXPECT_NE(removed({"--netdelay", "200"}).find("use --net-delay"),
            std::string::npos);
  EXPECT_NE(removed({"--chunked"}).find("use --chunk-policy all"),
            std::string::npos);
  const std::string ordered = removed({"--ordered-pool", "global"});
  EXPECT_NE(ordered.find("--ordered-pool was removed"), std::string::npos);
  EXPECT_NE(ordered.find("--ordered-shards 1"), std::string::npos);
  const std::string chunkSize = removed({"--chunk-size", "8"});
  EXPECT_NE(chunkSize.find("--chunk-size was removed"), std::string::npos);
  EXPECT_NE(chunkSize.find("use --chunk-policy fixed:<k>"), std::string::npos);
}

TEST(ParamsFromFlags, OrderedShardsOneRunsOneGlobalHeap) {
  const Params p = paramsFrom({"--ordered-shards", "1", "--workers", "3"});
  EXPECT_EQ(p.workersPerLocality, 3);
  EXPECT_EQ(p.effectiveOrderedShards(), 1);
  SynthSpace space{3, 5};
  auto out = skeletons::Ordered<SynthGen, Enum>::search(p, space, SynthNode{});
  EXPECT_EQ(out.sum, completeTreeSize(3, 5));
}

TEST(ParamsFromFlags, TcpOnlyFlagsStayAcceptedUnderSim) {
  const char* argv[] = {"prog",   "--rank", "1", "--peers", "a:1,b:2",
                        "--peer-timeout-ms", "5"};
  Flags f(7, argv);
  EXPECT_EQ(examples::paramsFromFlags(f).transport, TransportKind::Sim);
  EXPECT_EQ(rejection([&] { f.rejectUnread(); }), "");
}

TEST(ParamsFromFlags, MalformedWorkersIsRejected) {
  for (const char* bad : {"abc", "2x", ""}) {
    EXPECT_NE(rejection([&] { paramsFrom({"--workers", bad}); })
                  .find("--workers"),
              std::string::npos)
        << "--workers '" << bad << "'";
  }
}
