// Chunked steal replies, end to end: ChunkPolicy parsing and sizing, the
// multi-split stack splitter, and the engine-level guarantee that every
// chunking policy reproduces the unchunked search result on enumeration and
// branch-and-bound workloads (the Section 4.2 ablation's correctness leg).
// The CI TSan lane runs this suite alongside test_runtime.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common/run_skeleton.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"

using namespace yewpar;
using namespace yewpar::testing;

namespace {

const char* kPolicySpecs[] = {"one", "fixed:2", "fixed:4",
                              "half", "adaptive", "all"};

}  // namespace

TEST(ChunkPolicy, ParsesEverySpec) {
  EXPECT_EQ(parseChunkPolicy("one").kind, ChunkKind::One);
  EXPECT_EQ(parseChunkPolicy("half").kind, ChunkKind::Half);
  EXPECT_EQ(parseChunkPolicy("adaptive").kind, ChunkKind::Adaptive);
  EXPECT_EQ(parseChunkPolicy("all").kind, ChunkKind::All);

  auto fixedDefault = parseChunkPolicy("fixed");
  EXPECT_EQ(fixedDefault.kind, ChunkKind::Fixed);
  EXPECT_EQ(fixedDefault.k, 4u);

  auto fixed8 = parseChunkPolicy("fixed:8");
  EXPECT_EQ(fixed8.kind, ChunkKind::Fixed);
  EXPECT_EQ(fixed8.k, 8u);

  // Round-trips through the printable name.
  for (const char* spec : kPolicySpecs) {
    EXPECT_EQ(chunkPolicyName(parseChunkPolicy(spec)), spec);
  }
}

TEST(ChunkPolicy, RejectsBadSpecs) {
  EXPECT_THROW(parseChunkPolicy(""), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("chunky"), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("fixed:0"), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("fixed:-3"), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("fixed:"), std::invalid_argument);
  EXPECT_THROW(parseChunkPolicy("fixed:2x"), std::invalid_argument);
  // Values that would wrap the uint32 chunk size are rejected, not
  // truncated to a degenerate chunk of 0/1.
  EXPECT_THROW(parseChunkPolicy("fixed:4294967296"), std::invalid_argument);
}

TEST(ChunkPolicy, ChunkForSizesFromAvailableWork) {
  EXPECT_EQ(parseChunkPolicy("one").chunkFor(100), 1u);
  EXPECT_EQ(parseChunkPolicy("fixed:8").chunkFor(100), 8u);
  EXPECT_EQ(parseChunkPolicy("half").chunkFor(10), 5u);
  EXPECT_EQ(parseChunkPolicy("adaptive").chunkFor(16), 4u);
  EXPECT_EQ(parseChunkPolicy("adaptive").chunkFor(24), 4u);
  EXPECT_EQ(parseChunkPolicy("adaptive").chunkFor(25), 5u);
  EXPECT_EQ(parseChunkPolicy("all").chunkFor(7), 7u);
  // Never starves: a lone task can always move.
  for (const char* spec : kPolicySpecs) {
    EXPECT_GE(parseChunkPolicy(spec).chunkFor(0), 1u) << spec;
    EXPECT_GE(parseChunkPolicy(spec).chunkFor(1), 1u) << spec;
  }
}

namespace {

// splitLowest only needs Ctx for its Task alias.
struct FakeCtx {
  using Task = yewpar::detail::EngineTask<SynthNode>;
};

// A generator stack describing a descent: at each level one child was taken
// (the path) leaving branching-1 unexplored siblings.
std::vector<SynthGen> descend(const SynthSpace& space, int levels) {
  std::vector<SynthGen> stack;
  SynthNode cur{};
  for (int l = 0; l < levels; ++l) {
    stack.emplace_back(space, cur);
    cur = stack.back().next();  // follow the first child down
  }
  return stack;
}

}  // namespace

TEST(SplitLowest, OneTakesASingleLowestDepthNode) {
  SynthSpace space{3, 6};
  auto stack = descend(space, 3);  // 2 unexplored siblings per level
  FakeCtx ctx;
  auto tasks = yewpar::detail::splitLowest(ctx, stack, /*rootDepth=*/0,
                                           parseChunkPolicy("one"));
  ASSERT_EQ(tasks.size(), 1u);
  EXPECT_EQ(tasks[0].depth, 1);  // lowest depth first
  EXPECT_TRUE(stack[0].hasNext());  // one sibling left at the lowest level
}

TEST(SplitLowest, AllTakesEverySiblingAtTheLowestLevelOnly) {
  SynthSpace space{4, 6};
  auto stack = descend(space, 3);  // 3 unexplored siblings per level
  FakeCtx ctx;
  auto tasks = yewpar::detail::splitLowest(ctx, stack, /*rootDepth=*/0,
                                           parseChunkPolicy("all"));
  ASSERT_EQ(tasks.size(), 3u);
  for (const auto& t : tasks) EXPECT_EQ(t.depth, 1);
  EXPECT_FALSE(stack[0].hasNext());  // lowest level drained...
  EXPECT_TRUE(stack[1].hasNext());   // ...deeper levels untouched
}

TEST(SplitLowest, FixedChunkSpillsIntoDeeperLevels) {
  SynthSpace space{3, 6};
  auto stack = descend(space, 4);  // 2 unexplored siblings per level
  FakeCtx ctx;
  auto tasks = yewpar::detail::splitLowest(ctx, stack, /*rootDepth=*/5,
                                           parseChunkPolicy("fixed:5"));
  // 2 from the lowest level, 2 from the next, 1 from the third: a
  // multi-split reply.
  ASSERT_EQ(tasks.size(), 5u);
  EXPECT_EQ(tasks[0].depth, 6);
  EXPECT_EQ(tasks[1].depth, 6);
  EXPECT_EQ(tasks[2].depth, 7);
  EXPECT_EQ(tasks[3].depth, 7);
  EXPECT_EQ(tasks[4].depth, 8);
  EXPECT_TRUE(stack[2].hasNext());  // third level kept one sibling
}

TEST(SplitLowest, EmptyStackSplitsNothing) {
  std::vector<SynthGen> stack;
  FakeCtx ctx;
  for (const char* spec : kPolicySpecs) {
    EXPECT_TRUE(yewpar::detail::splitLowest(ctx, stack, 0,
                                            parseChunkPolicy(spec))
                    .empty())
        << spec;
  }
}

// ---- engine-level correctness: every policy, every stealing skeleton ----

TEST(ChunkedSteals, EveryPolicyCountsTheFullTree) {
  SynthSpace space{3, 7};
  const auto expect = completeTreeSize(3, 7);
  for (const char* spec : kPolicySpecs) {
    for (Skel skel :
         {Skel::StackStealing, Skel::DepthBounded, Skel::Budget}) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 3;
      p.backtrackBudget = 64;
      p.chunk = parseChunkPolicy(spec);
      auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
          skel, p, space, SynthNode{});
      EXPECT_EQ(out.sum, expect) << spec << " / " << skelName(skel);
      // Accounting invariant: a successful steal transaction moves at
      // least one task.
      EXPECT_GE(out.metrics.tasksStolen(), out.metrics.stealReplies);
    }
  }
}

TEST(ChunkedSteals, EveryPolicyFindsTheSameMaxClique) {
  auto g = apps::gnp(45, 0.6, 3);
  g.sortByDegreeDesc();
  const auto seq =
      runSkeleton<apps::mc::Gen, Optimisation,
                  BoundFunction<&apps::mc::upperBound>, PruneLevel>(
          Skel::Seq, Params{}, g, apps::mc::rootNode(g));
  for (const char* spec : kPolicySpecs) {
    for (Skel skel : {Skel::StackStealing, Skel::DepthBounded}) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 2;
      p.chunk = parseChunkPolicy(spec);
      auto out = runSkeleton<apps::mc::Gen, Optimisation,
                             BoundFunction<&apps::mc::upperBound>,
                             PruneLevel>(skel, p, g, apps::mc::rootNode(g));
      EXPECT_EQ(out.objective, seq.objective)
          << spec << " / " << skelName(skel);
    }
  }
}

TEST(ChunkedSteals, OrderedSkeletonSurvivesChunkedHandOut) {
  // The Ordered skeleton's priority pool must keep its global-order
  // guarantee when steal replies carry chunks.
  SynthSpace space{3, 6};
  const auto expect = completeTreeSize(3, 6);
  for (const char* spec : kPolicySpecs) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 2;
    p.chunk = parseChunkPolicy(spec);
    auto out = runSkeleton<SynthGen, Enumeration<CountAll>>(
        Skel::Ordered, p, space, SynthNode{});
    EXPECT_EQ(out.sum, expect) << spec;
  }
}
