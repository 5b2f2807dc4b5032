// Property-based suites: monoid laws, bound admissibility over random
// search-tree walks, PruneLevel equivalence, serialization round-trips for
// every application node type, and priority-pool ordering.

#include <gtest/gtest.h>

#include "apps/baselines/clique_seq.hpp"
#include "apps/knapsack/knapsack.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "apps/ns/ns.hpp"
#include "apps/sip/sip.hpp"
#include "apps/tsp/tsp.hpp"
#include "apps/uts/uts.hpp"
#include "common/run_skeleton.hpp"
#include "runtime/workpool.hpp"
#include "util/rng.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

// ---- monoid laws -----------------------------------------------------

TEST(MonoidLaws, CountMonoid) {
  using M = CountMonoid;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    auto a = rng.below(1000), b = rng.below(1000), c = rng.below(1000);
    EXPECT_EQ(M::plus(a, M::zero()), a);
    EXPECT_EQ(M::plus(M::zero(), a), a);
    EXPECT_EQ(M::plus(a, b), M::plus(b, a));
    EXPECT_EQ(M::plus(M::plus(a, b), c), M::plus(a, M::plus(b, c)));
  }
}

TEST(MonoidLaws, MaxMonoid) {
  using M = MaxMonoid;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    auto a = static_cast<std::int64_t>(rng.below(1000));
    auto b = static_cast<std::int64_t>(rng.below(1000));
    auto c = static_cast<std::int64_t>(rng.below(1000));
    EXPECT_EQ(M::plus(a, M::zero()), a);
    EXPECT_EQ(M::plus(a, b), M::plus(b, a));
    EXPECT_EQ(M::plus(M::plus(a, b), c), M::plus(a, M::plus(b, c)));
  }
}

TEST(MonoidLaws, DepthHistogramMonoid) {
  using M = DepthHistogramMonoid;
  Rng rng(3);
  auto randomHist = [&] {
    M::Value v(rng.below(6), 0);
    for (auto& x : v) x = rng.below(50);
    return v;
  };
  for (int i = 0; i < 100; ++i) {
    auto a = randomHist(), b = randomHist(), c = randomHist();
    EXPECT_EQ(M::plus(a, M::zero()), a);
    EXPECT_EQ(M::plus(M::zero(), a), a);
    EXPECT_EQ(M::plus(a, b), M::plus(b, a));
    EXPECT_EQ(M::plus(M::plus(a, b), c), M::plus(a, M::plus(b, c)));
  }
}

// ---- bound admissibility (condition 1 of Section 3.5) ----------------
//
// Walk random root-to-leaf paths; along each path the parent's bound must
// dominate every descendant's bound and objective (bounds are monotonically
// non-increasing down any branch for these applications).

TEST(BoundAdmissibility, KnapsackBoundsDominateDescendants) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    auto inst = ks::randomInstance(20, 60, 0.5, 100 + trial);
    ks::Node node;
    std::int64_t parentBound = ks::upperBound(inst, node);
    while (true) {
      ks::Gen gen(inst, node);
      std::vector<ks::Node> children;
      while (gen.hasNext()) children.push_back(gen.next());
      if (children.empty()) break;
      node = children[rng.below(children.size())];
      const auto childBound = ks::upperBound(inst, node);
      EXPECT_LE(node.getObj(), parentBound);
      EXPECT_LE(childBound, parentBound);
      parentBound = childBound;
    }
  }
}

TEST(BoundAdmissibility, TspBoundsDominateDescendants) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    auto inst = tsp::randomEuclidean(9, 200 + trial);
    auto node = tsp::rootNode(inst);
    std::int64_t parentBound = tsp::upperBound(inst, node);
    while (true) {
      tsp::Gen gen(inst, node);
      std::vector<tsp::Node> children;
      while (gen.hasNext()) children.push_back(gen.next());
      if (children.empty()) break;
      node = children[rng.below(children.size())];
      const auto childBound = tsp::upperBound(inst, node);
      EXPECT_LE(node.getObj(), parentBound);
      EXPECT_LE(childBound, parentBound);
      parentBound = childBound;
    }
    // At a complete tour the bound equals the objective.
    EXPECT_TRUE(node.completeTour);
    EXPECT_EQ(tsp::upperBound(inst, node), node.getObj());
  }
}

namespace {
// Largest clique among the vertices of p, by exhaustive search.
std::int32_t largestCliqueWithin(const Graph& g, DynBitset p) {
  std::int32_t best = 0;
  for (auto v = p.findFirst(); v != DynBitset::npos; v = p.findFirst()) {
    p.reset(v);
    DynBitset next = p;
    next &= g.neighbours(v);
    best = std::max(best, 1 + largestCliqueWithin(g, next));
  }
  return best;
}
}  // namespace

TEST(BoundAdmissibility, CliqueColourBoundDominatesSubtree) {
  // Along seeded random root-to-leaf paths, every child of every node on
  // the path has a colour bound that is admissible (never below the best
  // clique reachable in its subtree, found by exhaustive search) and tight:
  // the parent's size plus the prefix colour count of the child's vertex,
  // which is exactly the hand-written solver's prune rule.
  Rng rng(11);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const Graph g = gnp(22, 0.3 + 0.15 * static_cast<double>(seed), seed);
    auto root = mc::rootNode(g);
    EXPECT_GE(mc::upperBound(g, root), mc::bruteForceMaxClique(g));
    for (int path = 0; path < 4; ++path) {
      mc::Node node = root;
      for (int depth = 0;; ++depth) {
        mc::ColourOrder order;
        mc::greedyColour(g, node.candidates, order);
        mc::Gen gen(g, node);
        std::vector<mc::Node> children;
        for (std::size_t k = order.size(); gen.hasNext();) {
          const auto child = gen.next();
          --k;
          EXPECT_EQ(mc::upperBound(g, child), node.size + order[k].colour)
              << "seed " << seed << " depth " << depth;
          EXPECT_GE(mc::upperBound(g, child),
                    child.size + largestCliqueWithin(g, child.candidates))
              << "seed " << seed << " depth " << depth;
          children.push_back(child);
        }
        if (children.empty()) break;
        node = children[rng.below(children.size())];
      }
    }
  }
}

TEST(BoundAdmissibility, CliqueBeyondInlineCapacity) {
  // 600 vertices exceed the inline capacity of DynBitset and of the colour
  // order, so the root's colour order and every bitset live on the heap.
  Graph g = gnp(600, 0.05, 21);
  g.sortByDegreeDesc();
  ASSERT_GT(g.size(), mc::ColourOrder::kInlineEntries);
  const auto base = baseline::maxCliqueSeq(g);
  DynBitset baseClique(g.size());
  for (auto v : base.members) baseClique.set(v);
  EXPECT_TRUE(mc::isClique(g, baseClique));
  EXPECT_EQ(static_cast<std::int32_t>(baseClique.count()), base.size);

  Params p;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  for (Skel s : {Skel::Seq, Skel::DepthBounded}) {
    const auto out = runSkeleton<mc::Gen, Optimisation,
                                 BoundFunction<&mc::upperBound>, PruneLevel>(
        s, p, g, mc::rootNode(g));
    EXPECT_EQ(out.objective, base.size) << skelName(s);
    ASSERT_TRUE(out.incumbent.has_value()) << skelName(s);
    EXPECT_TRUE(mc::isClique(g, out.incumbent->clique)) << skelName(s);
    EXPECT_EQ(static_cast<std::int64_t>(out.incumbent->clique.count()),
              out.objective)
        << skelName(s);
  }
}

// ---- PruneLevel equivalence ------------------------------------------

TEST(PruneLevelProp, SameOptimumFewerNodes) {
  for (std::uint64_t seed : {3ULL, 4ULL, 5ULL}) {
    Graph g = gnp(40, 0.6, seed);
    auto with = skeletons::Sequential<
        mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
        PruneLevel>::search(Params{}, g, mc::rootNode(g));
    auto without = skeletons::Sequential<
        mc::Gen, Optimisation,
        BoundFunction<&mc::upperBound>>::search(Params{}, g,
                                                mc::rootNode(g));
    EXPECT_EQ(with.objective, without.objective);
    EXPECT_LE(with.metrics.nodesProcessed, without.metrics.nodesProcessed);
  }
}

TEST(PruneLevelProp, ParallelAgreesWithSequential) {
  Graph g = gnp(36, 0.55, 8);
  auto seq = skeletons::Sequential<
      mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
      PruneLevel>::search(Params{}, g, mc::rootNode(g));
  Params p;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  p.backtrackBudget = 30;
  for (Skel s : kParallelSkels) {
    auto out = runSkeleton<mc::Gen, Optimisation,
                           BoundFunction<&mc::upperBound>, PruneLevel>(
        s, p, g, mc::rootNode(g));
    EXPECT_EQ(out.objective, seq.objective) << skelName(s);
  }
}

// ---- serialization round-trips for every application node ------------

namespace {
template <typename Node>
void expectRoundTrip(const Node& n, bool (*eq)(const Node&, const Node&)) {
  auto copy = fromBytes<Node>(toBytes(n));
  EXPECT_TRUE(eq(n, copy));
}
}  // namespace

TEST(Serialization, AllApplicationNodes) {
  {  // knapsack
    auto inst = ks::randomInstance(12, 40, 0.5, 1);
    ks::Gen gen(inst, ks::Node{});
    ASSERT_TRUE(gen.hasNext());
    expectRoundTrip<ks::Node>(gen.next(), [](auto& a, auto& b) {
      return a.chosen == b.chosen && a.lastItem == b.lastItem &&
             a.profit == b.profit && a.weight == b.weight;
    });
  }
  {  // tsp
    auto inst = tsp::randomEuclidean(8, 2);
    tsp::Gen gen(inst, tsp::rootNode(inst));
    ASSERT_TRUE(gen.hasNext());
    expectRoundTrip<tsp::Node>(gen.next(), [](auto& a, auto& b) {
      return a.path == b.path && a.visited == b.visited && a.cost == b.cost &&
             a.completeTour == b.completeTour;
    });
  }
  {  // sip
    auto inst = sip::satInstance(14, 0.5, 5, 3);
    sip::Gen gen(inst, sip::rootNode(inst));
    ASSERT_TRUE(gen.hasNext());
    expectRoundTrip<sip::Node>(gen.next(), [](auto& a, auto& b) {
      return a.mapping == b.mapping && a.used == b.used;
    });
  }
  {  // uts
    uts::Params p;
    expectRoundTrip<uts::Node>(uts::rootNode(p), [](auto& a, auto& b) {
      return a.d == b.d && a.state == b.state;
    });
  }
  {  // ns
    auto space = ns::makeSpace(6);
    ns::Gen gen(space, ns::rootNode(space));
    ASSERT_TRUE(gen.hasNext());
    expectRoundTrip<ns::Node>(gen.next(), [](auto& a, auto& b) {
      return a.members == b.members && a.frobenius == b.frobenius &&
             a.genus == b.genus;
    });
  }
}

TEST(Serialization, SpacesRoundTrip) {
  {
    Graph g = gnp(20, 0.5, 1);
    auto copy = fromBytes<Graph>(toBytes(g));
    EXPECT_EQ(copy.size(), g.size());
    EXPECT_EQ(copy.edgeCount(), g.edgeCount());
  }
  {
    auto inst = ks::randomInstance(10, 30, 0.5, 2);
    auto copy = fromBytes<ks::Instance>(toBytes(inst));
    EXPECT_EQ(copy.profit, inst.profit);
    EXPECT_EQ(copy.capacity, inst.capacity);
  }
  {
    auto inst = tsp::randomEuclidean(7, 3);
    auto copy = fromBytes<tsp::Instance>(toBytes(inst));
    EXPECT_EQ(copy.dist, inst.dist);
    EXPECT_EQ(copy.minOut, inst.minOut);
  }
}

// ---- one-shard priority pool (Ordered skeleton substrate) -------------

namespace {
struct SeqTask {
  std::uint64_t seq = 0;
  int payload = 0;
};
}  // namespace

TEST(OneShardPool, PopsInSequenceOrder) {
  rt::ShardedPriorityPool<SeqTask> pool(/*shards=*/1);
  Rng rng(9);
  std::vector<std::uint64_t> seqs;
  for (int i = 0; i < 200; ++i) seqs.push_back(rng.below(100000));
  for (auto s : seqs) pool.push(SeqTask{s, 0}, 0);
  std::sort(seqs.begin(), seqs.end());
  for (auto expected : seqs) {
    auto t = pool.pop();
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->seq, expected);
  }
  EXPECT_FALSE(pool.pop().has_value());
}

TEST(OneShardPool, StealTakesLowestToo) {
  rt::ShardedPriorityPool<SeqTask> pool(/*shards=*/1);
  pool.push(SeqTask{5, 0}, 0);
  pool.push(SeqTask{1, 0}, 0);
  pool.push(SeqTask{3, 0}, 0);
  EXPECT_EQ(pool.steal()->seq, 1u);
  EXPECT_EQ(pool.pop()->seq, 3u);
}
