// MaxClique application tests: the paper's Fig. 1 worked example, the greedy
// colour bound, DIMACS parsing, brute-force cross-checks, and agreement of
// all 4 coordinations (optimisation) plus k-clique decision searches.

#include <gtest/gtest.h>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common/run_skeleton.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::testing;

namespace {

Params parParams() {
  Params p;
  p.nLocalities = 1;
  p.workersPerLocality = 2;
  p.dcutoff = 2;
  p.backtrackBudget = 50;
  return p;
}

}  // namespace

TEST(Graph, BasicsAndDegreeSort) {
  Graph g = fig1Graph();
  EXPECT_EQ(g.size(), 8u);
  EXPECT_EQ(g.edgeCount(), 13u);
  EXPECT_TRUE(g.hasEdge(0, 3));   // a-d
  EXPECT_FALSE(g.hasEdge(2, 6));  // c-g
  Graph sorted = g;
  auto perm = sorted.sortByDegreeDesc();
  // Vertex a (old 0, degree 6) must come first.
  EXPECT_EQ(perm[0], 0u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted.degree(i), sorted.degree(i - 1));
  }
  // Relabelling preserves adjacency.
  for (std::size_t u = 0; u < 8; ++u) {
    for (std::size_t v = 0; v < 8; ++v) {
      EXPECT_EQ(sorted.hasEdge(u, v), g.hasEdge(perm[u], perm[v]));
    }
  }
}

TEST(Graph, DimacsRoundTrip) {
  const std::string text =
      "c example\n"
      "p edge 4 3\n"
      "e 1 2\n"
      "e 2 3\n"
      "e 3 4\n";
  Graph g = parseDimacsText(text);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_EQ(g.edgeCount(), 3u);
  EXPECT_TRUE(g.hasEdge(0, 1));
  EXPECT_TRUE(g.hasEdge(2, 3));
  EXPECT_FALSE(g.hasEdge(0, 3));
}

TEST(Graph, DimacsRejectsMalformed) {
  EXPECT_THROW(parseDimacsText("e 1 2\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsText("p edge 2 1\ne 1 5\n"), std::runtime_error);
  EXPECT_THROW(parseDimacsText(""), std::runtime_error);
}

TEST(Graph, GeneratorsAreDeterministic) {
  Graph a = gnp(50, 0.5, 7);
  Graph b = gnp(50, 0.5, 7);
  Graph c = gnp(50, 0.5, 8);
  EXPECT_EQ(a.edgeCount(), b.edgeCount());
  EXPECT_NE(a.edgeCount(), c.edgeCount());
  // Density roughly matches p.
  EXPECT_NEAR(a.density(), 0.5, 0.1);
}

TEST(Graph, PlantedCliqueContainsClique) {
  Graph g = plantedClique(40, 0.3, 8, 11);
  // The planted clique guarantees maximum clique >= 8.
  EXPECT_GE(mc::bruteForceMaxClique(g), 8);
}

TEST(MaxClique, GreedyColourIsProperAndMonotone) {
  Graph g = gnp(30, 0.5, 3);
  DynBitset p(30);
  p.setAll();
  mc::ColourOrder order;
  mc::greedyColour(g, p, order);
  ASSERT_EQ(order.size(), 30u);
  // Prefix colour counts are non-decreasing.
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(order[i].colour, order[i - 1].colour);
  }
  // Same-colour vertices form an independent set (proper colouring).
  for (std::size_t i = 0; i < order.size(); ++i) {
    for (std::size_t j = i + 1; j < order.size(); ++j) {
      if (order[i].colour == order[j].colour) {
        EXPECT_FALSE(g.hasEdge(static_cast<std::size_t>(order[i].vertex),
                               static_cast<std::size_t>(order[j].vertex)));
      }
    }
  }
  // Colour count bounds the clique number.
  EXPECT_GE(order.colours(), mc::bruteForceMaxClique(g));
}

TEST(MaxClique, ColourOrderCopiesInlineAndHeapStorage) {
  // 30 entries fit inline; 600 exceed the inline capacity and use the heap.
  for (std::size_t n : {std::size_t{30}, std::size_t{600}}) {
    Graph g = gnp(n, 0.1, 5);
    DynBitset p(n);
    p.setAll();
    mc::ColourOrder order;
    mc::greedyColour(g, p, order);
    ASSERT_EQ(order.size(), n);
    mc::ColourOrder copy = order;
    mc::ColourOrder moved = std::move(copy);
    mc::ColourOrder assigned;
    assigned = moved;
    ASSERT_EQ(assigned.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(assigned[i].vertex, order[i].vertex);
      EXPECT_EQ(assigned[i].colour, order[i].colour);
    }
    // A reused buffer takes a smaller set and reports only its entries.
    DynBitset half(n);
    for (std::size_t v = 0; v < n / 2; ++v) half.set(v);
    mc::greedyColour(g, half, order);
    EXPECT_EQ(order.size(), n / 2);
    EXPECT_LE(order.colours(), assigned.colours());
  }
}

TEST(MaxClique, Fig1WorkedExample) {
  Graph g = fig1Graph();
  EXPECT_EQ(mc::bruteForceMaxClique(g), 4);  // {a,d,f,g}
  auto out = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  EXPECT_EQ(out.objective, 4);
  ASSERT_TRUE(out.incumbent.has_value());
  EXPECT_TRUE(mc::isClique(g, out.incumbent->clique));
  EXPECT_EQ(out.incumbent->clique.count(), 4u);
  // The exact max clique of Fig. 1: vertices a, d, f, g.
  EXPECT_TRUE(out.incumbent->clique.test(0));
  EXPECT_TRUE(out.incumbent->clique.test(3));
  EXPECT_TRUE(out.incumbent->clique.test(5));
  EXPECT_TRUE(out.incumbent->clique.test(6));
}

TEST(MaxClique, PruningReducesNodeCount) {
  Graph g = gnp(45, 0.6, 5);
  auto pruned = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  auto unpruned = skeletons::Sequential<mc::Gen, Optimisation>::search(
      Params{}, g, mc::rootNode(g));
  EXPECT_EQ(pruned.objective, unpruned.objective);
  EXPECT_LT(pruned.metrics.nodesProcessed, unpruned.metrics.nodesProcessed);
  EXPECT_GT(pruned.metrics.prunes, 0u);
}

class MaxCliqueSkeletons : public ::testing::TestWithParam<Skel> {};

TEST_P(MaxCliqueSkeletons, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    Graph g = gnp(35, 0.55, seed);
    auto expect = mc::bruteForceMaxClique(g);
    auto out = runSkeleton<mc::Gen, Optimisation,
                           BoundFunction<&mc::upperBound>, PruneLevel>(
        GetParam(), parParams(), g, mc::rootNode(g));
    EXPECT_EQ(out.objective, expect) << "seed " << seed;
    ASSERT_TRUE(out.incumbent.has_value());
    EXPECT_TRUE(mc::isClique(g, out.incumbent->clique));
    EXPECT_EQ(static_cast<std::int64_t>(out.incumbent->clique.count()),
              out.objective);
  }
}

TEST_P(MaxCliqueSkeletons, TwoLocalitiesAgree) {
  Graph g = gnp(32, 0.5, 9);
  auto expect = mc::bruteForceMaxClique(g);
  Params p = parParams();
  p.nLocalities = 2;
  auto out = runSkeleton<mc::Gen, Optimisation,
                         BoundFunction<&mc::upperBound>, PruneLevel>(GetParam(), p, g,
                                                         mc::rootNode(g));
  EXPECT_EQ(out.objective, expect);
}

TEST_P(MaxCliqueSkeletons, KCliqueDecision) {
  Graph g = plantedClique(40, 0.4, 9, 21);
  auto maxSize = mc::bruteForceMaxClique(g);
  ASSERT_GE(maxSize, 9);
  Params p = parParams();
  // Satisfiable: k == planted size.
  p.decisionTarget = 9;
  auto sat = runSkeleton<mc::Gen, Decision, BoundFunction<&mc::upperBound>, PruneLevel>(
      GetParam(), p, g, mc::rootNode(g));
  EXPECT_TRUE(sat.decided);
  ASSERT_TRUE(sat.incumbent.has_value());
  EXPECT_TRUE(mc::isClique(g, sat.incumbent->clique));
  EXPECT_GE(sat.incumbent->size, 9);
  // Unsatisfiable: k beyond the maximum.
  p.decisionTarget = maxSize + 1;
  auto unsat = runSkeleton<mc::Gen, Decision, BoundFunction<&mc::upperBound>, PruneLevel>(
      GetParam(), p, g, mc::rootNode(g));
  EXPECT_FALSE(unsat.decided);
}

INSTANTIATE_TEST_SUITE_P(AllSkeletons, MaxCliqueSkeletons,
                         ::testing::ValuesIn(kAllSkels),
                         [](const auto& paramInfo) {
                           return skelName(paramInfo.param);
                         });

TEST(MaxClique, NodeSerializationRoundTrip) {
  Graph g = fig1Graph();
  mc::Node root = mc::rootNode(g);
  mc::Gen gen(g, root);
  ASSERT_TRUE(gen.hasNext());
  mc::Node child = gen.next();
  auto bytes = toBytes(child);
  auto copy = fromBytes<mc::Node>(bytes);
  EXPECT_TRUE(copy.clique == child.clique);
  EXPECT_TRUE(copy.candidates == child.candidates);
  EXPECT_EQ(copy.size, child.size);
  EXPECT_EQ(copy.bound, child.bound);
}
