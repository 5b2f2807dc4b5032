// Baseline solver tests: the hand-coded sequential and OpenMP MaxClique
// implementations used in the Table 1 comparison must agree with brute force
// and with the YewPar skeletons.

#include <gtest/gtest.h>

#include "apps/baselines/clique_seq.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "core/yewpar.hpp"

using namespace yewpar;
using namespace yewpar::apps;

TEST(BaselineSeq, MatchesBruteForce) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    Graph g = gnp(38, 0.55, seed);
    auto res = baseline::maxCliqueSeq(g);
    EXPECT_EQ(res.size, mc::bruteForceMaxClique(g)) << "seed " << seed;
    // Witness is a real clique of the reported size.
    DynBitset clique(g.size());
    for (auto v : res.members) clique.set(v);
    EXPECT_TRUE(mc::isClique(g, clique));
    EXPECT_EQ(static_cast<std::int32_t>(res.members.size()), res.size);
    EXPECT_GT(res.nodes, 0u);
  }
}

TEST(BaselineSeq, Fig1) {
  Graph g = fig1Graph();
  auto res = baseline::maxCliqueSeq(g);
  EXPECT_EQ(res.size, 4);
}

TEST(BaselineOmp, MatchesSequential) {
  for (std::uint64_t seed : {5ULL, 6ULL, 7ULL}) {
    Graph g = gnp(40, 0.6, seed);
    auto seq = baseline::maxCliqueSeq(g);
    auto par = baseline::maxCliqueOmp(g, 2);
    EXPECT_EQ(par.size, seq.size) << "seed " << seed;
    DynBitset clique(g.size());
    for (auto v : par.members) clique.set(v);
    EXPECT_TRUE(mc::isClique(g, clique));
  }
}

TEST(BaselineVsYewPar, SameOptimum) {
  Graph g = plantedClique(42, 0.5, 10, 13);
  auto base = baseline::maxCliqueSeq(g);
  auto out = skeletons::Sequential<
      mc::Gen, Optimisation,
      BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, g, mc::rootNode(g));
  EXPECT_EQ(static_cast<std::int64_t>(base.size), out.objective);
}

// The Sequential skeleton does exactly the hand-written solver's work: it
// returns the same clique, and the nodes it does not prune are the nodes
// maxCliqueSeq expands. (A child failing the bound is visited and pruned by
// the skeleton but never entered by the baseline.)
TEST(BaselineVsYewPar, SameWorkAsHandWritten) {
  std::vector<std::pair<std::string, Graph>> graphs;
  const auto add = [&](std::string name, Graph g) {
    g.sortByDegreeDesc();
    graphs.emplace_back(std::move(name), std::move(g));
  };
  graphs.emplace_back("fig1", fig1Graph());
  // The perf benchmark's Table 1 stand-ins (without its relabelling).
  add("gnp(130,.88,5)", gnp(130, 0.88, 5));
  add("gnp(190,.72,3)", gnp(190, 0.72, 3));
  add("twoDensity(260,.40,.82,7)", twoDensity(260, 0.40, 0.82, 7));
  add("gnp(160,.78,36)", gnp(160, 0.78, 36));
  for (std::uint64_t seed = 1; seed <= 42; ++seed) {
    const double density = 0.3 + 0.6 * static_cast<double>(seed % 7) / 6.0;
    const auto n = static_cast<std::size_t>(30 + seed % 5 * 10);
    add("gnp(" + std::to_string(n) + "," + std::to_string(density) + "," +
            std::to_string(seed) + ")",
        gnp(n, density, seed));
  }

  for (const auto& [name, g] : graphs) {
    const auto base = baseline::maxCliqueSeq(g);
    const auto out = skeletons::Sequential<
        mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
        PruneLevel>::search(Params{}, g, mc::rootNode(g));
    DynBitset baseClique(g.size());
    for (auto v : base.members) baseClique.set(v);
    ASSERT_TRUE(out.incumbent.has_value()) << name;
    EXPECT_EQ(out.incumbent->clique, baseClique) << name;
    EXPECT_EQ(out.metrics.nodesProcessed - out.metrics.prunes, base.nodes)
        << name;
  }
}
