// Quickstart: the paper's Fig. 1 worked example, end to end.
//
// Builds the 8-vertex graph of Fig. 1, composes a search application from
// the three ingredients (Lazy Node Generator + search type + coordination,
// exactly Listing 5), and runs it three ways:
//   1. Optimisation: find the maximum clique ({a,d,f,g}, size 4).
//   2. Decision: is there a 3-clique? (yes, found early by short-circuit)
//   3. Enumeration: how many cliques does the search tree contain?
//
// Run:  ./quickstart [--skeleton seq|depthbounded|stacksteal|budget]
//                    [--workers N] [--localities L]

#include <cstdio>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "depthbounded");
  Params params = examples::paramsFromFlags(flags);
  flags.rejectUnread();

  Graph g = fig1Graph();
  const char* names = "abcdefgh";
  std::printf("Fig. 1 graph: %zu vertices, %zu edges\n\n", g.size(),
              g.edgeCount());

  // 1. Optimisation: maximum clique (Listing 5 composition).
  auto best = examples::searchWith<mc::Gen, Optimisation,
                                   BoundFunction<&mc::upperBound>, PruneLevel>(
      skeleton, params, g, mc::rootNode(g));
  // Under --transport tcp every rank runs all three (collective) searches,
  // but only rank 0 holds the merged result and prints.
  if (best.isRoot) {
    std::printf("[optimisation] maximum clique size = %lld, members = {",
                static_cast<long long>(best.objective));
    bool first = true;
    best.incumbent->clique.forEach([&](std::size_t v) {
      std::printf("%s%c", first ? "" : ",", names[v]);
      first = false;
    });
    std::printf("}  (%llu nodes searched)\n",
                static_cast<unsigned long long>(best.metrics.nodesProcessed));
  }

  // 2. Decision: 3-clique. The paper notes only 3 nodes are needed
  // sequentially thanks to the search order heuristic.
  Params dec = params;
  dec.decisionTarget = 3;
  auto found = examples::searchWith<mc::Gen, Decision,
                                    BoundFunction<&mc::upperBound>, PruneLevel>(
      skeleton, dec, g, mc::rootNode(g));
  if (found.isRoot) {
    std::printf("[decision]     3-clique %s (%llu nodes searched)\n",
                found.decided ? "exists" : "does not exist",
                static_cast<unsigned long long>(found.metrics.nodesProcessed));
  }

  // 3. Enumeration: count every node of the clique search tree (each node
  // is a distinct clique, including the empty one).
  auto count = examples::searchWith<mc::Gen, Enumeration<CountAll>>(
      skeleton, params, g, mc::rootNode(g));
  if (!count.isRoot) return 0;
  std::printf("[enumeration]  search tree has %llu nodes (= cliques)\n\n",
              static_cast<unsigned long long>(count.sum));

  examples::printMetrics(best);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
