// MaxClique / k-clique driver, modelled on the YewPar artifact's command
// line (Appendix A.4):
//
//   maxclique -f graph.clq --skeleton depthbounded -d 2 --workers 4
//   maxclique --family brock --n 90 --seed 1 --skeleton budget -b 10000
//   maxclique --decisionBound 27 ...            (k-clique decision search)
//
// Without -f, a seeded synthetic instance is generated (see --family).

#include <cstdio>
#include <string>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

namespace {

Graph loadGraph(const Flags& flags) {
  if (flags.has("f")) return parseDimacs(flags.getString("f", ""));
  const auto family = flags.getString("family", "brock");
  const auto n = static_cast<std::size_t>(flags.getInt("n", 80));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  if (family == "brock") return gnp(n, 0.65, seed);
  if (family == "phat") return twoDensity(n, 0.3, 0.8, seed);
  if (family == "san") {
    return plantedClique(n, 0.6, static_cast<std::size_t>(flags.getInt("k", 12)),
                         seed);
  }
  throw std::runtime_error("unknown --family (brock|phat|san)");
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  Graph g = loadGraph(flags);
  flags.rejectUnread();
  g.sortByDegreeDesc();  // static degree order (MCSa)
  std::printf("graph: %zu vertices, %zu edges, density %.2f\n", g.size(),
              g.edgeCount(), g.density());

  if (params.decisionTarget > 0) {
    // k-clique decision search.
    auto out = examples::searchWith<mc::Gen, Decision,
                                    BoundFunction<&mc::upperBound>, PruneLevel>(
        skeleton, params, g, mc::rootNode(g));
    if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
    std::printf("%lld-clique: %s\n",
                static_cast<long long>(params.decisionTarget),
                out.decided ? "FOUND" : "not found");
    examples::printMetrics(out);
    return 0;
  }

  auto out = examples::searchWith<mc::Gen, Optimisation,
                                  BoundFunction<&mc::upperBound>, PruneLevel>(
      skeleton, params, g, mc::rootNode(g));
  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  std::printf("maximum clique size: %lld\nvertices:",
              static_cast<long long>(out.objective));
  out.incumbent->clique.forEach(
      [&](std::size_t v) { std::printf(" %zu", v); });
  std::printf("\n");
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
