// Distributed-memory demonstration: the same MaxClique search on one
// locality, then on several message-passing localities with injected
// network latency, printing the coordination evidence (remote steals, bound
// broadcasts/applications) that shows work and knowledge really crossing
// locality boundaries. This is the single-host stand-in for the paper's
// `mpiexec -n 2 ... maxclique` artifact run (Appendix A.4.2).
//
//   distributed --n 150 --skeleton depthbounded --workers 2
//               --localities 4 --net-delay fixed:200

#include <cstdio>

#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "depthbounded");
  Params base = examples::paramsFromFlags(flags);

  const auto n = static_cast<std::size_t>(flags.getInt("n", 150));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 3));
  flags.rejectUnread();
  Graph g = gnp(n, 0.72, seed);
  g.sortByDegreeDesc();
  std::printf("graph: %zu vertices, %zu edges\n\n", g.size(), g.edgeCount());

  const int maxLoc = std::max(1, base.nLocalities);
  std::int64_t reference = -1;
  for (int nloc = 1; nloc <= maxLoc; nloc *= 2) {
    Params p = base;
    p.nLocalities = nloc;
    auto out = examples::searchWith<mc::Gen, Optimisation,
                                    BoundFunction<&mc::upperBound>,
                                    PruneLevel>(skeleton, p, g,
                                                mc::rootNode(g));
    if (!out.isRoot) continue;  // non-zero tcp rank: rank 0 reports
    if (reference < 0) reference = out.objective;
    std::printf(
        "localities=%d workers=%d  clique=%lld  time=%.3fs  nodes=%llu  "
        "tasks=%llu  remoteSteals=%llu  bounds(bcast/applied)=%llu/%llu%s\n",
        nloc, p.workersPerLocality, static_cast<long long>(out.objective),
        out.elapsedSeconds,
        static_cast<unsigned long long>(out.metrics.nodesProcessed),
        static_cast<unsigned long long>(out.metrics.tasksSpawned),
        static_cast<unsigned long long>(out.metrics.remoteSteals),
        static_cast<unsigned long long>(out.metrics.boundBroadcasts),
        static_cast<unsigned long long>(out.metrics.boundUpdatesApplied),
        out.objective == reference ? "" : "  !! MISMATCH");
  }
  std::printf("\nEvery row must report the same clique size: localities "
              "exchange tasks and bounds only through serialized "
              "messages.\n");
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
