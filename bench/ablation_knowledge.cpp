// Ablation B (paper Section 4.3, Knowledge Management): stale bounds.
//
// "The local bound does not need to be up-to-date to maintain correctness,
// hence YewPar can tolerate communication delays at the cost of missing
// pruning opportunities." This ablation injects one-way network latency
// between two localities running branch-and-bound MaxClique and measures the
// extra nodes searched as bound broadcasts arrive late. The optimum must be
// unchanged at every delay.

#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "util/flags.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

int main(int argc, char** argv) try {
  Flags(argc, argv).rejectUnread();  // this driver takes no flags
  std::printf("== Ablation B: bound-broadcast latency vs pruning ==\n\n");

  Graph g = gnp(180, 0.72, 61);
  g.sortByDegreeDesc();

  TablePrinter table({"Delay(us)", "Time(s)", "Nodes", "Prunes",
                      "BoundsApplied", "CliqueSize"});

  std::int64_t refSize = -1;
  for (double delay : {0.0, 200.0, 1000.0, 5000.0}) {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 2;
    p.net.delay = DelayModel{DelayModel::Kind::Fixed, delay, 0.0};
    std::int64_t size = 0;
    rt::MetricsSnapshot m;
    const double t = timeMedian(3, [&] {
      auto out = skeletons::DepthBounded<
          mc::Gen, Optimisation,
          BoundFunction<&mc::upperBound>, PruneLevel>::search(p, g, mc::rootNode(g));
      size = out.objective;
      m = out.metrics;
    });
    if (refSize == -1) refSize = size;
    if (size != refSize) {
      std::printf("!! correctness violated under delay %.0f\n", delay);
      return 1;
    }
    table.addRow({TablePrinter::cell(delay, 0), TablePrinter::cell(t, 3),
                  std::to_string(m.nodesProcessed),
                  std::to_string(m.prunes),
                  std::to_string(m.boundUpdatesApplied),
                  std::to_string(size)});
  }
  table.print(std::cout);
  std::printf("\nexpectation: node counts grow (or stay flat when one "
              "locality dominates) with delay; the clique size never "
              "changes. Wall time also absorbs the delay applied to the\n"
              "termination-detection messages (everything rides the same "
              "network).\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
