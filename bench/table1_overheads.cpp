// Table 1 reproduction: YewPar vs hand-written Maximum Clique.
//
// Paper: 18 DIMACS instances; column pairs
//   (a) hand-coded sequential C++  vs  Sequential YewPar skeleton
//       -> geometric mean sequential slowdown 8.8% (max 22.0%, min -5.5%)
//   (b) hand-coded OpenMP (15 workers) vs Depth-Bounded YewPar (15 workers)
//       -> geometric mean parallel slowdown 16.6% on instances > 1.5s
//
// This repo: the same experiment on seeded instance families (stand-ins for
// DIMACS; see bench/common.hpp) and as many workers as the host sensibly
// supports. The
// hand-written baselines are in src/apps/baselines (no skeleton code).
//
// The Sequential skeleton does exactly the hand-written solver's work: the
// nodes it visits and does not prune are the nodes maxCliqueSeq expands, so
// the slowdown is the skeleton's per-node cost alone. The binary exits 1 if
// the two disagree on a clique size or on that node count.
//
// Measured (18 instances, median of 3, a 4-core Intel Xeon VM): sequential
// geomean slowdown 5.6-7.4% over three runs, against the paper's 8.8%. The
// parallel pair is not comparable in a build without OpenMP, where
// maxCliqueOmp falls back to the sequential solver.
//
// Flags: --tiny (the first 4 instances, 1 rep; otherwise median of 3)

#include <cstdio>
#include <iostream>
#include <thread>

#include "apps/baselines/clique_seq.hpp"
#include "common.hpp"
#include "util/flags.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

int main(int argc, char** argv) try {
  Flags f(argc, argv);
  const bool tiny = f.getBool("tiny");
  f.rejectUnread();
  const int reps = tiny ? 1 : 3;
  const int workers = std::max(2u, std::thread::hardware_concurrency());

  std::printf("== Table 1: YewPar overheads vs hand-written MaxClique ==\n");
  std::printf("(seeded stand-ins for the DIMACS set; %d workers for the "
              "parallel pair; median of %d runs)\n\n",
              workers, reps);

  TablePrinter table({"Instance", "SeqC++(s)", "SeqYewPar(s)", "Slowdown(%)",
                      "OpenMP(s)", "DepthBounded(s)", "ParSlowdown(%)"});

  std::vector<double> seqSlowdowns, parSlowdowns;
  std::vector<std::pair<std::string, std::int64_t>> sizes;

  auto instances = table1Instances();
  if (tiny) instances.resize(4);
  for (auto& [name, graph] : instances) {
    std::int64_t seqSize = 0, ypSize = 0, ompSize = 0, dbSize = 0;
    std::uint64_t seqNodes = 0, ypNodes = 0;

    const double tSeqHand = timeMedian(reps, [&] {
      const auto res = baseline::maxCliqueSeq(graph);
      seqSize = res.size;
      seqNodes = res.nodes;
    });

    const double tSeqYewpar = timeMedian(reps, [&] {
      auto out = skeletons::Sequential<
          mc::Gen, Optimisation,
          BoundFunction<&mc::upperBound>, PruneLevel>::search(Params{}, graph,
                                                  mc::rootNode(graph));
      ypSize = out.objective;
      ypNodes = out.metrics.nodesProcessed - out.metrics.prunes;
    });

    const double tOmp = timeMedian(reps, [&] {
      ompSize = baseline::maxCliqueOmp(graph, workers).size;
    });

    Params par;
    par.workersPerLocality = workers;
    par.dcutoff = 1;  // depth-1 tasks, matching the OpenMP baseline
    const double tDb = timeMedian(reps, [&] {
      auto out = skeletons::DepthBounded<
          mc::Gen, Optimisation,
          BoundFunction<&mc::upperBound>, PruneLevel>::search(par, graph,
                                                  mc::rootNode(graph));
      dbSize = out.objective;
    });

    if (seqSize != ypSize || seqSize != ompSize || seqSize != dbSize) {
      std::printf("!! DISAGREEMENT on %s: %lld/%lld/%lld/%lld\n", name.c_str(),
                  static_cast<long long>(seqSize),
                  static_cast<long long>(ypSize),
                  static_cast<long long>(ompSize),
                  static_cast<long long>(dbSize));
      return 1;
    }
    if (seqNodes != ypNodes) {
      std::printf("!! WORK MISMATCH on %s: maxCliqueSeq expanded %llu nodes, "
                  "the Sequential skeleton %llu unpruned\n",
                  name.c_str(), static_cast<unsigned long long>(seqNodes),
                  static_cast<unsigned long long>(ypNodes));
      return 1;
    }

    const double seqSlow = 100.0 * (tSeqYewpar / tSeqHand - 1.0);
    const double parSlow = 100.0 * (tDb / tOmp - 1.0);
    // Geomean of the runtime ratios (the paper's "mean slowdown").
    seqSlowdowns.push_back(tSeqYewpar / tSeqHand);
    parSlowdowns.push_back(tDb / tOmp);
    sizes.emplace_back(name, seqSize);

    table.addRow({name, TablePrinter::cell(tSeqHand, 3),
                  TablePrinter::cell(tSeqYewpar, 3),
                  TablePrinter::cell(seqSlow, 1), TablePrinter::cell(tOmp, 3),
                  TablePrinter::cell(tDb, 3), TablePrinter::cell(parSlow, 1)});
  }

  const double seqGeo = 100.0 * (geometricMean(seqSlowdowns) - 1.0);
  const double parGeo = 100.0 * (geometricMean(parSlowdowns) - 1.0);
  table.addRow({"Geo. Mean", "", "", TablePrinter::cell(seqGeo, 1), "", "",
                TablePrinter::cell(parGeo, 1)});
  table.print(std::cout);

  std::printf("\npaper reference: sequential geo-mean slowdown 8.8%% "
              "(range -5.5..22.0), parallel geo-mean 16.6%%\n");
  std::printf("clique sizes:");
  for (auto& [n, s] : sizes) std::printf(" %s=%lld", n.c_str(),
                                         static_cast<long long>(s));
  std::printf("\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
