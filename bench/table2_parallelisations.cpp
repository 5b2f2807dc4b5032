// Table 2 reproduction: alternate application parallelisations (the paper's
// 18 rows — 6 applications x {Depth-Bounded, Stack-Stealing, Budget} — plus
// a 7th application row-set for the conflict-MST workload added by this
// repo, 21 rows total).
//
// Paper: for each application x skeleton pair, a parameter sweep (dcutoff in
// 0..8, budget in 1e4..1e7) over ~20 instances on 120 workers; reported
// worst / random / best geometric-mean speedup vs the Sequential skeleton.
// Headline findings: no skeleton wins everywhere (Depth-Bounded best for 2
// apps, Stack-Stealing 1, Budget 3); bad parameters are catastrophic (0.89x
// vs 91.74x for MaxClique); Stack-Stealing has the lowest variance.
//
// This repo: the same sweep on scaled, seeded instances. Wall-clock speedup
// on a single-core host centres on ~1x; the reproduction target is the
// *spread* (worst << best for parameterised skeletons, Stack-Stealing
// tightest) and the per-application parameter sensitivity.

#include <cassert>
#include <cstdio>
#include <iostream>

#include "apps/cmst/cmst.hpp"
#include "apps/knapsack/knapsack.hpp"
#include "apps/ns/ns.hpp"
#include "apps/sip/sip.hpp"
#include "apps/tsp/tsp.hpp"
#include "apps/uts/uts.hpp"
#include "common.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

namespace {

constexpr int kWorkers = 1;
constexpr int kLocalities = 2;

const int kDcutoffs[] = {1, 2, 4, 6};
const std::uint64_t kBudgets[] = {1000, 10000, 100000, 1000000};
const char* kChunkPolicies[] = {"one", "half", "all"};

struct SweepRow {
  double worst = 0, random = 0, best = 0;
};

// Sweep one (application, skeleton) pair. runFn(params, skel) returns the
// wall time of one search. seqTime is the Sequential skeleton's time.
template <typename RunFn>
SweepRow sweep(Skel skel, double seqTime, RunFn&& runFn, Rng& rng) {
  std::vector<double> speedups;
  auto addRun = [&](Params p) {
    p.nLocalities = kLocalities;
    p.workersPerLocality = kWorkers;
    const double t = runFn(p, skel);
    speedups.push_back(seqTime / t);
  };
  switch (skel) {
    case Skel::DepthBounded:
      for (int d : kDcutoffs) {
        Params p;
        p.dcutoff = d;
        addRun(p);
      }
      break;
    case Skel::Budget:
      for (auto b : kBudgets) {
        Params p;
        p.backtrackBudget = b;
        addRun(p);
      }
      break;
    case Skel::StackStealing:
      for (const char* c : kChunkPolicies) {
        Params p;
        p.chunk = parseChunkPolicy(c);
        addRun(p);
      }
      break;
    // Sequential, Ordered and RandomSpawn are not swept by this table.
    case Skel::Seq:
    case Skel::Ordered:
    case Skel::RandomSpawn:
      break;
  }
  assert(!speedups.empty() && "sweep() called with an unswept skeleton");
  SweepRow row;
  row.worst = minOf(speedups);
  row.best = maxOf(speedups);
  row.random = speedups[rng.below(speedups.size())];
  return row;
}

}  // namespace

int main(int argc, char** argv) try {
  // --only <substring>: restrict to matching application rows (CI bench
  // smoke runs `--only CMST --tiny`); --tiny: smoke-test instance sizes.
  Flags flags(argc, argv);
  const std::string only = flags.getString("only", "");
  const bool tiny = flags.getBool("tiny");
  flags.rejectUnread();

  std::printf("== Table 2: 21 alternate parallelisations ==\n");
  std::printf("(%d localities x %d workers; speedup vs Sequential skeleton; "
              "sweeps: dcutoff {1,2,4,6}, budget {1e3..1e6}, chunk policy "
              "{one,half,all})\n\n",
              kLocalities, kWorkers);

  TablePrinter table(
      {"Application", "Skeleton", "Worst", "Random", "Best"});
  Rng rng(2020);

  auto wanted = [&](const char* app) {
    return only.empty() || std::string(app).find(only) != std::string::npos;
  };

  auto report = [&](const char* app, double seqTime, auto&& runFn) {
    for (Skel s :
         {Skel::DepthBounded, Skel::StackStealing, Skel::Budget}) {
      auto row = sweep(s, seqTime, runFn, rng);
      table.addRow({app, skelName(s), TablePrinter::cell(row.worst, 2),
                    TablePrinter::cell(row.random, 2),
                    TablePrinter::cell(row.best, 2)});
    }
  };

  if (wanted("MaxClique")) {  // MaxClique (optimisation)
    Graph g = tiny ? gnp(60, 0.60, 7) : gnp(190, 0.72, 7);
    g.sortByDegreeDesc();
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<mc::Gen, Optimisation, BoundFunction<&mc::upperBound>, PruneLevel>(
            s, p, g, mc::rootNode(g));
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("MaxClique", seqT, run);
  }

  if (wanted("TSP")) {  // TSP (optimisation)
    auto inst = tsp::randomEuclidean(tiny ? 9 : 14, 9);
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<tsp::Gen, Optimisation, BoundFunction<&tsp::upperBound>>(
            s, p, inst, tsp::rootNode(inst));
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("TSP", seqT, run);
  }

  if (wanted("CMST")) {  // Conflict-MST (minimisation via negated cost)
    auto inst = tiny ? apps::cmst::randomInstance(12, 30, 60, 2020)
                     : sweepCmstInstance();
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<cmst::Gen, Optimisation, BoundFunction<&cmst::upperBound>>(
            s, p, inst, cmst::rootNode(inst));
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("CMST", seqT, run);
  }

  if (wanted("Knapsack")) {  // Knapsack (optimisation)
    auto inst = tiny ? ks::subsetSumInstance(20, 100000, 0.4, 17)
                     : ks::subsetSumInstance(36, 1000000, 0.4, 17);
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<ks::Gen, Optimisation, BoundFunction<&ks::upperBound>>(
            s, p, inst, ks::Node{});
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("Knapsack", seqT, run);
  }

  if (wanted("SIP")) {  // SIP (decision, unsatisfiable -> full exploration)
    auto inst = tiny ? sip::randomInstance(6, 0.9, 25, 0.5, 5)
                     : sip::randomInstance(10, 0.9, 50, 0.5, 5);
    Params base;
    base.decisionTarget = static_cast<std::int64_t>(inst.pattern.size());
    auto run = [&](Params p, Skel s) {
      p.decisionTarget = base.decisionTarget;
      return timeMedian(1, [&] {
        runSkeleton<sip::Gen, Decision>(s, p, inst, sip::rootNode(inst));
      });
    };
    const double seqT = run(base, Skel::Seq);
    report("SIP", seqT, run);
  }

  if (wanted("NS")) {  // NS (enumeration)
    auto space = ns::makeSpace(tiny ? 14 : 25);
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<ns::Gen, Enumeration<CountAll>>(s, p, space,
                                                    ns::rootNode(space));
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("NS", seqT, run);
  }

  if (wanted("UTS")) {  // UTS (enumeration)
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = 6;
    tree.maxDepth = tiny ? 9 : 15;
    tree.seed = 19;
    auto run = [&](Params p, Skel s) {
      return timeMedian(1, [&] {
        runSkeleton<uts::Gen, Enumeration<CountAll>>(s, p, tree,
                                                     uts::rootNode(tree));
      });
    };
    const double seqT = run(Params{}, Skel::Seq);
    report("UTS", seqT, run);
  }

  table.print(std::cout);
  std::printf(
      "\npaper reference (120 workers): Depth-Bounded best for "
      "MaxClique/TSP, Budget best for Knapsack/NS/UTS, Stack-Stealing "
      "best for SIP and lowest-variance overall; worst-parameter runs "
      "can be slower than sequential.\n");
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
