#pragma once

// Shared benchmark infrastructure: the seeded instance families standing in
// for the paper's DIMACS / finite-geometry instances (no instance files ship
// with the repo; generators are seeded for reproducibility), skeleton
// labels, and timing helpers.
//
// Scale note: the paper's evaluation machines are a 17-node cluster; this
// repo runs on whatever the build host offers (possibly one core), so the
// instances are scaled so that every bench binary finishes in tens of
// seconds. The *relative* comparisons (overhead ratios, skeleton rankings,
// parameter sensitivity) are the reproduction target; see
// bench/perf/README.md for the committed benchmark and its recorded runs.

#include <functional>
#include <string>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "core/yewpar.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace yewpar::bench {

// A named clique instance, mirroring one of Table 1's DIMACS families.
struct CliqueInstance {
  std::string name;
  apps::Graph graph;
};

// The 18-instance set of Table 1, scaled down: brock* -> G(n,0.65),
// p_hat* -> two-density graphs, san* -> planted cliques, MANN -> dense
// G(n,0.9). Deterministic seeds; degree-sorted like the real solver runs.
inline std::vector<CliqueInstance> table1Instances() {
  using namespace yewpar::apps;
  std::vector<CliqueInstance> out;
  auto add = [&](std::string name, Graph g) {
    g.sortByDegreeDesc();
    out.push_back({std::move(name), std::move(g)});
  };
  add("MANN-like-1", gnp(130, 0.88, 5));
  add("MANN-like-2", gnp(125, 0.88, 105));
  add("brock-like-1", gnp(180, 0.72, 1));
  add("brock-like-2", gnp(200, 0.70, 2));
  add("brock-like-3", gnp(190, 0.72, 3));
  add("brock-like-4", gnp(185, 0.71, 44));
  add("p_hat-like-1", twoDensity(240, 0.45, 0.85, 6));
  add("p_hat-like-2", twoDensity(260, 0.40, 0.82, 7));
  add("p_hat-like-3", twoDensity(250, 0.42, 0.84, 16));
  add("p_hat-like-4", twoDensity(230, 0.45, 0.85, 17));
  add("san-like-1", plantedClique(190, 0.70, 24, 8));
  add("san-like-2", plantedClique(200, 0.68, 26, 9));
  add("san-like-3", plantedClique(180, 0.70, 22, 25));
  add("san-like-4", plantedClique(195, 0.69, 25, 26));
  add("sanr-like-1", gnp(150, 0.80, 4));
  add("sanr-like-2", gnp(155, 0.78, 34));
  add("sanr-like-3", gnp(145, 0.80, 35));
  add("sanr-like-4", gnp(160, 0.78, 36));
  return out;
}

// Seeded conflict-MST instance for the skeleton-comparison sweeps: dense
// enough that the include/exclude tree is nontrivial, with enough conflict
// pairs that the optimum detours off the unconstrained MST.
inline apps::cmst::Instance sweepCmstInstance() {
  return apps::cmst::randomInstance(20, 70, 320, 2020);
}

using skeletons::runSkeleton;
using skeletons::Skel;

inline const char* skelName(Skel s) {
  switch (s) {
    case Skel::Seq: return "Sequential";
    case Skel::DepthBounded: return "Depth-Bounded";
    case Skel::StackStealing: return "Stack-Stealing";
    case Skel::Budget: return "Budget";
    case Skel::Ordered: return "Ordered";
    case Skel::RandomSpawn: return "RandomSpawn";
  }
  return "?";
}

// Median wall time of `reps` runs of fn() (fn returns the result to keep).
template <typename F>
double timeMedian(int reps, F&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.elapsedSeconds());
  }
  return median(times);
}

}  // namespace yewpar::bench
