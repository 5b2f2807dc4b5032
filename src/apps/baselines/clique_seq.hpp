#pragma once

// Hand-written Maximum Clique baselines for the Table 1 overhead comparison.
//
// These deliberately do NOT use the skeleton library: clique_seq is a direct
// re-implementation of the McCreesh MCSa1 sequential solver (in-place
// candidate sets, no search-node structs, no generator indirection), and
// clique_omp parallelises it with an OpenMP task per depth-1 subtree -
// "closely analogous to the Depth-Bounded skeleton" as the paper puts it.
// Both colour with the skeleton generator's own kernel and storage
// (mc::greedyColour into an mc::ColourOrder per search node) and
// prune with the same rule, so the comparison measures skeleton overhead
// rather than a kernel gap.

#include <cstdint>
#include <vector>

#include "apps/maxclique/graph.hpp"

namespace yewpar::apps::baseline {

struct CliqueResult {
  std::int32_t size = 0;
  std::vector<std::size_t> members;
  std::uint64_t nodes = 0;  // search tree nodes visited
};

// Sequential hand-coded MCSa-style solver.
CliqueResult maxCliqueSeq(const Graph& g);

// OpenMP version: one task per depth-1 subtree, shared incumbent. Falls back
// to the sequential solver when compiled without OpenMP.
CliqueResult maxCliqueOmp(const Graph& g, int nThreads);

}  // namespace yewpar::apps::baseline
