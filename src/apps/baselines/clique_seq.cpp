#include "apps/baselines/clique_seq.hpp"

#include <algorithm>
#include <atomic>
#include <mutex>

#include "apps/maxclique/maxclique.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace yewpar::apps::baseline {

namespace {

struct SeqState {
  const Graph* g = nullptr;
  std::vector<std::size_t> current;
  CliqueResult best;

  void expand(const DynBitset& p) {
    best.nodes += 1;
    // Inline storage, as in mc::Gen: no heap allocation up to 256 candidates.
    mc::ColourOrder order;
    mc::greedyColour(*g, p, order);
    DynBitset remaining = p;
    for (std::size_t i = order.size(); i-- > 0;) {
      // Colour bound: the whole remaining prefix cannot beat the incumbent.
      if (static_cast<std::int32_t>(current.size()) + order[i].colour <=
          best.size) {
        return;
      }
      const auto v = static_cast<std::size_t>(order[i].vertex);
      remaining.reset(v);
      current.push_back(v);
      if (static_cast<std::int32_t>(current.size()) > best.size) {
        best.size = static_cast<std::int32_t>(current.size());
        best.members = current;
      }
      DynBitset p2 = remaining;
      p2 &= g->neighbours(v);
      if (p2.any()) expand(p2);
      current.pop_back();
    }
  }
};

}  // namespace

CliqueResult maxCliqueSeq(const Graph& g) {
  SeqState st;
  st.g = &g;
  DynBitset all(g.size());
  all.setAll();
  st.expand(all);
  return st.best;
}

#ifdef _OPENMP

namespace {

struct OmpShared {
  const Graph* g = nullptr;
  std::atomic<std::int32_t> bestSize{0};
  std::mutex bestMtx;
  std::vector<std::size_t> bestMembers;
  std::atomic<std::uint64_t> nodes{0};

  void record(const std::vector<std::size_t>& clique) {
    std::lock_guard lock(bestMtx);
    if (static_cast<std::int32_t>(clique.size()) >
        static_cast<std::int32_t>(bestMembers.size())) {
      bestMembers = clique;
    }
  }

  void expand(std::vector<std::size_t>& current, const DynBitset& p,
              std::uint64_t& localNodes) {
    localNodes += 1;
    mc::ColourOrder order;
    mc::greedyColour(*g, p, order);
    DynBitset remaining = p;
    for (std::size_t i = order.size(); i-- > 0;) {
      if (static_cast<std::int32_t>(current.size()) + order[i].colour <=
          bestSize.load(std::memory_order_relaxed)) {
        return;
      }
      const auto v = static_cast<std::size_t>(order[i].vertex);
      remaining.reset(v);
      current.push_back(v);
      auto sz = static_cast<std::int32_t>(current.size());
      auto cur = bestSize.load(std::memory_order_relaxed);
      while (sz > cur &&
             !bestSize.compare_exchange_weak(cur, sz,
                                             std::memory_order_relaxed)) {
      }
      if (sz > cur) record(current);
      DynBitset p2 = remaining;
      p2 &= g->neighbours(v);
      if (p2.any()) expand(current, p2, localNodes);
      current.pop_back();
    }
  }
};

}  // namespace

CliqueResult maxCliqueOmp(const Graph& g, int nThreads) {
  OmpShared shared;
  shared.g = &g;

  DynBitset all(g.size());
  all.setAll();
  mc::ColourOrder order;
  mc::greedyColour(g, all, order);

#pragma omp parallel num_threads(nThreads)
  {
#pragma omp single
    {
      shared.nodes.fetch_add(1, std::memory_order_relaxed);  // the root
      DynBitset remaining = all;
      // One task per depth-1 subtree, in the same (reverse colour) order the
      // sequential solver uses.
      for (std::size_t i = order.size(); i-- > 0;) {
        const auto v = static_cast<std::size_t>(order[i].vertex);
        remaining.reset(v);
        DynBitset p2 = remaining;
        p2 &= g.neighbours(v);
        const auto cbound = order[i].colour;
#pragma omp task firstprivate(v, p2, cbound) shared(shared)
        {
          if (cbound > shared.bestSize.load(std::memory_order_relaxed)) {
            std::vector<std::size_t> current{v};
            auto cur = shared.bestSize.load(std::memory_order_relaxed);
            while (1 > cur && !shared.bestSize.compare_exchange_weak(
                                  cur, 1, std::memory_order_relaxed)) {
            }
            if (cur < 1) shared.record(current);
            std::uint64_t localNodes = 1;
            if (p2.any()) shared.expand(current, p2, localNodes);
            shared.nodes.fetch_add(localNodes, std::memory_order_relaxed);
          }
        }
      }
    }
  }

  CliqueResult res;
  res.size = shared.bestSize.load();
  res.members = shared.bestMembers;
  res.nodes = shared.nodes.load();
  return res;
}

#else  // !_OPENMP

CliqueResult maxCliqueOmp(const Graph& g, int) { return maxCliqueSeq(g); }

#endif

}  // namespace yewpar::apps::baseline
