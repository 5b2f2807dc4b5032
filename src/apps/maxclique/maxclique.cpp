#include "apps/maxclique/maxclique.hpp"

#include <bit>
#include <cstring>

namespace yewpar::apps::mc {

void greedyColour(const Graph& graph, const DynBitset& p, ColourOrder& order) {
  using Word = DynBitset::Word;
  const std::size_t count = p.count();
  ColourOrder::Entry* out = order.resize(count);

  DynBitset uncoloured = p;
  DynBitset classCandidates = p;
  Word* left = uncoloured.data();
  Word* avail = classCandidates.data();
  const std::size_t nwords = p.wordCount();
  std::size_t firstWord = 0;  // words below this are all coloured
  std::size_t i = 0;
  std::int32_t colourClass = 0;
  while (i < count) {
    ++colourClass;
    while (left[firstWord] == 0) ++firstWord;
    std::memcpy(avail + firstWord, left + firstWord,
                (nwords - firstWord) * sizeof(Word));
    // Take the lowest available vertex and exclude its neighbours from this
    // class. Words below wi are already empty, so only wi.. need masking.
    for (std::size_t wi = firstWord; wi < nwords; ++wi) {
      while (avail[wi] != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(avail[wi]));
        const std::size_t v = wi * DynBitset::kWordBits + bit;
        const Word* nbrs = graph.neighbours(v).data();
        avail[wi] &= ~(Word{1} << bit);
        for (std::size_t j = wi; j < nwords; ++j) avail[j] &= ~nbrs[j];
        left[wi] &= ~(Word{1} << bit);
        out[i].vertex = static_cast<std::int32_t>(v);
        out[i].colour = colourClass;
        ++i;
      }
    }
  }
}

Node rootNode(const Graph& g) {
  Node n;
  n.clique = DynBitset(g.size());
  n.size = 0;
  n.candidates = DynBitset(g.size());
  n.candidates.setAll();
  // Root bound: number of colours needed for the whole graph.
  ColourOrder order;
  greedyColour(g, n.candidates, order);
  n.bound = order.colours();
  return n;
}

namespace {
std::int32_t bruteForceExtend(const Graph& g, const DynBitset& candidates,
                              std::int32_t size) {
  std::int32_t best = size;
  DynBitset local = candidates;
  for (std::size_t v = local.findFirst(); v != DynBitset::npos;
       v = local.findFirst()) {
    local.reset(v);
    // Only candidates after v remain in `local`, so each clique is
    // enumerated exactly once (in ascending vertex order).
    DynBitset next = local;
    next &= g.neighbours(v);
    best = std::max(best, bruteForceExtend(g, next, size + 1));
  }
  return best;
}
}  // namespace

std::int32_t bruteForceMaxClique(const Graph& g) {
  DynBitset all(g.size());
  all.setAll();
  return bruteForceExtend(g, all, 0);
}

bool isClique(const Graph& g, const DynBitset& clique) {
  auto verts = clique.toVector();
  for (std::size_t i = 0; i < verts.size(); ++i) {
    for (std::size_t j = i + 1; j < verts.size(); ++j) {
      if (!g.hasEdge(verts[i], verts[j])) return false;
    }
  }
  return true;
}

}  // namespace yewpar::apps::mc
