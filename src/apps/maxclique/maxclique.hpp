#pragma once

// Maximum Clique / k-Clique search application (paper Section 5.1 and
// Listing 1): the McCreesh-Prosser MCSa-style algorithm with bitset
// adjacency and a greedy-colouring upper bound. The Lazy Node Generator
// below is a faithful dynamic-bitset port of the paper's Listing 1.

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "apps/maxclique/graph.hpp"
#include "util/archive.hpp"
#include "util/bitset.hpp"

namespace yewpar::apps::mc {

// A candidate set in greedy colour order. Entry i names a vertex and the
// number of colours used to colour entries 0..i: an upper bound on the
// clique extension possible within that prefix.
//
// Like DynBitset, small sets live inline and larger ones fall back to a heap
// buffer, which is kept for reuse across greedyColour calls. Candidate sets
// shrink fast below the root, so on the graphs DynBitset holds inline (up to
// 512 vertices) nearly every generator and baseline search node stays off
// the heap. With a plain std::vector instead (one heap allocation per
// generator) the Sequential skeleton took 7.5% longer on the Table 1
// stand-ins (4-vCPU KVM guest). The inline capacity is half of that bitset
// capacity so that a generator, which skeletons keep one of per level of
// their stacks, stays near 2.3 KB: with 512 entries the Sequential
// skeleton's peak memory on the Table 1 stand-ins grew by 5%.
class ColourOrder {
 public:
  struct Entry {
    std::int32_t vertex;
    std::int32_t colour;
  };
  static constexpr std::size_t kInlineEntries = 256;

  // Copies and moves transfer only the live entries: the rest of the inline
  // buffer is never initialised.
  ColourOrder() = default;
  ColourOrder(const ColourOrder& o) { copyFrom(o); }
  ColourOrder(ColourOrder&& o) noexcept { moveFrom(o); }
  ColourOrder& operator=(const ColourOrder& o) {
    if (this != &o) copyFrom(o);
    return *this;
  }
  ColourOrder& operator=(ColourOrder&& o) noexcept {
    if (this != &o) moveFrom(o);
    return *this;
  }

  std::size_t size() const { return size_; }
  const Entry& operator[](std::size_t i) const { return data()[i]; }

  // Colours used for the whole set (0 if empty).
  std::int32_t colours() const {
    return size_ == 0 ? 0 : data()[size_ - 1].colour;
  }

  // Resizes to n entries with unspecified contents, for the caller to fill.
  Entry* resize(std::size_t n) {
    size_ = n;
    if (onHeap() && heap_.size() < n) heap_.resize(n);
    return data();
  }

 private:
  bool onHeap() const { return size_ > kInlineEntries; }
  const Entry* data() const { return onHeap() ? heap_.data() : inline_; }
  Entry* data() { return onHeap() ? heap_.data() : inline_; }

  void copyFrom(const ColourOrder& o) {
    std::memcpy(resize(o.size_), o.data(), o.size_ * sizeof(Entry));
  }
  void moveFrom(ColourOrder& o) {
    if (o.onHeap()) {
      size_ = std::exchange(o.size_, 0);
      heap_ = std::move(o.heap_);
    } else {
      copyFrom(o);
    }
  }

  std::size_t size_ = 0;
  std::vector<Entry> heap_;
  Entry inline_[kInlineEntries];
};

// Greedily colours the subgraph induced by vertex set p into `order`: one
// independent set per colour class, each filled by taking the lowest
// uncoloured vertex not adjacent to the class so far. Shared by the
// generator below and the hand-written baselines.
void greedyColour(const Graph& graph, const DynBitset& p, ColourOrder& order);

// Search tree node (Listing 1's struct Node).
struct Node {
  DynBitset clique;      // current clique
  std::int32_t size = 0; // |clique|
  DynBitset candidates;  // vertices adjacent to every clique member
  // Colours available to extend the clique beyond `size`: `candidates` is
  // covered by this many colour classes (independent sets), so no clique
  // among the candidates has more vertices. See Gen::next().
  std::int32_t bound = 0;

  std::int64_t getObj() const { return size; }

  void save(OArchive& a) const { a << clique << size << candidates << bound; }
  void load(IArchive& a) { a >> clique >> size >> candidates >> bound; }
};

// Root node: empty clique, all vertices candidates.
Node rootNode(const Graph& g);

// Upper bound for branch-and-bound pruning (Listing 1's upperBound).
inline std::int64_t upperBound(const Graph&, const Node& n) {
  return n.getObj() + n.bound;
}

// Lazy node generator (Listing 1's struct Gen): children in reverse colour
// order, i.e. heuristically strongest candidate first.
struct Gen {
  using Space = Graph;
  using Node = mc::Node;

  const Graph* graph;
  // Owned copies of exactly the parent state children are built from (the
  // generator outlives the caller's node inside skeleton stacks).
  DynBitset parentClique;
  std::int32_t parentSize;
  DynBitset remaining;   // candidates not yet branched on
  std::int32_t k;        // iteration index (runs downwards)
  ColourOrder order;     // the parent's candidates in colour order

  Gen(const Graph& g, const mc::Node& p)
      : graph(&g), parentClique(p.clique), parentSize(p.size),
        remaining(p.candidates) {
    greedyColour(g, remaining, order);
    k = static_cast<std::int32_t>(order.size());
  }

  bool hasNext() const { return k > 0; }

  // The child adding v = order[k].vertex, with bound colour[k] - 1 (writing
  // colour[k] for order[k].colour). The child's candidates are the entries
  // before k adjacent to v. Every vertex of v's own class is non-adjacent to
  // v, so the candidates lie in the colour[k] - 1 earlier classes, each an
  // independent set: no clique among them has more vertices. Greedy
  // colouring put v in its class only because v has a neighbour in every
  // earlier class, so the candidates meet each of those classes and the
  // count is not loose (a child with no candidates gets bound 0). This is
  // the rule baseline::maxCliqueSeq prunes with: upperBound(child) =
  // parentSize + colour[k].
  mc::Node next() {
    const auto& e = order[static_cast<std::size_t>(--k)];
    const auto v = static_cast<std::size_t>(e.vertex);
    remaining.reset(v);
    mc::Node child;
    child.clique = parentClique;
    child.clique.set(v);
    child.size = parentSize + 1;
    child.candidates = remaining;
    child.candidates &= graph->neighbours(v);
    child.bound = e.colour - 1;
    return child;
  }
};

// Exhaustive reference (no colour bound) for testing; n <= ~30.
std::int32_t bruteForceMaxClique(const Graph& g);

// True iff the set bits of `clique` are pairwise adjacent in g.
bool isClique(const Graph& g, const DynBitset& clique);

}  // namespace yewpar::apps::mc
