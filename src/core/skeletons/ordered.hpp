#pragma once

// Ordered search coordination - a repo extension demonstrating the paper's
// extensibility claim ("The search skeleton library is extensible, allowing
// the addition of new search coordination methods", Section 4), modelled on
// the replicable branch-and-bound skeleton of Archibald et al. [ref 4 of the
// paper].
//
// The root task eagerly expands the tree to `dcutoff` in exact traversal
// order, numbering each frontier subtree with its sequential index. Tasks
// live in an ordered pool (lowest sequence first, for pops and steals
// alike), so execution order is always a prefix-parallelisation of the
// Sequential skeleton's order. This bounds detrimental performance
// anomalies: no worker can run far ahead of the sequential frontier.
//
// The pool is always a ShardedPriorityPool (see workpool.hpp): per-worker
// heaps by default, one global heap with --ordered-shards 1, and a
// sequence window bounding run-ahead with --ordered-window.
// tests/test_ordered.cpp pins every configuration to the Sequential
// skeleton's results.

#include "core/skeletons/engine.hpp"
#include "core/skeletons/subtree_search.hpp"

namespace yewpar::skeletons {

namespace ordereddetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    using Ops = typename Ctx::Ops;

    if (task.depth == 0) {
      // Root task: visit the root, then expand the top of the tree to the
      // cutoff depth-first in traversal order, spawning each frontier node
      // with an ascending sequence number.
      auto res = Ops::visit(ctx.reg(), ws.acc, ctx.space(), task.node);
      ctx.applyVisit(res);
      if (res.action == detail::Action::Prune) ++ws.acc.prunes;
      if (res.action != detail::Action::Continue) return;
      std::uint64_t seq = 0;
      expandPrefix(ctx, ws, task.node, /*depth=*/0, seq);
      return;
    }

    // Frontier task: the node was already visited during prefix expansion;
    // search its subtree sequentially.
    detail::subtreeSearch<false, Gen>(ctx, ws, task.node, task.depth,
                                      /*budget=*/0);
  }

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    ctx.requestRemotePoolSteal(ws.rng);
  }

 private:
  // DFS over the prefix above dcutoff, in traversal order. Nodes above the
  // cutoff are visited inline; nodes at the cutoff become numbered tasks.
  template <typename Ctx, typename WS>
  static void expandPrefix(Ctx& ctx, WS& ws,
                           const typename Ctx::Node& node, int depth,
                           std::uint64_t& seq) {
    using Ops = typename Ctx::Ops;
    if (ctx.stopped()) return;
    Gen gen(ctx.space(), node);
    while (gen.hasNext()) {
      if (ctx.stopped()) return;
      typename Ctx::Node child = gen.next();
      auto res = Ops::visit(ctx.reg(), ws.acc, ctx.space(), child);
      ctx.applyVisit(res);
      if (res.action == detail::Action::Stop) return;
      if (res.action == detail::Action::Prune) {
        ++ws.acc.prunes;
        if constexpr (Ctx::kPruneLevel) return;
        continue;
      }
      if (depth + 1 < ctx.params().dcutoff) {
        expandPrefix(ctx, ws, child, depth + 1, seq);
      } else {
        typename Ctx::Task t{std::move(child), depth + 1, seq++};
        // Deliberately unattributed (worker -1): the whole frontier is
        // spawned by the one worker running the root task, so hashing by
        // pusher would pile every task into a single shard of a sharded
        // pool. Round-robin placement spreads the frontier instead.
        ctx.spawn(std::move(t));
      }
    }
  }
};

}  // namespace ordereddetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct Ordered {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Eng =
      detail::Engine<ordereddetail::Coord<Gen>, Gen, SearchType, Opts...>;
  using Out = typename Eng::Out;

  static Out search(Params params, const Space& space, const Node& root) {
    params.pool = rt::PoolPolicy::PrioritySharded;
    if (params.dcutoff < 1) params.dcutoff = 1;
    return Eng::run(params, space, root);
  }
};

}  // namespace yewpar::skeletons
