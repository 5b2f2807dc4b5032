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

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace ordereddetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    using Task = typename Ctx::Task;
    // The root task searches the prefix above dcutoff in traversal order,
    // visiting its nodes inline; each node at the cutoff becomes a task with
    // the next sequence number. A frontier task's root was visited in the
    // prefix, and its subtree lies below the cutoff, where no hook fires.
    struct Hooks {
      Ctx& ctx;
      int dcutoff;
      std::uint64_t seq = 0;
      static bool visited(const Task& t) { return t.depth > 0; }
      bool after(typename Ctx::Node& child, int depth) {
        if (depth != dcutoff) return false;
        // Deliberately unattributed (worker -1): the whole frontier is
        // spawned by the one worker running the root task, so hashing by
        // pusher would pile every task into a single shard of a sharded
        // pool. Round-robin placement spreads the frontier instead.
        ctx.spawn(Task{std::move(child), depth, seq++});
        return true;
      }
    };
    detail::runTask<Gen>(ctx, ws, Hooks{ctx, ctx.params().dcutoff}, task);
  }

  // The prefix needs at least one level to number a frontier.
  static void prepare(Params& params) {
    params.pool = rt::PoolPolicy::PrioritySharded;
    if (params.dcutoff < 1) params.dcutoff = 1;
  }
};

}  // namespace ordereddetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using Ordered =
    detail::Engine<ordereddetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
