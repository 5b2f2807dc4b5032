#pragma once

// Depth-Bounded search coordination (paper Section 4.2, rule (spawn-depth)):
// every node at depth < dcutoff has all of its children spawned as tasks, in
// traversal order, as tasks execute (not upfront). Below the cutoff, tasks
// run the plain sequential loop. Distribution across localities happens by
// idle localities stealing from remote workpools.

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace dbdetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    // (spawn-depth): each child at depth <= dcutoff becomes a task, spawned
    // unvisited in traversal order so the order-preserving pool hands them
    // out heuristic-first.
    struct Hooks {
      Ctx& ctx;
      int dcutoff;
      bool before(typename Ctx::Node& child, int depth) {
        if (depth > dcutoff) return false;
        ctx.spawn(typename Ctx::Task{std::move(child), depth});
        return true;
      }
    };
    detail::runTask<Gen>(ctx, ws, Hooks{ctx, ctx.params().dcutoff}, task);
  }
};

}  // namespace dbdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using DepthBounded =
    detail::Engine<dbdetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
