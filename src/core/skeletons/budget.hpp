#pragma once

// Budget search coordination (paper Section 4.2, rule (spawn-budget), and
// Listing 4): workers search sequentially until they have backtracked
// `backtrackBudget` times, then offload every unexplored subtree at the
// lowest depth of their generator stack into the workpool and reset the
// counter. Periodic, asynchronous load balancing in the style of mts.

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace budgetdetail {

template <typename Gen>
struct Coord {
  // The rule lives in dfs.hpp's loop; this hook set only switches it on.
  struct Hooks {
    static constexpr bool kBudget = true;
  };

  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    detail::runTask<Gen>(ctx, ws, Hooks{}, task);
  }
};

}  // namespace budgetdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using Budget =
    detail::Engine<budgetdetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
