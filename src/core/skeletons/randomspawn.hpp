#pragma once

// RandomSpawn search coordination - the second extension point named in
// paper Section 4 ("new coordination methods may provide best-first search
// or *random task creation*"). Each generated child is converted into a
// workpool task with probability 1/64 (rsdetail::kSpawnOneIn) and searched
// inline otherwise. Expected work generation is steady and size-agnostic: no
// parameters tied to tree shape (depth cutoffs) or search dynamics
// (backtrack budgets), at the cost of ignoring the subtree-size heuristic
// that Depth-Bounded and Stack-Stealing exploit.

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace rsdetail {

// Expected one task spawned per this many children generated.
inline constexpr std::uint64_t kSpawnOneIn = 64;

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    // Random task creation: hive the child off unvisited; the executing
    // worker visits it, exactly like every other spawn rule.
    struct Hooks {
      Ctx& ctx;
      Rng& rng;
      bool before(typename Ctx::Node& child, int depth) {
        if (rng.below(kSpawnOneIn) != 0) return false;
        ctx.spawn(typename Ctx::Task{std::move(child), depth});
        return true;
      }
    };
    detail::runTask<Gen>(ctx, ws, Hooks{ctx, ws.rng}, task);
  }
};

}  // namespace rsdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using RandomSpawn =
    detail::Engine<rsdetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
