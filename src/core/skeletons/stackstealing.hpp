#pragma once

// Stack-Stealing search coordination (paper Section 4.2, rule (spawn-stack),
// and Listing 3): work is split only on demand, when an idle worker asks for
// it. Every request, local or remote, goes on the victim locality's one
// steal-request queue; busy workers poll it on every expansion step, and the
// first to take a request replies with unexplored subtrees split off the
// lowest depths of its generator stack - how many is Params::chunk's call
// (one subtree, a fixed/half/adaptive chunk spilling across stack levels, or
// all lowest-depth siblings; see splitLowest in dfs.hpp). A local thief's
// split goes into the pool (Section 3.6), a remote thief's into a steal
// reply. Victim selection: random locality, first busy local worker
// answers; remote localities are only tried when no local worker is busy,
// matching Section 4.2's description.

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace ssdetail {

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    struct Hooks {
      Ctx& ctx;
      WS& ws;
      void step(std::vector<Gen>& genStack, int rootDepth) {
        detail::pollStealRequests(ctx, ws, genStack, rootDepth);
      }
    };
    detail::runTask<Gen>(ctx, ws, Hooks{ctx, ws}, task);
  }

  // Ask a busy local peer through the locality's queue, then go back to
  // popWait for the split; with no busy peer, ask a random remote locality.
  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    if (ctx.busyWorkers().load(std::memory_order_relaxed) > 0) {
      ctx.requestLocalSteal(ws);
    } else {
      ctx.requestRemoteSteal(ws.rng, rt::tag::kStackStealRequest);
    }
  }
};

}  // namespace ssdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using StackStealing =
    detail::Engine<ssdetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
