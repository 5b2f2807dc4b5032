#pragma once

// Stack-Stealing search coordination (paper Section 4.2, rule (spawn-stack),
// and Listing 3): work is split only on demand, when an idle worker sends a
// steal request. Victims poll their steal channel on every expansion step
// and reply with unexplored subtrees split off the lowest depths of their
// generator stack - how many is Params::chunk's call (one subtree, a fixed/
// half/adaptive chunk spilling across stack levels, or all lowest-depth
// siblings; see splitLowest in dfs.hpp). Victim selection is random; remote
// localities are only tried when no local worker is active, matching
// Section 4.2's description.

#include "core/skeletons/dfs.hpp"
#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace ssdetail {

using namespace std::chrono_literals;

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

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    // Pick a random busy local worker as victim.
    auto& workers = ctx.workers();
    const int n = static_cast<int>(workers.size());
    int start = n > 0 ? static_cast<int>(
                            ws.rng.below(static_cast<std::uint64_t>(n)))
                      : 0;
    for (int k = 0; k < n; ++k) {
      int v = (start + k) % n;
      if (v == ws.id) continue;
      auto& victim = *workers[static_cast<std::size_t>(v)];
      if (!victim.busy.load(std::memory_order_acquire)) continue;
      if (auto tasks = victim.stealChan.steal(500us)) {
        rt::trace::record(rt::trace::Ev::kLocalSteal, ctx.id(),
                          static_cast<std::uint64_t>(v), tasks->size());
        // Stolen tasks were counted created by the victim; queue them
        // locally - the workpool acts as the transit buffer of Section 3.6.
        for (auto& t : *tasks) {
          const int depth = t.depth;
          ctx.pool().push(std::move(t), depth);
          if (rt::trace::enabled()) {
            rt::trace::record(rt::trace::Ev::kPoolPush, ctx.id(),
                              static_cast<std::uint64_t>(depth),
                              ctx.pool().size());
          }
        }
        return;
      }
      ctx.reg().metrics.failedSteals.fetch_add(1, std::memory_order_relaxed);
      rt::trace::record(rt::trace::Ev::kLocalStealFail, ctx.id(),
                        static_cast<std::uint64_t>(v));
      return;  // one attempt per idle round; back off via popWait
    }

    // No busy local worker: try a remote locality.
    if (ctx.busyWorkers().load(std::memory_order_relaxed) == 0) {
      ctx.requestRemoteStackSteal(ws.rng);
    }
  }
};

}  // namespace ssdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
using StackStealing =
    detail::Engine<ssdetail::Coord<Gen>, Gen, SearchType, Opts...>;

}  // namespace yewpar::skeletons
