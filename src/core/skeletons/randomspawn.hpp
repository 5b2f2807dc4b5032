#pragma once

// RandomSpawn search coordination - the second extension point named in
// paper Section 4 ("new coordination methods may provide best-first search
// or *random task creation*"). Each generated child is converted into a
// workpool task with probability 1/64 (rsdetail::kSpawnOneIn) and searched
// inline otherwise. Expected work generation is steady and size-agnostic: no
// parameters tied to tree shape (depth cutoffs) or search dynamics
// (backtrack budgets), at the cost of ignoring the subtree-size heuristic
// that Depth-Bounded and Stack-Stealing exploit.

#include "core/skeletons/engine.hpp"

namespace yewpar::skeletons {

namespace rsdetail {

// Expected one task spawned per this many children generated.
inline constexpr std::uint64_t kSpawnOneIn = 64;

template <typename Gen>
struct Coord {
  template <typename Ctx, typename WS>
  static void executeTask(Ctx& ctx, WS& ws, typename Ctx::Task task) {
    using Ops = typename Ctx::Ops;
    auto res = Ops::visit(ctx.reg(), ws.acc, ctx.space(), task.node);
    ctx.applyVisit(res);
    if (res.action == detail::Action::Prune) ++ws.acc.prunes;
    if (res.action != detail::Action::Continue) return;

    std::vector<Gen> genStack;
    genStack.reserve(64);
    genStack.emplace_back(ctx.space(), task.node);
    while (!genStack.empty()) {
      if (ctx.stopped()) return;
      Gen& gen = genStack.back();
      if (!gen.hasNext()) {
        genStack.pop_back();
        ++ws.acc.backtracks;
        continue;
      }
      typename Ctx::Node child = gen.next();

      // Random task creation: hive the child off unvisited; the executing
      // worker visits it, exactly like every other spawn rule.
      if (ws.rng.below(kSpawnOneIn) == 0) {
        const auto depth =
            task.depth + static_cast<std::int32_t>(genStack.size());
        ctx.spawn(typename Ctx::Task{std::move(child), depth});
        continue;
      }

      auto childRes = Ops::visit(ctx.reg(), ws.acc, ctx.space(), child);
      ctx.applyVisit(childRes);
      if (childRes.action == detail::Action::Continue) {
        genStack.emplace_back(ctx.space(), child);
      } else if (childRes.action == detail::Action::Stop) {
        return;
      } else {
        ++ws.acc.prunes;
        if constexpr (Ctx::kPruneLevel) {
          genStack.pop_back();
          ++ws.acc.backtracks;
        }
      }
    }
  }

  template <typename Ctx, typename WS>
  static void onIdle(Ctx& ctx, WS& ws) {
    ctx.requestRemotePoolSteal(ws.rng);
  }
};

}  // namespace rsdetail

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct RandomSpawn {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Eng =
      detail::Engine<rsdetail::Coord<Gen>, Gen, SearchType, Opts...>;
  using Out = typename Eng::Out;

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    return Eng::run(params, space, root);
  }
};

}  // namespace yewpar::skeletons
