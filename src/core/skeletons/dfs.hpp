#pragma once

// The one depth-first search loop (paper Listing 2). Sequential runs it with
// no hooks; each parallel coordination is a set of compile-time hooks on it
// (the spawn rules of Listings 3-4 and Section 3.6), and a hook it does not
// define compiles away:
//   * step(genStack, rootDepth): once per expansion step (Stack-Stealing);
//   * before(child, depth) -> bool: true if it spawned a generated child
//     unvisited (Depth-Bounded, RandomSpawn);
//   * after(child, depth) -> bool: true if it turned a visited child into a
//     task instead of descending into it (Ordered);
//   * visited(task) -> bool: true if the task's spawner already visited its
//     root, so runTask does not (Ordered's frontier).
// Listing 4's (spawn-budget) rule is no hook: `kBudget` in a hook set
// switches it on, and the loop keeps its counter in a local and offloads
// through ctx.spawn. As a step hook it measured slower, and offloading
// through splitLowest held a second copy of the root's children.
//
// Counting: SearchOps::visit counts a node, and a prune, per visit; the loop
// counts a backtrack per generator it pops, exhausted or discarded by a
// prune-level prune.

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/search_ops.hpp"
#include "runtime/trace.hpp"

namespace yewpar::detail {

struct NoHooks {};

template <typename Hooks>
inline constexpr bool kBudgetRule =
    requires { requires std::remove_cvref_t<Hooks>::kBudget; };

// Search the subtree below `root`, which the caller has already visited.
// `budget` (0 = unbounded) is read only when the hooks switch the
// (spawn-budget) rule on.
template <typename Gen, typename Ctx, typename Acc, typename Hooks>
void dfs(Ctx& ctx, Acc& acc, Hooks&& hooks, const typename Gen::Node& root,
         int rootDepth, std::uint64_t budget = 0) {
  constexpr bool kBudget = kBudgetRule<Hooks>;
  std::vector<Gen> genStack;
  genStack.reserve(64);
  genStack.emplace_back(ctx.space(), root);
  std::uint64_t sinceOffload = 0;  // backtracks, for the budget rule

  while (!genStack.empty()) {
    if (ctx.stopped()) return;

    if constexpr (requires { hooks.step(genStack, rootDepth); }) {
      hooks.step(genStack, rootDepth);
    }

    if constexpr (kBudget) {
      // (spawn-budget): offload every unexplored lowest-depth subtree.
      if (budget != 0 && sinceOffload >= budget) {
        for (std::size_t gi = 0; gi < genStack.size(); ++gi) {
          if (genStack[gi].hasNext()) {
            const auto depth = rootDepth + static_cast<std::int32_t>(gi) + 1;
            while (genStack[gi].hasNext()) {
              ctx.spawn(typename Ctx::Task{genStack[gi].next(), depth});
            }
            break;
          }
        }
        sinceOffload = 0;
        continue;
      }
    }

    Gen& gen = genStack.back();
    if (!gen.hasNext()) {
      genStack.pop_back();  // backtrack
      ++acc.backtracks;
      if constexpr (kBudget) ++sinceOffload;
      continue;
    }

    typename Gen::Node child = gen.next();
    const int depth = rootDepth + static_cast<int>(genStack.size());
    if constexpr (requires { hooks.before(child, depth); }) {
      if (hooks.before(child, depth)) continue;
    }
    switch (ctx.visit(acc, child)) {
      case Action::Continue:
        if constexpr (requires { hooks.after(child, depth); }) {
          if (hooks.after(child, depth)) break;
        }
        genStack.emplace_back(ctx.space(), child);
        break;
      case Action::Prune:
        if constexpr (Ctx::kPruneLevel) {
          // Children arrive in non-increasing bound order: the failed check
          // rules out every unexplored sibling too.
          genStack.pop_back();
          ++acc.backtracks;
          if constexpr (kBudget) ++sinceOffload;
        }
        break;
      case Action::Stop:
        return;
    }
  }
}

// Run one workpool task: visit its root, unless the hooks say its spawner
// already did, then search below it. Kept out of line: inlined into the
// engine's worker loop, the search loop ran 8% slower on bench/perf's
// uts-bin-2loc.
template <typename Gen, typename Ctx, typename WS, typename Hooks>
[[gnu::noinline]] void runTask(Ctx& ctx, WS& ws, Hooks hooks, const typename Ctx::Task& task) {
  bool visited = false;
  if constexpr (requires { hooks.visited(task); }) {
    visited = hooks.visited(task);
  }
  if (!visited && ctx.visit(ws.acc, task.node) != Action::Continue) return;
  dfs<Gen>(ctx, ws.acc, hooks, task.node, task.depth,
           ctx.params().backtrackBudget);
}

// Split off unexplored subtrees from the generator stack, lowest depth first
// (closest to the root, hence heuristically the largest). How many is the
// chunk policy's call - the (spawn-stack) rule generalised from the paper's
// one/all-siblings pair:
//   * One takes a single node and All takes every sibling at the lowest
//     splittable depth (the original boolean `chunked` variants);
//   * Fixed/Half/Adaptive take up to chunkFor(stack depth) nodes, spilling
//     into deeper stack levels when the lowest level runs out, so one reply
//     can carry splits from several depths (multi-split replies). The
//     generator-stack depth stands in for the victim's pool size here.
// The caller is responsible for counting the tasks as created.
template <typename Ctx, typename Gen>
std::vector<typename Ctx::Task> splitLowest(Ctx&, std::vector<Gen>& genStack,
                                            int rootDepth,
                                            const ChunkPolicy& chunk) {
  std::vector<typename Ctx::Task> out;
  const bool all = chunk.kind == ChunkKind::All;
  const std::size_t want = all ? 0 : chunk.chunkFor(genStack.size());
  for (std::size_t gi = 0; gi < genStack.size(); ++gi) {
    if (!genStack[gi].hasNext()) continue;
    const auto depth = rootDepth + static_cast<std::int32_t>(gi) + 1;
    while (genStack[gi].hasNext() && (all || out.size() < want)) {
      out.push_back({genStack[gi].next(), depth});
    }
    if (all || out.size() >= want) break;
  }
  return out;
}

// Answer one queued steal request, if any (Listing 3 lines 6-13): local and
// remote thieves share the locality's queue, and whichever busy worker
// reaches an expansion step first splits its stack for the request's thief.
template <typename Ctx, typename WS, typename Gen>
void pollStealRequests(Ctx& ctx, WS& ws, std::vector<Gen>& genStack,
                       int rootDepth) {
  if (!ctx.hasStealRequest()) return;
  if (const auto req = ctx.takeStealRequest()) {
    ctx.answerSteal(*req, ws.id, [&] {
      return splitLowest(ctx, genStack, rootDepth, ctx.params().chunk);
    });
  }
}

}  // namespace yewpar::detail
