#pragma once

// The depth-first subtree search loop shared by the parallel coordinations.
// It is the Sequential loop (Listing 2) extended with the two dynamic work
// generation hooks of Listings 3 and 4:
//   * PollSteals (Stack-Stealing): on every expansion, answer pending steal
//     requests by splitting off unexplored lowest-depth subtrees;
//   * budget (Budget): after `budget` backtracks, offload all unexplored
//     lowest-depth subtrees into the workpool and reset the counter.

#include <cstdint>
#include <vector>

#include "core/search_ops.hpp"
#include "runtime/trace.hpp"

namespace yewpar::detail {

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

// Answer one pending local steal request and one pending remote steal
// request, if any (Listing 3 lines 6-13).
template <typename Ctx, typename WS, typename Gen>
void pollStealRequests(Ctx& ctx, WS& ws, std::vector<Gen>& genStack,
                       int rootDepth) {
  auto& metrics = ctx.reg().metrics;

  const ChunkPolicy chunk = ctx.params().chunk;

  if (ws.stealChan.hasRequest()) {
    auto tasks = splitLowest(ctx, genStack, rootDepth, chunk);
    if (tasks.empty()) {
      (void)ws.stealChan.respond({});
    } else {
      const auto n = tasks.size();
      // Count before the tasks become visible to the thief.
      ctx.term().taskCreated(n);
      metrics.tasksSpawned.fetch_add(n, std::memory_order_relaxed);
      if (!ws.stealChan.respond(std::move(tasks))) {
        // Thief withdrew; reintegrate the split-off work locally so no
        // subtree is lost.
        for (auto& t : tasks) {
          const int d = t.depth;
          ctx.pool().push(std::move(t), d);
        }
      } else {
        metrics.localSteals.fetch_add(n, std::memory_order_relaxed);
        metrics.stealReplies.fetch_add(1, std::memory_order_relaxed);
        rt::trace::record(rt::trace::Ev::kLocalStealAnswer, ctx.id(),
                          static_cast<std::uint64_t>(ws.id), n);
      }
    }
  }

  if (ctx.hasPendingRemoteSteal()) {
    if (auto req = ctx.takePendingRemoteSteal()) {
      auto tasks = splitLowest(ctx, genStack, rootDepth, chunk);
      metrics.tasksSpawned.fetch_add(tasks.size(),
                                     std::memory_order_relaxed);
      // answerRemoteSteal counts non-empty replies as created; an empty
      // reply NACKs so the thief's steal slot frees up.
      ctx.answerRemoteSteal(*req, std::move(tasks));
    }
  }
}

// Search the subtree below `root` (root itself has already been visited by
// the caller). `budget` == 0 means unbounded.
template <bool PollSteals, typename Gen, typename Ctx, typename WS>
void subtreeSearch(Ctx& ctx, WS& ws, const typename Ctx::Node& root,
                   int rootDepth, std::uint64_t budget) {
  using Task = typename Ctx::Task;
  using Ops = typename Ctx::Ops;
  auto& reg = ctx.reg();

  std::vector<Gen> genStack;
  genStack.reserve(64);
  genStack.emplace_back(ctx.space(), root);
  std::uint64_t backtracks = 0;

  while (!genStack.empty()) {
    if (ctx.stopped()) return;

    if constexpr (PollSteals) {
      pollStealRequests(ctx, ws, genStack, rootDepth);
    }

    // (spawn-budget): offload all unexplored lowest-depth subtrees.
    if (budget != 0 && backtracks >= budget) {
      for (std::size_t gi = 0; gi < genStack.size(); ++gi) {
        if (genStack[gi].hasNext()) {
          const auto depth = rootDepth + static_cast<std::int32_t>(gi) + 1;
          while (genStack[gi].hasNext()) {
            ctx.spawn(Task{genStack[gi].next(), depth});
          }
          break;
        }
      }
      backtracks = 0;
      continue;
    }

    Gen& gen = genStack.back();
    if (gen.hasNext()) {
      typename Ctx::Node child = gen.next();
      auto res = Ops::visit(reg, ws.acc, ctx.space(), child);
      ctx.applyVisit(res);
      if (res.action == Action::Continue) {
        genStack.emplace_back(ctx.space(), child);
      } else if (res.action == Action::Stop) {
        return;
      } else {
        ++ws.acc.prunes;
        if constexpr (Ctx::kPruneLevel) {
          // Prune with level discard: unexplored siblings cannot beat the
          // incumbent either (children are in non-increasing bound order).
          genStack.pop_back();
          ++backtracks;
          ++ws.acc.backtracks;
        }
      }
    } else {
      genStack.pop_back();  // backtrack
      ++backtracks;
      ++ws.acc.backtracks;
    }
  }
}

}  // namespace yewpar::detail
