#pragma once

// Sequential search coordination (paper Listing 2): single-threaded
// depth-first backtracking over a stack of Lazy Node Generators - dfs.hpp's
// loop with no hooks - with no runtime underneath. This is the baseline every
// parallel speedup in the evaluation is measured against, so it carries no
// locks, channels or pools, only the registry shared with the other
// skeletons (uncontended here).

#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/params.hpp"
#include "core/search_ops.hpp"
#include "core/skeletons/dfs.hpp"
#include "runtime/trace.hpp"
#include "util/timer.hpp"

namespace yewpar::skeletons {

template <NodeGenerator Gen, typename SearchType, typename... Opts>
struct Sequential {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Bound = BoundOf<Opts...>;
  using Ops = detail::SearchOps<Gen, SearchType, Bound>;
  using Out = Outcome<Node, typename Ops::EnumValue>;

  // The loop's context with no runtime underneath: nothing else raises stop
  // (a short-circuit ends the loop through its Stop action), and there is
  // no bound to broadcast.
  struct Ctx {
    static constexpr bool kPruneLevel = kPruneLevelOf<Opts...>;
    const Space& space_;
    typename Ops::Reg reg{};
    const Space& space() const { return space_; }
    detail::Action visit(typename Ops::WorkerAcc& acc, const Node& node) {
      return Ops::visit(reg, acc, space_, node).action;
    }
    static constexpr bool stopped() { return false; }
  };

  static Out search(const Params& params, const Space& space,
                    const Node& root) {
    Timer timer;
    // One locality, one worker, one task: a single span covering the whole
    // search, so sequential traces load in the same Perfetto view as the
    // parallel ones.
    rt::trace::SessionScope traceScope(!params.traceFile.empty());
    rt::trace::nameThread("L0.seq");
    rt::trace::record(rt::trace::Ev::kTaskRunBegin, 0, 0, 0);
    Ctx ctx{space};
    auto& reg = ctx.reg;
    reg.decisionTarget = params.decisionTarget;
    reg.maxNodes = params.maxNodes;
    typename Ops::WorkerAcc acc;
    // processNode(root), then search below it (Listing 2).
    if (ctx.visit(acc, root) == detail::Action::Continue) {
      detail::dfs<Gen>(ctx, acc, detail::NoHooks{}, root, 0);
    }
    Ops::mergeWorkerAcc(reg, acc);
    rt::trace::record(rt::trace::Ev::kTaskRunEnd, 0);
    if (!params.traceFile.empty()) {
      rt::trace::writeChromeJson(params.traceFile,
                                 {rt::trace::session().collect(-1)});
    }

    Out out;
    out.elapsedSeconds = timer.elapsedSeconds();
    out.metrics = reg.metrics.snapshot();
    out.sum = std::move(reg.acc);
    out.incumbent = std::move(reg.incumbent);
    out.objective = reg.incumbentObj;
    out.complete = !reg.truncated.load();
    if constexpr (SearchType::isDecision) {
      out.decided = out.objective >= params.decisionTarget;
    }
    return out;
  }
};

}  // namespace yewpar::skeletons
