#pragma once

// Node-processing and pruning rules factored by search type, mirroring how
// Fig. 2's reduction rules split into node processing ((accumulate),
// (strengthen), (skip)) and pruning ((prune), (shortcircuit)). Both the
// Sequential skeleton and the parallel engine drive these operations.

#include <cstdint>
#include <optional>

#include "core/monoid.hpp"
#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/registry.hpp"
#include "core/searchtypes.hpp"

namespace yewpar::detail {

enum class Action {
  Continue,  // explore children as usual
  Prune,     // bound cannot beat incumbent/target: skip the subtree
  Stop,      // decision target hit (or node cap): stop the whole search
};

struct VisitResult {
  Action action = Action::Continue;
  // Set when the local bound strictly improved and (in a parallel search)
  // must be broadcast to the other localities.
  std::optional<std::int64_t> broadcastBound;
};

template <typename Gen, typename SearchType, typename Bound>
struct SearchOps {
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using EnumValue = typename EnumValueOf<SearchType>::type;
  using Reg = Registry<Node, EnumValue>;

  // Worker-private state: the enumeration fold plus plain (non-atomic)
  // metric counters, merged into the registry on worker exit. Keeping the
  // search hot loop free of atomic RMWs is what holds the skeleton's
  // sequential overhead near the paper's single-digit percentages.
  struct WorkerAcc {
    EnumValue value{};
    std::uint64_t nodes = 0;
    std::uint64_t prunes = 0;
    std::uint64_t backtracks = 0;

    WorkerAcc() {
      if constexpr (SearchType::isEnumeration) {
        value = SearchType::M::zero();
      }
    }
  };

  // Visit one node: count it, apply the search type's processing rule, then
  // the pruning rule (counting a prune). Every node is visited exactly once.
  static VisitResult visit(Reg& reg, WorkerAcc& acc, const Space& space,
                           const Node& node) {
    VisitResult res;
    if (reg.maxNodes == 0) {
      ++acc.nodes;
    } else {
      // Optional node cap (tests / parameter sweeps) needs a global count:
      // raise stop and let the engine drain. A repo extension, not paper.
      auto visited =
          reg.metrics.nodesProcessed.fetch_add(1, std::memory_order_relaxed);
      if (visited >= reg.maxNodes) {
        reg.truncated.store(true, std::memory_order_relaxed);
        res.action = Action::Stop;
        return res;
      }
    }

    if constexpr (SearchType::isEnumeration) {
      // Rule (accumulate): fold the objective value into the monoid.
      using M = typename SearchType::M;
      acc.value = M::plus(std::move(acc.value),
                          SearchType::Obj::eval(space, node));
      return res;
    } else {
      const std::int64_t obj = node.getObj();

      // Rules (strengthen)/(skip): keep the node iff it beats the best
      // objective this locality has seen.
      if (reg.strengthenIncumbent(node, obj)) {
        res.broadcastBound = obj;
      }

      if constexpr (SearchType::isDecision) {
        // Rule (shortcircuit): target reached, stop everywhere.
        if (obj >= reg.decisionTarget) {
          res.action = Action::Stop;
          return res;
        }
        // Rule (prune) against the fixed target.
        if constexpr (Bound::hasBound) {
          if (Bound::bound(space, node) < reg.decisionTarget) {
            res.action = Action::Prune;
            ++acc.prunes;
          }
        }
      } else {
        // Optimisation: rule (prune) against the current (possibly stale)
        // local bound. Condition 1 of Section 3.5: the subtree cannot
        // strictly beat the incumbent.
        if constexpr (Bound::hasBound) {
          if (Bound::bound(space, node) <=
              reg.localBound.load(std::memory_order_relaxed)) {
            res.action = Action::Prune;
            ++acc.prunes;
          }
        }
      }
      return res;
    }
  }

  static void mergeWorkerAcc(Reg& reg, WorkerAcc& acc) {
    if constexpr (SearchType::isEnumeration) {
      reg.template mergeAccumulator<typename SearchType::M>(
          std::move(acc.value));
    }
    reg.metrics.nodesProcessed.fetch_add(acc.nodes,
                                         std::memory_order_relaxed);
    reg.metrics.prunes.fetch_add(acc.prunes, std::memory_order_relaxed);
    reg.metrics.backtracks.fetch_add(acc.backtracks,
                                     std::memory_order_relaxed);
    acc.nodes = acc.prunes = acc.backtracks = 0;
  }
};

}  // namespace yewpar::detail
