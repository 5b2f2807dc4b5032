#pragma once

// Per-locality global-knowledge registry (paper Section 4.3, "Knowledge
// Management"). Bounds are broadcast between localities; each locality keeps
// the last received bound in `localBound`. The local bound may lag behind
// the true global bound without affecting correctness - staleness only costs
// missed pruning opportunities (ablation B measures this cost).

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>

#include "runtime/metrics.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar {

inline constexpr std::int64_t kObjMin =
    std::numeric_limits<std::int64_t>::min();

// Monotone CAS-max; returns true iff `v` strictly improved the stored value.
inline bool atomicMax(std::atomic<std::int64_t>& a, std::int64_t v) {
  std::int64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v) {
    if (a.compare_exchange_weak(cur, v, std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

template <typename Node, typename EnumValue>
struct Registry {
  // Best objective value this locality knows about (local finds and received
  // broadcasts). Monotone non-decreasing.
  std::atomic<std::int64_t> localBound{kObjMin};

  // Best node found *at this locality*; the globally best node lives at the
  // locality of its finder and is selected at gather time (which also takes
  // incMtx - cheap there, and it keeps the guarded-access discipline
  // uniform instead of relying on "the workers have joined by now").
  rt::Mutex incMtx;
  std::optional<Node> incumbent GUARDED_BY(incMtx);
  std::int64_t incumbentObj GUARDED_BY(incMtx) = kObjMin;

  // Decision short-circuit / maxNodes-cap flag: when set, workers drain
  // remaining tasks without searching them.
  std::atomic<bool> stop{false};

  // True only when stop was raised by a node-cap, not by a decision find.
  std::atomic<bool> truncated{false};

  // Enumeration accumulator. Workers fold locally and merge here on exit.
  rt::Mutex accMtx;
  EnumValue acc GUARDED_BY(accMtx){};

  rt::Metrics metrics;

  std::int64_t decisionTarget = 0;
  std::uint64_t maxNodes = 0;

  // Record a locally found node with objective `obj` if it improves on
  // everything this locality has seen. Returns true iff the local bound
  // strictly improved, in which case the caller broadcasts the new bound
  // (rule (strengthen) of Fig. 2; the broadcast lives in the engine, which
  // owns the message tags).
  bool strengthenIncumbent(const Node& n, std::int64_t obj)
      EXCLUDES(incMtx) {
    if (!atomicMax(localBound, obj)) return false;
    rt::LockGuard lock(incMtx);
    if (obj > incumbentObj) {
      incumbent = n;
      incumbentObj = obj;
    }
    return true;
  }

  // Merge a worker's enumeration fold into the locality accumulator.
  template <typename M>
  void mergeAccumulator(EnumValue v) EXCLUDES(accMtx) {
    rt::LockGuard lock(accMtx);
    acc = M::plus(std::move(acc), std::move(v));
  }
};

}  // namespace yewpar
