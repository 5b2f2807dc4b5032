#pragma once

// Test helper: the six coordinations as gtest parameters, run through the
// library's runtime switch (core/skeletons/select.hpp), so parameterised
// suites can sweep over skeletons.

#include "core/yewpar.hpp"

namespace yewpar::testing {

using skeletons::runSkeleton;
using skeletons::Skel;

inline const char* skelName(Skel s) {
  switch (s) {
    case Skel::Seq: return "Sequential";
    case Skel::DepthBounded: return "DepthBounded";
    case Skel::Ordered: return "Ordered";
    case Skel::RandomSpawn: return "RandomSpawn";
    case Skel::StackStealing: return "StackStealing";
    case Skel::Budget: return "Budget";
  }
  return "?";
}

// All parallel skeletons (sequential is usually the oracle).
inline constexpr Skel kParallelSkels[] = {Skel::DepthBounded,
                                          Skel::StackStealing, Skel::Budget,
                                          Skel::Ordered, Skel::RandomSpawn};

inline constexpr Skel kAllSkels[] = {Skel::Seq, Skel::DepthBounded,
                                     Skel::StackStealing, Skel::Budget,
                                     Skel::Ordered, Skel::RandomSpawn};

}  // namespace yewpar::testing
