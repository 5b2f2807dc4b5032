#pragma once

// Runtime skeleton selection: the one switch from a skeleton chosen at run
// time (a command-line flag, a parameterised test or bench sweep) to its
// compile-time search. Display names stay with the callers.

#include "core/params.hpp"
#include "core/skeletons/budget.hpp"
#include "core/skeletons/depthbounded.hpp"
#include "core/skeletons/ordered.hpp"
#include "core/skeletons/randomspawn.hpp"
#include "core/skeletons/sequential.hpp"
#include "core/skeletons/stackstealing.hpp"

namespace yewpar::skeletons {

enum class Skel {
  Seq,
  DepthBounded,
  StackStealing,
  Budget,
  Ordered,
  RandomSpawn,
};

template <typename Gen, typename SearchType, typename... Opts>
auto runSkeleton(Skel s, const Params& p, const typename Gen::Space& space,
                 const typename Gen::Node& root) {
  switch (s) {
    case Skel::DepthBounded:
      return DepthBounded<Gen, SearchType, Opts...>::search(p, space, root);
    case Skel::StackStealing:
      return StackStealing<Gen, SearchType, Opts...>::search(p, space, root);
    case Skel::Budget:
      return Budget<Gen, SearchType, Opts...>::search(p, space, root);
    case Skel::Ordered:
      return Ordered<Gen, SearchType, Opts...>::search(p, space, root);
    case Skel::RandomSpawn:
      return RandomSpawn<Gen, SearchType, Opts...>::search(p, space, root);
    case Skel::Seq:
    default:
      return Sequential<Gen, SearchType, Opts...>::search(p, space, root);
  }
}

}  // namespace yewpar::skeletons
