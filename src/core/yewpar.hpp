#pragma once

// Umbrella header: the full YewPar public API.
//
// A search application is composed exactly as in the paper (Fig. 3 and
// Listing 5): pick a search coordination, provide a Lazy Node Generator, and
// pick a search type; optionally add a BoundFunction for pruning.
//
//   auto out = yewpar::skeletons::StackStealing<
//       Gen, yewpar::Optimisation,
//       yewpar::BoundFunction<&upperBound>>::search(params, space, root);
//
// The 12 skeletons of the paper are the instantiations of
// {Sequential, DepthBounded, StackStealing, Budget} x
// {Enumeration<...>, Decision, Optimisation}. The Ordered and RandomSpawn
// coordinations are repo extensions (Section 4 names both extension
// points), bringing the total to 18.

#include "core/monoid.hpp"
#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/params.hpp"
#include "core/searchtypes.hpp"
#include "core/skeletons/budget.hpp"
#include "core/skeletons/depthbounded.hpp"
#include "core/skeletons/ordered.hpp"
#include "core/skeletons/randomspawn.hpp"
#include "core/skeletons/select.hpp"
#include "core/skeletons/sequential.hpp"
#include "core/skeletons/stackstealing.hpp"
