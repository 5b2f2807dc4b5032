// Conflict-MST driver (minimum spanning tree with conflicting edge pairs):
//
//   cmst --vertices 9 --edges 18 --conflicts 8 --seed 1 --skeleton depthbounded --workers 4
//   cmst --file instance.cmst --skeleton seq
//   cmst --vertices 9 --edges 18 --conflicts 8 --maxcost 1200   (Decision:
//       is there a conflict-free spanning tree of cost <= 1200?)

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "apps/cmst/cmst.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

namespace {

cmst::Instance loadInstance(const Flags& flags) {
  if (flags.has("file")) {
    const auto path = flags.getString("file", "");
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return cmst::parseText(text.str());
  }
  const auto n = static_cast<std::int32_t>(flags.getInt("vertices", 9));
  const auto m = static_cast<std::int32_t>(flags.getInt("edges", 2 * n));
  const auto p = static_cast<std::int32_t>(flags.getInt("conflicts", n));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  return cmst::randomInstance(n, m, p, seed);
}

}  // namespace

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  auto inst = loadInstance(flags);
  const bool decision = flags.has("maxcost");
  const long budget = flags.getInt("maxcost", 0);
  flags.rejectUnread();
  std::printf("cmst: %d vertices, %d edges, %zu conflict pairs\n", inst.n,
              inst.m(), inst.ca.size());

  if (decision) {
    // Decision: cost <= B maps to objective >= -B under the negated-cost
    // convention.
    params.decisionTarget = -budget;
    auto out = examples::searchWith<cmst::Gen, Decision,
                                    BoundFunction<&cmst::upperBound>>(
        skeleton, params, inst, cmst::rootNode(inst));
    if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
    std::printf("tree of cost <= %ld: %s\n", budget,
                out.decided ? "yes" : "no");
    if (out.decided && out.incumbent && out.incumbent->complete) {
      std::printf("witness cost: %lld\n",
                  static_cast<long long>(-out.objective));
    }
    examples::printMetrics(out);
    return 0;
  }

  auto out = examples::searchWith<cmst::Gen, Optimisation,
                                  BoundFunction<&cmst::upperBound>>(
      skeleton, params, inst, cmst::rootNode(inst));
  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  if (!out.incumbent || !out.incumbent->complete) {
    std::printf("infeasible: the conflicts rule out every spanning tree\n");
  } else {
    std::printf("optimal tree cost: %lld\nedges:",
                static_cast<long long>(-out.objective));
    for (auto e : out.incumbent->included) {
      std::printf(" %d-%d", inst.eu[static_cast<std::size_t>(e)],
                  inst.ev[static_cast<std::size_t>(e)]);
    }
    std::printf("\n");
  }
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
