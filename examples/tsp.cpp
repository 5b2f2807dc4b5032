// Travelling Salesperson driver:
//
//   tsp --cities 12 --seed 5 --skeleton stacksteal --workers 4

#include <cstdio>

#include "apps/tsp/tsp.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  const auto n = static_cast<std::int32_t>(flags.getInt("cities", 12));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  flags.rejectUnread();
  auto inst = tsp::randomEuclidean(n, seed);
  std::printf("tsp: %d cities (seeded Euclidean)\n", inst.n);

  auto out = examples::searchWith<tsp::Gen, Optimisation,
                                  BoundFunction<&tsp::upperBound>>(
      skeleton, params, inst, tsp::rootNode(inst));
  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  std::printf("optimal tour cost: %lld\ntour:",
              static_cast<long long>(-out.objective));
  for (auto c : out.incumbent->path) std::printf(" %d", c);
  std::printf(" 0\n");
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
