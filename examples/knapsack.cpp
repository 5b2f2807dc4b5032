// 0/1 Knapsack driver:
//
//   knapsack --items 40 --seed 3 --skeleton budget -b 10000 --workers 4

#include <cstdio>

#include "apps/knapsack/knapsack.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  const auto n = static_cast<std::size_t>(flags.getInt("items", 36));
  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  flags.rejectUnread();
  auto inst = ks::randomInstance(n, 100, 0.5, seed);
  std::printf("knapsack: %zu items, capacity %lld\n", inst.size(),
              static_cast<long long>(inst.capacity));

  auto out = examples::searchWith<ks::Gen, Optimisation,
                                  BoundFunction<&ks::upperBound>>(
      skeleton, params, inst, ks::Node{});
  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  std::printf("optimal profit: %lld\nitems:",
              static_cast<long long>(out.objective));
  for (auto i : out.incumbent->chosen) std::printf(" %d", i);
  std::printf("\nweight: %lld / %lld\n",
              static_cast<long long>(out.incumbent->weight),
              static_cast<long long>(inst.capacity));
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
