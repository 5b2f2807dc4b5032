// Unbalanced Tree Search driver (enumeration): counts the nodes of a seeded
// synthetic irregular tree.
//
//   uts_count --shape geo --b0 6 --depth 9 --seed 42 --skeleton stacksteal

#include <cstdio>
#include <stdexcept>
#include <string>

#include "apps/uts/uts.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  uts::Params tree;
  const auto shape = flags.getString("shape", "geo");
  if (shape != "geo" && shape != "bin") {
    throw std::invalid_argument("unknown --shape '" + shape + "' (geo|bin)");
  }
  tree.shape = shape == "bin" ? uts::Shape::Binomial : uts::Shape::Geometric;
  tree.b0 = static_cast<std::int32_t>(flags.getInt("b0", 6));
  tree.maxDepth = static_cast<std::int32_t>(flags.getInt("depth", 9));
  tree.q = flags.getDouble("q", 0.4);
  tree.m = static_cast<std::int32_t>(flags.getInt("m", 2));
  tree.seed = static_cast<std::uint64_t>(flags.getInt("seed", 42));
  flags.rejectUnread();

  auto out = examples::searchWith<uts::Gen, Enumeration<CountByDepth>>(
      skeleton, params, tree, uts::rootNode(tree));

  if (!out.isRoot) return 0;  // non-zero tcp rank: results shipped to rank 0
  std::uint64_t total = 0;
  for (auto c : out.sum) total += c;
  std::printf("uts: %llu nodes, max depth %zu\n",
              static_cast<unsigned long long>(total),
              out.sum.empty() ? 0 : out.sum.size() - 1);
  for (std::size_t d = 0; d < out.sum.size(); ++d) {
    std::printf("  depth %-3zu %llu\n", d,
                static_cast<unsigned long long>(out.sum[d]));
  }
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
