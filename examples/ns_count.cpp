// Numerical Semigroups counter (enumeration search): counts the semigroups
// of every genus up to --genus by folding the semigroup tree into a
// per-depth histogram monoid.
//
//   ns_count --genus 14 --skeleton budget -b 1000 --workers 4

#include <cstdio>

#include "apps/ns/ns.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  const auto maxGenus = static_cast<std::int32_t>(flags.getInt("genus", 12));
  flags.rejectUnread();
  auto space = ns::makeSpace(maxGenus);
  std::printf("numerical semigroups up to genus %d\n", maxGenus);

  auto out = examples::searchWith<ns::Gen, Enumeration<CountByDepth>>(
      skeleton, params, space, ns::rootNode(space));

  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  std::printf("%-6s %-12s %s\n", "genus", "count", "reference");
  for (std::int32_t g = 0; g <= maxGenus; ++g) {
    const auto counted =
        g < static_cast<std::int32_t>(out.sum.size())
            ? out.sum[static_cast<std::size_t>(g)]
            : 0;
    const auto known = ns::knownGenusCount(g);
    std::printf("%-6d %-12llu %llu%s\n", g,
                static_cast<unsigned long long>(counted),
                static_cast<unsigned long long>(known),
                counted == known ? "" : "  MISMATCH");
  }
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
