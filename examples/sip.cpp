// Subgraph Isomorphism driver (decision search):
//
//   sip --ntarget 40 --p 0.4 --kpattern 8 --seed 2 --skeleton stacksteal
//   sip --random --npattern 6 ...     (pattern independent of target)

#include <cstdio>

#include "apps/sip/sip.hpp"
#include "common.hpp"

using namespace yewpar;
using namespace yewpar::apps;

int main(int argc, char** argv) try {
  Flags flags(argc, argv);
  const auto skeleton = flags.getString("skeleton", "seq");
  Params params = examples::paramsFromFlags(flags);

  const auto seed = static_cast<std::uint64_t>(flags.getInt("seed", 1));
  sip::Instance inst;
  if (flags.getBool("random")) {
    inst = sip::randomInstance(
        static_cast<std::size_t>(flags.getInt("npattern", 6)),
        flags.getDouble("ppattern", 0.6),
        static_cast<std::size_t>(flags.getInt("ntarget", 30)),
        flags.getDouble("p", 0.4), seed);
  } else {
    inst = sip::satInstance(
        static_cast<std::size_t>(flags.getInt("ntarget", 30)),
        flags.getDouble("p", 0.4),
        static_cast<std::size_t>(flags.getInt("kpattern", 8)), seed);
  }
  flags.rejectUnread();
  std::printf("sip: pattern %zu vertices, target %zu vertices\n",
              inst.pattern.size(), inst.target.size());

  params.decisionTarget = static_cast<std::int64_t>(inst.pattern.size());
  auto out = examples::searchWith<sip::Gen, Decision>(skeleton, params, inst,
                                                      sip::rootNode(inst));
  if (!out.isRoot) return 0;  // non-zero tcp rank: rank 0 reports
  if (out.decided) {
    std::printf("pattern FOUND; mapping (pattern->target):");
    for (std::size_t i = 0; i < out.incumbent->mapping.size(); ++i) {
      std::printf(" %d->%d", inst.order[i], out.incumbent->mapping[i]);
    }
    std::printf("\n");
  } else {
    std::printf("pattern NOT present\n");
  }
  examples::printMetrics(out);
  return 0;
} catch (const std::exception& e) {
  return examples::failMain(e);
}
