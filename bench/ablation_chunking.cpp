// Ablation C (paper Section 4.2): steal-reply chunking policies.
//
// The paper's boolean chunked/unchunked stack-stealing ablation, generalised
// to the full ChunkPolicy sweep: every steal reply - stack splits AND pool
// steals - carries `one`, `fixed:k`, `half`, `adaptive` (sized from the
// victim's pool/stack depth) or `all` tasks per message. Chunking trades
// steal frequency against work granularity: tasks/steal rises above 1 and
// the message count falls while the search result must stay identical.
//
// Measured on UTS (pure enumeration: no pruning noise) and branch-and-bound
// MaxClique under Stack-Stealing (stack splits), and on conflict-MST under
// Depth-Bounded across 2 localities (remote workpool steals).
//
// Flags: --tiny (CI smoke sizes)  --reps N (timing repetitions)
// Exits non-zero if any policy changes a search result.

#include <cstdio>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "apps/cmst/cmst.hpp"
#include "apps/uts/uts.hpp"
#include "common.hpp"
#include "util/flags.hpp"

using namespace yewpar;
using namespace yewpar::apps;
using namespace yewpar::bench;

namespace {

struct RunResult {
  std::int64_t result = 0;  // enumeration count or objective
  rt::MetricsSnapshot metrics;
  double seconds = 0;
};

bool gResultsAgree = true;

// Run `runFn` under every chunk policy and add one table row each; verify
// every policy reproduces the `one` baseline's search result.
template <typename RunFn>
void sweepPolicies(TablePrinter& table, const char* workload,
                   const std::vector<std::string>& policies, RunFn&& runFn) {
  std::optional<std::int64_t> baseline;
  for (const auto& spec : policies) {
    const ChunkPolicy chunk = parseChunkPolicy(spec);
    RunResult r = runFn(chunk);
    if (!baseline) baseline = r.result;
    const bool ok = r.result == *baseline;
    if (!ok) gResultsAgree = false;
    table.addRow({workload, spec, TablePrinter::cell(r.seconds, 3),
                  std::to_string(r.metrics.tasksSpawned),
                  std::to_string(r.metrics.stealReplies),
                  TablePrinter::cell(r.metrics.tasksPerSteal(), 2),
                  std::to_string(r.metrics.networkMessages),
                  std::to_string(r.result) + (ok ? "" : " MISMATCH")});
  }
}

}  // namespace

int main(int argc, char** argv) try {
  Flags f(argc, argv);
  const bool tiny = f.getBool("tiny");
  const int reps = static_cast<int>(f.getInt("reps", tiny ? 1 : 3));
  f.rejectUnread();

  std::printf("== Ablation C: steal-reply chunking policies ==\n");
  std::printf("(policies size every steal reply; Steals counts successful "
              "steal transactions)\n\n");

  const std::vector<std::string> policies = {"one",  "fixed:2",  "fixed:4",
                                             "half", "adaptive", "all"};

  TablePrinter table({"Workload", "Policy", "Time(s)", "Tasks", "Steals",
                      "Tasks/Steal", "Msgs", "Result"});

  {  // UTS enumeration, Stack-Stealing: chunked stack splits.
    uts::Params tree;
    tree.shape = uts::Shape::Geometric;
    tree.b0 = 6;
    tree.maxDepth = tiny ? 9 : 13;
    tree.seed = 23;
    sweepPolicies(table, "UTS(geo)/stack", policies, [&](ChunkPolicy chunk) {
      Params p;
      p.workersPerLocality = 3;
      p.chunk = chunk;
      RunResult r;
      r.seconds = timeMedian(reps, [&] {
        auto out = skeletons::StackStealing<
            uts::Gen, Enumeration<CountAll>>::search(p, tree,
                                                     uts::rootNode(tree));
        r.result = static_cast<std::int64_t>(out.sum);
        r.metrics = out.metrics;
      });
      return r;
    });
  }

  {  // MaxClique optimisation, Stack-Stealing: chunking under pruning.
    Graph g = tiny ? gnp(70, 0.60, 71) : gnp(180, 0.72, 71);
    g.sortByDegreeDesc();
    sweepPolicies(table, "MaxClique/stack", policies, [&](ChunkPolicy chunk) {
      Params p;
      p.workersPerLocality = 3;
      p.chunk = chunk;
      RunResult r;
      r.seconds = timeMedian(reps, [&] {
        auto out = skeletons::StackStealing<
            mc::Gen, Optimisation, BoundFunction<&mc::upperBound>,
            PruneLevel>::search(p, g, mc::rootNode(g));
        r.result = out.objective;
        r.metrics = out.metrics;
      });
      return r;
    });
  }

  {  // Conflict-MST optimisation, Depth-Bounded over 2 localities: chunked
     // *pool* steal replies (Workpool::stealMany) between localities.
    auto inst = tiny ? cmst::randomInstance(12, 30, 60, 2020)
                     : sweepCmstInstance();
    sweepPolicies(table, "CMST/pool", policies, [&](ChunkPolicy chunk) {
      Params p;
      p.nLocalities = 2;
      p.workersPerLocality = 2;
      p.dcutoff = 4;
      p.chunk = chunk;
      RunResult r;
      r.seconds = timeMedian(reps, [&] {
        auto out = skeletons::DepthBounded<
            cmst::Gen, Optimisation,
            BoundFunction<&cmst::upperBound>>::search(p, inst,
                                                      cmst::rootNode(inst));
        r.result = out.objective;
        r.metrics = out.metrics;
      });
      return r;
    });
  }

  table.print(std::cout);
  std::printf("\nexpectation: tasks/steal == 1 under `one`, > 1 under "
              "fixed:k>=2 / half / adaptive / all; fewer messages for the "
              "same work moved; identical results for every policy - the "
              "paper enables chunking for the Fig. 4 k-clique runs.\n");

  if (!gResultsAgree) {
    std::fprintf(stderr,
                 "FAIL: a chunk policy changed a search result (see "
                 "MISMATCH rows)\n");
    return 1;
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}
