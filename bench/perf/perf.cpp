// End-to-end and per-layer performance benchmark for the skeleton library.
//
// One workload per process (bench/perf/run.sh starts them):
//
//   yewpar_perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--out-dir DIR] [--untraced-solve-s X]
//
// After a warm-up, the program measures reps until --seconds have passed
// (and at least kMinReps of them). A rep builds its inputs from --seed,
// then solves every instance with the system under test and with its
// reference, the two interleaved and their order swapped from one solve to
// the next, so host drift hits both sides. Every solve is checked against
// an oracle.
// Metrics are printed one per line with their units and written, with all
// samples' medians, to DIR/result-NAME.json.
//
// --trace 1 (yewpar_perf_traced only) also runs the per-layer probes and
// writes the spans of the whole run to DIR/trace-NAME.json. The reps of a
// traced run feed only the per-layer metrics: end-to-end numbers come from
// the untraced binary, whose median solve time --untraced-solve-s passes
// in for bench.trace_overhead_pct.
//
// Workloads (see README.md for why each was chosen):
//   clique-seq    Sequential skeleton vs baseline::maxCliqueSeq
//   clique-db3    Depth-Bounded, 1 locality x 3 workers, vs maxCliqueSeq
//   uts-bin-2loc  Budget, 2 localities x 1 worker, vs uts::countTree
//   cmst-ss-2loc  Stack-Stealing, 2 localities x 1 worker, vs Sequential

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "apps/baselines/clique_seq.hpp"
#include "apps/cmst/cmst.hpp"
#include "apps/maxclique/graph.hpp"
#include "apps/maxclique/maxclique.hpp"
#include "apps/uts/uts.hpp"
#include "core/yewpar.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "util/dsu.hpp"
#include "util/rng.hpp"

namespace {

using namespace yewpar;
using namespace yewpar::apps;
using perf::Metrics;
using perf::Spans;
using perf::SpanScope;
using rt::prof::nowNanos;

// No workload may run more worker threads than this.
constexpr int kMaxWorkerThreads = 3;
// Reps a run measures however short --seconds is (the traced run passes 0).
constexpr int kMinReps = 3;
// Unmeasured reps run for this long before the measured ones.
constexpr std::uint64_t kWarmupNanos = 3'000'000'000;
// Host calibration solves at the start and again at the end of a run.
constexpr int kCalibrations = 3;
// setup_s samples per rep. A sample repeats the rep's input build until
// kMinSetupNanos have passed and reports the time per build, so that even
// a build of a few nanoseconds (the UTS tree's parameters) is measured
// above the clock's resolution.
constexpr int kSetupsPerRep = 3;
constexpr std::uint64_t kMinSetupNanos = 2'000'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string outDir = "bench/perf/out";
  double untracedSolveS = 0;
};

double cpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double peakRssMiB() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- instances ----------------------------------------------------------
//
// The clique and CMST instances are fixed stand-ins (the paper's Table 1
// uses fixed DIMACS graphs) and the seed draws random isomorphic copies:
// vertex labels, and for CMST the input edge order, are permuted. A UTS
// tree has no labels to permute; its seed is the tree's root seed, and the
// shape parameters are chosen so that the node count concentrates (a sum of
// 200k independent subcritical subtrees, within 3% across seeds).
//
// A copy is not quite as hard as another: relabelling changes how the
// degree sort breaks ties, and a clique search's node count varies by 4-13%
// (standard deviation) per graph. So each seed yields kVariants copies of
// the whole input set and rep r solves copy r % kVariants; the run's medians
// then average over copies, and their spread across seeds stays small.
constexpr int kVariants = 4;

std::uint64_t variantSeed(std::uint64_t seed, int variant, std::uint64_t salt) {
  return mix64(mix64(seed, static_cast<std::uint64_t>(variant)), salt);
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

Graph relabelled(const Graph& g, Rng& rng) {
  std::vector<std::size_t> perm(g.size());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  shuffle(perm, rng);
  Graph out(g.size());
  for (std::size_t u = 0; u < g.size(); ++u) {
    g.neighbours(u).forEach([&](std::size_t v) {
      if (u < v) out.addEdge(perm[u], perm[v]);
    });
  }
  out.sortByDegreeDesc();
  return out;
}

// Four Table 1 stand-ins (MANN-, brock-, p_hat- and sanr-like).
std::vector<Graph> cliqueInstances(std::uint64_t seed, int variant) {
  Rng rng(variantSeed(seed, variant, 0xC119E));
  std::vector<Graph> out;
  out.push_back(relabelled(gnp(130, 0.88, 5), rng));
  out.push_back(relabelled(gnp(190, 0.72, 3), rng));
  out.push_back(relabelled(twoDensity(260, 0.40, 0.82, 7), rng));
  out.push_back(relabelled(gnp(160, 0.78, 36), rng));
  return out;
}

cmst::Instance cmstInstance(std::uint64_t seed, int variant) {
  const cmst::Instance base = cmst::randomInstance(20, 70, 320, 2020);
  Rng rng(variantSeed(seed, variant, 0xC3575));
  std::vector<std::int32_t> vperm(static_cast<std::size_t>(base.n));
  std::iota(vperm.begin(), vperm.end(), 0);
  shuffle(vperm, rng);
  std::vector<std::int32_t> order(static_cast<std::size_t>(base.m()));
  std::iota(order.begin(), order.end(), 0);
  shuffle(order, rng);
  std::vector<std::int32_t> pos(order.size());
  cmst::Instance out;
  out.n = base.n;
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto e = static_cast<std::size_t>(order[k]);
    pos[e] = static_cast<std::int32_t>(k);
    out.eu.push_back(vperm[static_cast<std::size_t>(base.eu[e])]);
    out.ev.push_back(vperm[static_cast<std::size_t>(base.ev[e])]);
    out.ew.push_back(base.ew[e]);
  }
  for (std::size_t c = 0; c < base.ca.size(); ++c) {
    out.ca.push_back(pos[static_cast<std::size_t>(base.ca[c])]);
    out.cb.push_back(pos[static_cast<std::size_t>(base.cb[c])]);
  }
  out.finalize();
  return out;
}

uts::Params utsInstance(std::uint64_t seed, int variant) {
  uts::Params p;
  p.shape = uts::Shape::Binomial;
  p.b0 = 200000;
  p.m = 2;
  p.q = 0.49;
  p.seed = variantSeed(seed, variant, 0x0775);
  return p;
}

// The host-calibration instance: fixed, independent of the seed.
Graph calibrationGraph() {
  Graph g = gnp(150, 0.80, 4);
  g.sortByDegreeDesc();
  return g;
}

// ---- oracles ------------------------------------------------------------

bool validClique(const Graph& g, const mc::Node& n, std::int64_t objective) {
  return mc::isClique(g, n.clique) &&
         static_cast<std::int64_t>(n.clique.count()) == objective;
}

// A complete CMST witness: n-1 conflict-free edges forming a spanning tree
// whose weight is -objective.
bool validTree(const cmst::Instance& inst, const cmst::Node& n,
               std::int64_t objective) {
  if (!n.complete ||
      static_cast<std::int32_t>(n.included.size()) != inst.n - 1) {
    return false;
  }
  Dsu dsu(static_cast<std::size_t>(inst.n));
  std::vector<bool> in(static_cast<std::size_t>(inst.m()), false);
  std::int64_t cost = 0;
  for (auto e : n.included) {
    const auto i = static_cast<std::size_t>(e);
    if (!dsu.unite(static_cast<std::size_t>(inst.eu[i]),
                   static_cast<std::size_t>(inst.ev[i]))) {
      return false;
    }
    in[i] = true;
    cost += inst.ew[i];
  }
  for (std::size_t c = 0; c < inst.ca.size(); ++c) {
    if (in[static_cast<std::size_t>(inst.ca[c])] &&
        in[static_cast<std::size_t>(inst.cb[c])]) {
      return false;
    }
  }
  return cost == -objective;
}

// ---- workloads ----------------------------------------------------------
//
// A workload names its system under test (sut), its reference (ref), the
// oracle comparing the two, and the types the per-layer probes replay.

using CliqueSeqSkel =
    skeletons::Sequential<mc::Gen, Optimisation,
                          BoundFunction<&mc::upperBound>, PruneLevel>;
using CmstSeqSkel = skeletons::Sequential<cmst::Gen, Optimisation,
                                          BoundFunction<&cmst::upperBound>>;
using UtsSeqSkel = skeletons::Sequential<uts::Gen, Enumeration<CountAll>>;

struct CliqueWorkload {
  using Gen = mc::Gen;
  using Seq = CliqueSeqSkel;
  static constexpr auto kBound = &mc::upperBound;
  std::vector<Graph> instances;
  int variant = 0;

  void build(std::uint64_t seed, int v) {
    instances = cliqueInstances(seed, v);
    variant = v;
  }
  std::size_t size() const { return instances.size(); }
  const Graph& space(std::size_t i) const { return instances[i]; }
  mc::Node root(std::size_t i) const { return mc::rootNode(instances[i]); }

  baseline::CliqueResult ref(std::size_t i) const {
    return baseline::maxCliqueSeq(instances[i]);
  }

  template <typename Out>
  bool check(std::size_t i, const Out& out,
             const baseline::CliqueResult& r) const {
    DynBitset refClique(instances[i].size());
    for (auto v : r.members) refClique.set(v);
    mc::Node refNode;
    refNode.clique = refClique;
    return out.complete && out.incumbent.has_value() &&
           validClique(instances[i], *out.incumbent, out.objective) &&
           validClique(instances[i], refNode, r.size) &&
           out.objective == r.size;
  }
};

struct CliqueSeq : CliqueWorkload {
  static constexpr const char* kName = "clique-seq";
  static constexpr const char* kWhat =
      "Sequential skeleton vs baseline::maxCliqueSeq";
  static constexpr bool kTable1 = true;

  Params params(const Options&) const { return Params{}; }
  auto sut(std::size_t i, const Params& p) const {
    return Seq::search(p, space(i), root(i));
  }
  void prepare(std::uint64_t) {}
  double seqNodes(std::size_t, const baseline::CliqueResult&) const {
    return 0;
  }
};

struct CliqueDb3 : CliqueWorkload {
  static constexpr const char* kName = "clique-db3";
  static constexpr const char* kWhat =
      "Depth-Bounded (d=2, 1 locality x 3 workers) vs "
      "baseline::maxCliqueSeq";
  static constexpr bool kTable1 = false;
  std::vector<std::vector<double>> sequentialNodes;  // [variant][instance]

  Params params(const Options&) const {
    Params p;
    p.workersPerLocality = 3;
    p.dcutoff = 2;
    return p;
  }
  auto sut(std::size_t i, const Params& p) const {
    return skeletons::DepthBounded<mc::Gen, Optimisation,
                                   BoundFunction<&mc::upperBound>,
                                   PruneLevel>::search(p, space(i), root(i));
  }
  // The Sequential skeleton's node counts on every variant, the
  // work_inflation denominator (the hand-written reference counts nodes
  // differently).
  void prepare(std::uint64_t seed) {
    sequentialNodes.assign(kVariants, {});
    for (int v = 0; v < kVariants; ++v) {
      build(seed, v);
      for (std::size_t i = 0; i < size(); ++i) {
        sequentialNodes[static_cast<std::size_t>(v)].push_back(
            static_cast<double>(Seq::search(Params{}, space(i), root(i))
                                    .metrics.nodesProcessed));
      }
    }
  }
  double seqNodes(std::size_t i, const baseline::CliqueResult&) const {
    return sequentialNodes[static_cast<std::size_t>(variant)][i];
  }
};

struct UtsBin2Loc {
  static constexpr const char* kName = "uts-bin-2loc";
  static constexpr const char* kWhat =
      "Budget (budget 1000, chunk adaptive, 2 localities x 1 worker, "
      "sampler and watchdog at 10 ms) vs uts::countTree";
  static constexpr bool kTable1 = false;
  using Gen = uts::Gen;
  using Seq = UtsSeqSkel;
  static constexpr auto kBound = nullptr;  // enumeration: no bound
  uts::Params tree;

  void build(std::uint64_t seed, int v) { tree = utsInstance(seed, v); }
  std::size_t size() const { return 1; }
  const uts::Params& space(std::size_t) const { return tree; }
  uts::Node root(std::size_t) const { return uts::rootNode(tree); }

  Params params(const Options& o) const {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 1;
    p.backtrackBudget = 1000;
    p.chunk = parseChunkPolicy("adaptive");
    p.sampleIntervalMs = 10;
    p.sampleCsv = o.outDir + "/telemetry-uts-bin-2loc.csv";
    p.healthIntervalMs = 10;
    return p;
  }
  auto sut(std::size_t, const Params& p) const {
    return skeletons::Budget<uts::Gen, Enumeration<CountAll>>::search(
        p, tree, root(0));
  }
  std::uint64_t ref(std::size_t) const { return uts::countTree(tree); }
  template <typename Out>
  bool check(std::size_t, const Out& out, std::uint64_t count) const {
    return out.complete && out.sum == count;
  }
  void prepare(std::uint64_t) {}
  double seqNodes(std::size_t, std::uint64_t) const { return 0; }
};

struct CmstSs2Loc {
  static constexpr const char* kName = "cmst-ss-2loc";
  static constexpr const char* kWhat =
      "Stack-Stealing (chunk adaptive, 2 localities x 1 worker) vs the "
      "Sequential skeleton";
  static constexpr bool kTable1 = false;
  using Gen = cmst::Gen;
  using Seq = CmstSeqSkel;
  static constexpr auto kBound = &cmst::upperBound;
  cmst::Instance inst;

  void build(std::uint64_t seed, int v) { inst = cmstInstance(seed, v); }
  std::size_t size() const { return 1; }
  const cmst::Instance& space(std::size_t) const { return inst; }
  cmst::Node root(std::size_t) const { return cmst::rootNode(inst); }

  Params params(const Options&) const {
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 1;
    p.chunk = parseChunkPolicy("adaptive");
    return p;
  }
  auto sut(std::size_t, const Params& p) const {
    return skeletons::StackStealing<
        cmst::Gen, Optimisation,
        BoundFunction<&cmst::upperBound>>::search(p, inst, root(0));
  }
  // CMST has no hand-written solver: the Sequential skeleton is both the
  // timing reference and the oracle.
  auto ref(std::size_t) const {
    return Seq::search(Params{}, inst, root(0));
  }
  template <typename Out, typename Ref>
  bool check(std::size_t, const Out& out, const Ref& r) const {
    return out.complete && r.complete && out.objective == r.objective &&
           out.incumbent && r.incumbent &&
           validTree(inst, *out.incumbent, out.objective) &&
           validTree(inst, *r.incumbent, r.objective);
  }
  void prepare(std::uint64_t) {}
  template <typename Ref>
  double seqNodes(std::size_t, const Ref& r) const {
    return static_cast<double>(r.metrics.nodesProcessed);
  }
};

// ---- measurement --------------------------------------------------------

template <typename T>
struct Timed {
  std::optional<T> value;
  double wall = 0;
  double cpu = 0;
};

template <typename F>
auto timed(Spans& spans, const std::string& name, const char* cat, F&& f) {
  Timed<decltype(f())> r;
  SpanScope span(spans, name, cat);
  const double cpu0 = cpuSeconds();
  const std::uint64_t t0 = nowNanos();
  try {
    r.value.emplace(f());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s threw: %s\n", name.c_str(), e.what());
  }
  r.wall = static_cast<double>(nowNanos() - t0) / 1e9;
  r.cpu = cpuSeconds() - cpu0;
  return r;
}

// One rep's totals of the engine counters carried by each solve's Outcome
// (metrics plus per-rank phase profiles).
struct EngineTotals {
  double nodes = 0, tasks = 0, prunes = 0, cpu = 0;
  double boundBroadcasts = 0, boundApplied = 0, healthWarnings = 0;
  double remoteTasks = 0, stolen = 0, replies = 0, failedSteals = 0;
  double msgs = 0, frames = 0, bytes = 0;
  double working = 0, popping = 0, stealing = 0, idle = 0;
  double manager = 0, managerWall = 0, bringupTeardown = 0;
  double cvSum = 0;
  int solves = 0;

  template <typename Out>
  void add(const Out& out, double solveCpu) {
    using yewpar::rt::prof::Phase;
    const auto& mm = out.metrics;
    nodes += static_cast<double>(mm.nodesProcessed);
    tasks += static_cast<double>(mm.tasksSpawned);
    prunes += static_cast<double>(mm.prunes);
    cpu += solveCpu;
    boundBroadcasts += static_cast<double>(mm.boundBroadcasts);
    boundApplied += static_cast<double>(mm.boundUpdatesApplied);
    healthWarnings += static_cast<double>(mm.healthWarnings);
    remoteTasks += static_cast<double>(mm.remoteSteals);
    stolen += static_cast<double>(mm.tasksStolen());
    replies += static_cast<double>(mm.stealReplies);
    failedSteals += static_cast<double>(mm.failedSteals);
    msgs += static_cast<double>(mm.networkMessages);
    frames += static_cast<double>(mm.networkFrames);
    bytes += static_cast<double>(mm.networkBytes);
    // Load imbalance over every worker of every rank, as one team: the
    // per-rank CV is 0 for the one-worker localities used here.
    rt::prof::ProfileSnapshot team;
    for (const auto& rank : out.profiles) {
      for (const auto& w : rank.workers) {
        working += static_cast<double>(w.get(Phase::kWorking));
        popping += static_cast<double>(w.get(Phase::kPopping));
        stealing += static_cast<double>(w.get(Phase::kStealing));
        idle += static_cast<double>(w.get(Phase::kIdle));
        team.workers.push_back(w);
      }
      manager += static_cast<double>(rank.manager.get(Phase::kManager));
      managerWall += static_cast<double>(rank.wallNanos);
    }
    if (!out.profiles.empty()) {
      bringupTeardown +=
          out.elapsedSeconds -
          static_cast<double>(out.profiles.front().wallNanos) / 1e9;
    }
    cvSum += team.utilizationCV();
    ++solves;
  }

  void record(Metrics& m) const {
    const double phases = working + popping + stealing + idle;
    m.add("engine.nodes", "count", nodes);
    m.add("engine.tasks", "count", tasks);
    m.add("engine.prunes", "count", prunes);
    m.add("engine.cpu_ns_per_node", "ns", ratio(cpu * 1e9, nodes));
    m.add("engine.working_frac", "ratio", ratio(working, phases));
    m.add("engine.popping_frac", "ratio", ratio(popping, phases));
    m.add("engine.stealing_frac", "ratio", ratio(stealing, phases));
    m.add("engine.idle_frac", "ratio", ratio(idle, phases));
    m.add("engine.manager_frac", "ratio", ratio(manager, managerWall));
    m.add("engine.imbalance_cv", "ratio", ratio(cvSum, solves));
    m.add("engine.on_cpu_ratio", "ratio",
          ratio(cpu * 1e9, working + popping + stealing + manager));
    m.add("engine.bringup_teardown_ms", "ms", bringupTeardown * 1e3);
    m.add("engine.bound_broadcasts", "count", boundBroadcasts);
    m.add("engine.bound_applied", "count", boundApplied);
    m.add("engine.health_warnings", "count", healthWarnings);
    m.add("steal.remote_tasks", "count", remoteTasks);
    m.add("steal.replies", "count", replies);
    m.add("steal.failed", "count", failedSteals);
    m.add("steal.success_ratio", "ratio",
          ratio(replies, replies + failedSteals));
    m.add("steal.tasks_per_reply", "count", ratio(stolen, replies));
    m.add("transport.msgs", "count", msgs);
    m.add("transport.frames", "count", frames);
    m.add("transport.bytes_per_msg", "B", ratio(bytes, msgs));
    m.add("transport.msgs_per_knode", "count", ratio(msgs * 1e3, nodes));
  }
};

double calibrationMillis(Spans& spans, const Graph& cal) {
  std::vector<double> ms;
  for (int k = 0; k < kCalibrations; ++k) {
    SpanScope s(spans, "calibration", "calibration");
    baseline::maxCliqueSeq(cal);
    ms.push_back(static_cast<double>(s.close()) / 1e6);
  }
  return median(ms);
}

template <typename W>
void runProbes(const W& w, const Options& o, Spans& spans, Metrics& m) {
  using Gen = typename W::Gen;
  const auto nodes =
      perf::replayDfs<Gen>(w.space(0), w.root(0), perf::kReplayNodes);
  perf::probeExpand<Gen>(spans, m, w.space(0), nodes);
  if constexpr (W::kBound != nullptr) {
    perf::probeBound<W::kBound>(spans, m, w.space(0), nodes);
  } else {
    m.add("apps.bound_ns", "ns", 0);
  }

  // skeletons layer: the Sequential skeleton on the first instance.
  std::vector<double> seqNs;
  for (int k = 0; k < 3; ++k) {
    SpanScope s(spans, "probe skeletons.sequential", "probe");
    const auto out = W::Seq::search(Params{}, w.space(0), w.root(0));
    seqNs.push_back(ratio(static_cast<double>(s.close()),
                          static_cast<double>(out.metrics.nodesProcessed)));
  }
  const double seq = median(seqNs);
  m.add("skeletons.seq_ns_per_node", "ns", seq);
  m.add("skeletons.traversal_ns_per_node", "ns",
        seq - m.median("apps.expand_ns_per_child") -
            m.median("apps.bound_ns"));

  const Params p = w.params(o);
  perf::probeWorkpool(spans, m, nodes, p.effectiveChunk());
  perf::probeArchive(spans, m, nodes);

  // A steal reply as this workload's steals send it: token plus a chunk of
  // the median observed size.
  const auto chunk = static_cast<std::size_t>(
      std::max(1.0, std::round(m.median("steal.tasks_per_reply"))));
  const std::vector<perf::Task<typename Gen::Node>> replyTasks(
      nodes.begin(),
      nodes.begin() + static_cast<std::ptrdiff_t>(
                          std::min(chunk, nodes.size())));
  const std::size_t replyBytes =
      sizeof(std::int64_t) + toBytes(replyTasks).size();
  {
    SpanScope s(spans, "probe steal.rtt", "probe");
    m.add("steal.rtt_us", "us", perf::stealRoundTripMicros(replyBytes, 2000));
  }
  {
    SpanScope s(spans, "probe termination.detect", "probe");
    m.add("termination.detect_us", "us", perf::terminationDetectMicros(30));
  }
  {
    SpanScope s(spans, "probe transport.one_way", "probe");
    m.add("transport.one_way_us_64b", "us", perf::oneWayMicros(64, 2000));
    m.add("transport.one_way_us_reply", "us",
          perf::oneWayMicros(replyBytes, 2000));
  }
}

void printMetric(const perf::Metric& mt) {
  std::printf("%-32s %14.6g %-6s", mt.name.c_str(), mt.median(),
              mt.unit.c_str());
  if (mt.samples.size() > 1) {
    std::printf("  median of %zu", mt.samples.size());
    if (const int p = mt.tailPercentile(); p > 0) {
      std::printf(", p%d %.6g", p, mt.percentile(p));
    }
  }
  std::printf("\n");
}

void writeResult(const std::string& path, const Options& o, const char* name,
                 int reps, int attempted, int failed, const Metrics& m) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write " + path);
  f << "{\"workload\":\"" << name << "\",\"seed\":" << o.seed
    << ",\"binary\":\""
    << (perf::countsAllocations() ? "yewpar_perf_traced" : "yewpar_perf")
    << "\",\"trace\":" << (o.trace ? 1 : 0) << ",\"reps\":" << reps
    << ",\"correct\":" << (failed == 0 ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  bool first = true;
  for (const auto& mt : m.all()) {
    f << (first ? "" : ",") << "\n\"" << mt.name << "\":{\"value\":"
      << perf::jsonNumber(mt.median()) << ",\"unit\":\"" << mt.unit
      << "\",\"samples\":" << mt.samples.size();
    if (const int p = mt.tailPercentile(); p > 0) {
      f << ",\"tail_percentile\":" << p
        << ",\"tail_value\":" << perf::jsonNumber(mt.percentile(p));
    }
    f << "}";
    first = false;
  }
  f << "\n}}\n";
}

template <typename W>
int runWorkload(const Options& o) {
  W w;
  Spans spans;
  Metrics m;
  SpanScope workloadSpan(spans, W::kName, "workload");
  std::printf("== %s  seed %llu  (%s) ==\n", W::kName,
              static_cast<unsigned long long>(o.seed), W::kWhat);

  const Graph cal = calibrationGraph();
  const double calStart = calibrationMillis(spans, cal);
  {
    SpanScope s(spans, "prepare", "prepare");
    w.prepare(o.seed);
  }

  const Params params = w.params(o);
  if (params.nLocalities * params.workersPerLocality > kMaxWorkerThreads) {
    std::fprintf(stderr, "%s: %d worker threads exceed the cap of %d\n",
                 W::kName, params.nLocalities * params.workersPerLocality,
                 kMaxWorkerThreads);
    return 2;
  }
  std::filesystem::create_directories(o.outDir);

  // Set-up builds the rep's variant of the workload's instances. It runs at
  // the start of every rep, so its samples span the run like the solves'.
  // The rep's kSetupsPerRep samples come back to back, so their median
  // times a build on warm caches, as the solves run, not one right after a
  // solve has evicted them.
  const auto setUp = [&](int variant, Metrics& out) {
    for (int k = 0; k < kSetupsPerRep; ++k) {
      SpanScope s(spans, "setup", "setup");
      const std::uint64_t t0 = nowNanos();
      std::uint64_t builds = 0;
      do {
        w.build(o.seed, variant);
        ++builds;
      } while (nowNanos() - t0 < kMinSetupNanos);
      out.add("setup_s", "s",
              static_cast<double>(s.close()) / 1e9 /
                  static_cast<double>(builds));
    }
  };

  // One rep: set-up, then every instance solved by the system under test
  // and by its reference. Every solve is checked; the rep's samples go to
  // `out` only when all of its solves passed.
  int reps = 0;
  int attempted = 0;
  int failed = 0;
  const auto runRep = [&](Metrics& out) {
    SpanScope repSpan(spans, "rep " + std::to_string(reps), "rep");
    setUp(reps % kVariants, out);
    double solve = 0, cpu = 0, logSpeedup = 0, sutNodes = 0, seqNodes = 0;
    EngineTotals engine;
    const int failedBefore = failed;
    for (std::size_t i = 0; i < w.size(); ++i) {
      const std::string inst = " #" + std::to_string(i);
      const auto runSut = [&] {
        return timed(spans, "solve" + inst, "solve",
                     [&] { return w.sut(i, params); });
      };
      const auto runRef = [&] {
        return timed(spans, "reference" + inst, "reference",
                     [&] { return w.ref(i); });
      };
      // Swap the order every solve so host drift hits both sides alike.
      const bool sutFirst = (static_cast<std::size_t>(reps) + i) % 2 == 0;
      decltype(runSut()) s;
      decltype(runRef()) r;
      if (sutFirst) {
        s = runSut();
        r = runRef();
      } else {
        r = runRef();
        s = runSut();
      }
      ++attempted;
      if (!s.value || !r.value || !w.check(i, *s.value, *r.value)) {
        ++failed;
        std::fprintf(stderr, "%s rep %d instance %zu failed its oracle\n",
                     W::kName, reps, i);
        continue;
      }
      solve += s.wall;
      cpu += s.cpu;
      logSpeedup += std::log(r.wall / s.wall);
      engine.add(*s.value, s.cpu);
      sutNodes += static_cast<double>(s.value->metrics.nodesProcessed);
      seqNodes += w.seqNodes(i, *r.value);
    }
    repSpan.close();
    // The peak a fresh process needs for one solve of every instance. Later
    // reps raise ru_maxrss in steps whose size varies from run to run (by
    // up to 30% on uts-bin-2loc), which would swamp a real change.
    if (reps == 0) m.add("peak_rss_mb", "MiB", peakRssMiB());
    ++reps;
    if (failed > failedBefore) return;
    const double speedup =
        std::exp(logSpeedup / static_cast<double>(w.size()));
    out.add("solve_s", "s", solve);
    out.add("cpu_s", "s", cpu);
    out.add("speedup", "ratio", speedup);
    if constexpr (W::kTable1) out.add("overhead", "ratio", 1.0 / speedup);
    if (seqNodes > 0) out.add("work_inflation", "ratio", sutNodes / seqNodes);
    engine.record(out);
  };

  // Warm-up reps run (and are checked) for kWarmupNanos; their samples are
  // dropped. In a fresh process the parallel solves run up to 1.5x slower
  // for their first one to three seconds.
  Metrics warmup;
  const std::uint64_t warmupStart = nowNanos();
  while (reps == 0 || nowNanos() - warmupStart < kWarmupNanos) {
    runRep(warmup);
  }
  const int warmupReps = reps;
  const std::uint64_t loopStart = nowNanos();
  while (reps - warmupReps < kMinReps ||
         static_cast<double>(nowNanos() - loopStart) / 1e9 < o.seconds) {
    runRep(m);
  }
  m.add("fail_frac", "ratio",
        static_cast<double>(failed) / static_cast<double>(attempted));
  const double calEnd = calibrationMillis(spans, cal);
  m.add("host.cal_ms", "ms", 0.5 * (calStart + calEnd));

  if (o.trace) {
    w.build(o.seed, 0);  // probe the same copy however many reps ran
    runProbes(w, o, spans, m);
    const double traced = m.median("solve_s");
    m.add("bench.trace_overhead_pct", "%",
          o.untracedSolveS > 0 ? 100.0 * (traced / o.untracedSolveS - 1.0)
                               : 0.0);
  }
  workloadSpan.close();

  for (const auto& mt : m.all()) printMetric(mt);
  std::printf("%-32s %14d %-6s\n", "attempted", attempted, "solves");
  const std::string base = o.outDir + "/";
  if (o.trace) {
    spans.writeChromeJson(base + "trace-" + W::kName + ".json");
    std::printf("-- self time by span category (ms):");
    for (const auto& [cat, ms] : spans.selfMillisByCategory()) {
      std::printf(" %s %.1f", cat.c_str(), ms);
    }
    std::printf("\n");
  }
  writeResult(base + "result-" + W::kName + ".json", o, W::kName,
              reps - warmupReps,
              attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "yewpar_perf: %s\n"
               "usage: yewpar_perf --workload clique-seq|clique-db3|"
               "uts-bin-2loc|cmst-ss-2loc [--seed N] [--seconds S] "
               "[--trace 0|1] [--out-dir DIR] [--untraced-solve-s X]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = v;
      } else if (flag == "--seed") {
        o.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(v);
      } else if (flag == "--trace") {
        o.trace = v == "1";
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      } else if (flag == "--out-dir") {
        o.outDir = v;
      } else if (flag == "--untraced-solve-s") {
        o.untracedSolveS = std::stod(v);
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (o.seconds < 0) usage("--seconds must be >= 0");
  if (o.trace && !perf::countsAllocations()) {
    usage("--trace 1 needs yewpar_perf_traced (it counts allocations)");
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  try {
    if (o.workload == "clique-seq") return runWorkload<CliqueSeq>(o);
    if (o.workload == "clique-db3") return runWorkload<CliqueDb3>(o);
    if (o.workload == "uts-bin-2loc") return runWorkload<UtsBin2Loc>(o);
    if (o.workload == "cmst-ss-2loc") return runWorkload<CmstSs2Loc>(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "yewpar_perf: %s\n", e.what());
    return 1;
  }
  usage(("unknown workload '" + o.workload + "'").c_str());
}
