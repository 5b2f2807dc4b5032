#pragma once

// Shared helpers for the example drivers: runtime skeleton selection (the
// paper's "--skeleton seq|depthbounded|stacksteal|budget" flags) and result
// printing. The examples deliberately mirror the command lines of the
// YewPar artifact (Appendix A), e.g.:
//
//   maxclique --skeleton depthbounded -d 2 --workers 4 -f graph.clq

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/yewpar.hpp"
#include "util/flags.hpp"

namespace yewpar::examples {

// Split a comma-separated `--peers` list ("host:port,host:port,...").
inline std::vector<std::string> splitPeers(const std::string& spec) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const auto comma = spec.find(',', start);
    const auto end = comma == std::string::npos ? spec.size() : comma;
    if (end > start) out.push_back(spec.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

inline Params paramsFromFlags(const Flags& f) {
  // A removed flag would otherwise fail only as unknown (rejectUnread):
  // name its replacement.
  static constexpr struct {
    const char* flag;
    const char* replacement;
  } kRemovedFlags[] = {
      {"netdelay", "--net-delay fixed:<us>"},
      {"chunked", "--chunk-policy all"},
      {"ordered-pool", "--ordered-shards 1 for one global heap"},
      {"chunk-size", "--chunk-policy fixed:<k>"},
  };
  for (const auto& r : kRemovedFlags) {
    if (f.has(r.flag)) {
      throw std::invalid_argument(std::string("--") + r.flag +
                                  " was removed; use " + r.replacement);
    }
  }
  Params p;
  p.nLocalities = static_cast<int>(f.getInt("localities", 1));
  p.workersPerLocality = static_cast<int>(f.getInt("workers", 1));
  p.dcutoff = static_cast<int>(f.getInt("d", 2));
  p.backtrackBudget = f.getUint64("b", 10000);
  // --chunk-policy one|fixed[:k]|half|adaptive|all sizes every steal reply.
  if (auto spec = f.raw("chunk-policy")) {
    p.chunk = parseChunkPolicy(*spec);
  }
  p.decisionTarget = f.getInt("decisionBound", 0);
  // Ordered-skeleton pool shaping (docs/FLAGS.md): --ordered-window bounds
  // how far any worker may run ahead of the lowest outstanding sequence
  // number ("inf" or a number; default inf), --ordered-shards picks the
  // shard count (0 = one per worker, 1 = one global heap).
  {
    if (auto spec = f.raw("ordered-window")) {
      if (*spec == "inf") {
        p.orderedWindow = rt::kNoSeqWindow;
      } else {
        p.orderedWindow = f.getUint64("ordered-window", p.orderedWindow);
      }
    }
    p.orderedShards =
        static_cast<int>(f.getInt("ordered-shards", p.orderedShards));
    if (p.orderedShards < 0) {
      throw std::invalid_argument("--ordered-shards needs a count >= 0");
    }
  }
  // Link shaping, applied by rt::ShapedTransport on BOTH backends
  // (docs/FLAGS.md): --net-batch sizes the per-link send buffer (1 = flush
  // every send), --net-flush-us bounds how long a buffered message may
  // wait, --net-queue-cap bounds the in-flight queue per link (0 =
  // unbounded; overflow sheds to a spill list, adding latency), --net-delay
  // picks the per-link delay model (simulated fabric only - real sockets
  // bring their own latency), --net-seed its RNG seed.
  {
    const auto batch = f.getUint64("net-batch", 1);
    if (batch < 1) {
      throw std::invalid_argument("--net-batch needs a size >= 1");
    }
    p.net.batchSize = static_cast<std::size_t>(batch);
    p.net.flushAfter = std::chrono::microseconds(
        static_cast<std::int64_t>(f.getUint64("net-flush-us", 100)));
    p.net.queueCap =
        static_cast<std::size_t>(f.getUint64("net-queue-cap", 0));
    if (auto spec = f.raw("net-delay")) {
      p.net.delay = rt::DelayModel::parse(*spec);
    }
    p.net.seed = f.getUint64("net-seed", p.net.seed);
  }
  // Multi-process transport (docs/FLAGS.md): `--transport tcp` makes this
  // process ONE locality of a real socket mesh - `--rank` says which, and
  // `--peers host:port,...` lists every rank's endpoint (the same list on
  // every process; its length becomes nLocalities, overriding
  // --localities). scripts/launch_local.sh spawns all N ranks of the same
  // command line locally. The default `--transport sim` keeps every
  // locality simulated in-process.
  {
    const auto transport = f.getString("transport", "sim");
    if (transport == "tcp") {
      p.transport = TransportKind::Tcp;
      p.peers = splitPeers(f.getString("peers", ""));
      if (p.peers.empty()) {
        throw std::invalid_argument(
            "--transport tcp needs --peers host:port,host:port,...");
      }
      p.rank = static_cast<int>(f.getInt("rank", 0));
      if (p.rank < 0 || p.rank >= static_cast<int>(p.peers.size())) {
        throw std::invalid_argument(
            "--rank must index into the --peers list");
      }
      p.nLocalities = static_cast<int>(p.peers.size());
      // Rank-failure detection (docs/DEPLOYMENT.md): a peer silent for
      // --peer-timeout-ms is declared dead and every surviving rank exits
      // non-zero naming it, instead of hanging. 0 disables detection.
      p.peerTimeoutMs = f.getUint64("peer-timeout-ms", p.peerTimeoutMs);
    } else if (transport != "sim") {
      throw std::invalid_argument("unknown --transport " + transport +
                                  " (expected sim|tcp)");
    } else {
      // Accepted and ignored under sim, as they always were.
      for (const char* key : {"rank", "peers", "peer-timeout-ms"}) f.has(key);
    }
  }
  // Observability (docs/ARCHITECTURE.md "Observability"): --trace FILE arms
  // event tracing and rank 0 writes one merged, clock-aligned Chrome
  // trace_event JSON; --sample-interval-ms N keeps a telemetry CSV row
  // every N ms; --sample-csv FILE names it (default telemetry.csv; rank
  // r > 0 appends ".rank<r>").
  p.traceFile = f.getString("trace", "");
  p.sampleIntervalMs = f.getUint64("sample-interval-ms", 0);
  p.sampleCsv = f.getString("sample-csv", "");
  // Live status endpoint and health rules (docs/FLAGS.md):
  // --status-port N serves GET /metrics, /status.json and /healthz (rank r
  // listens on N + r); --status-linger-ms keeps serving that
  // long after the search so scrapers can read the final counters;
  // --health-interval-ms N runs the health rules on the telemetry tick;
  // --stall-warn-ms M arms the stalled-incumbent rule.
  {
    const auto port = f.getInt("status-port", -1);
    if (port > 65535) {
      throw std::invalid_argument("--status-port needs a port <= 65535");
    }
    p.statusPort = static_cast<int>(port);
    p.statusLingerMs = f.getUint64("status-linger-ms", 0);
    p.healthIntervalMs = f.getUint64("health-interval-ms", 0);
    p.stallWarnMs = f.getUint64("stall-warn-ms", 0);
  }
  return p;
}

// The --skeleton names, in the paper artifact's spelling.
inline constexpr struct {
  const char* name;
  skeletons::Skel skel;
} kSkeletonNames[] = {
    {"seq", skeletons::Skel::Seq},
    {"depthbounded", skeletons::Skel::DepthBounded},
    {"stacksteal", skeletons::Skel::StackStealing},
    {"budget", skeletons::Skel::Budget},
    {"ordered", skeletons::Skel::Ordered},
    {"randomspawn", skeletons::Skel::RandomSpawn},
};

// Dispatch on the skeleton name; SearchType/Opts fixed at compile time as in
// the paper, coordination chosen per run.
template <typename Gen, typename SearchType, typename... Opts>
auto searchWith(const std::string& skeleton, const Params& p,
                const typename Gen::Space& space,
                const typename Gen::Node& root) {
  for (const auto& [name, skel] : kSkeletonNames) {
    if (skeleton != name) continue;
    if (skel == skeletons::Skel::Seq && p.transport == TransportKind::Tcp) {
      throw std::runtime_error(
          "--transport tcp needs a parallel skeleton; the sequential "
          "skeleton has no runtime to connect ranks");
    }
    return skeletons::runSkeleton<Gen, SearchType, Opts...>(skel, p, space,
                                                            root);
  }
  std::string names;
  for (const auto& entry : kSkeletonNames) {
    if (!names.empty()) names += '|';
    names += entry.name;
  }
  throw std::runtime_error("unknown skeleton: " + skeleton + " (expected " +
                           names + ")");
}

// Terminal handler for an example's main (used as a function-try-block
// catch): a runtime failure - bad flags, a transport error, a peer declared
// dead mid-run - becomes a clean diagnostic and a non-zero exit instead of
// std::terminate. Under --transport tcp every surviving rank of an aborted
// job exits through this path, so the launcher (and docs/DEPLOYMENT.md's
// troubleshooting table) can rely on stderr naming the dead rank.
inline int failMain(const std::exception& e) {
  std::fprintf(stderr, "fatal: %s\n", e.what());
  return 1;
}

template <typename Out>
void printMetrics(const Out& out) {
  std::printf("elapsed:   %.3f s\n", out.elapsedSeconds);
  std::printf("nodes:     %llu\n",
              static_cast<unsigned long long>(out.metrics.nodesProcessed));
  std::printf("tasks:     %llu\n",
              static_cast<unsigned long long>(out.metrics.tasksSpawned));
  std::printf("prunes:    %llu\n",
              static_cast<unsigned long long>(out.metrics.prunes));
  std::printf("steals:    %llu local / %llu remote / %llu failed\n",
              static_cast<unsigned long long>(out.metrics.localSteals),
              static_cast<unsigned long long>(out.metrics.remoteSteals),
              static_cast<unsigned long long>(out.metrics.failedSteals));
  if (out.metrics.stealReplies == 0) {
    // tasksPerSteal() would divide by zero replies; the guarded value is 0
    // but "0 tasks/steal" misreads as "steals were empty", so say nothing.
    std::printf("chunking:  0 steal replies\n");
  } else {
    std::printf("chunking:  %llu steal replies, %.2f tasks/steal\n",
                static_cast<unsigned long long>(out.metrics.stealReplies),
                out.metrics.tasksPerSteal());
  }
  // A sequential or single-locality run never touches the network; skip the
  // all-zero lines rather than print misleading "0 msgs" fabric stats.
  const bool usedNetwork =
      out.metrics.networkMessages != 0 || out.metrics.networkFrames != 0 ||
      out.metrics.networkSpills != 0 || out.metrics.linkQueueHighWater != 0;
  if (usedNetwork) {
    std::printf("network:   %llu msgs / %llu payload bytes / %llu frames "
                "(%llu batched, %llu immediate)\n",
                static_cast<unsigned long long>(out.metrics.networkMessages),
                static_cast<unsigned long long>(out.metrics.networkBytes),
                static_cast<unsigned long long>(out.metrics.networkFrames),
                static_cast<unsigned long long>(out.metrics.networkBatched),
                static_cast<unsigned long long>(out.metrics.networkImmediate));
    std::printf("links:     queue high-water %llu, %llu spilled "
                "(back-pressure), link latency p50/p99 <= %llu/%llu us\n",
                static_cast<unsigned long long>(
                    out.metrics.linkQueueHighWater),
                static_cast<unsigned long long>(out.metrics.networkSpills),
                static_cast<unsigned long long>(
                    out.metrics.netLatencyQuantileMicros(0.50)),
                static_cast<unsigned long long>(
                    out.metrics.netLatencyQuantileMicros(0.99)));
    if (out.metrics.networkHeartbeats != 0) {
      std::printf("liveness:  %llu idle heartbeats\n",
                  static_cast<unsigned long long>(
                      out.metrics.networkHeartbeats));
    }
  }
  std::printf("bounds:    %llu broadcast / %llu applied\n",
              static_cast<unsigned long long>(out.metrics.boundBroadcasts),
              static_cast<unsigned long long>(
                  out.metrics.boundUpdatesApplied));
  // Only interesting when non-zero: contended pool locks mean the team is
  // hammering one shard, and health warnings mean a health rule fired.
  if (out.metrics.poolLockContentions != 0) {
    std::printf("pool:      %llu contended lock acquisitions\n",
                static_cast<unsigned long long>(
                    out.metrics.poolLockContentions));
  }
  if (out.metrics.healthWarnings != 0) {
    std::printf("health:    %llu rule warnings\n",
                static_cast<unsigned long long>(out.metrics.healthWarnings));
  }
  rt::prof::printPhaseTable(out.profiles);
}

}  // namespace yewpar::examples
