#pragma once

// Search parameters exposed by the skeleton API (Section 4.3: "The skeleton
// APIs expose parameters like depth cutoff or backtracking budget that
// control the parallel search").

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/transport/shaping.hpp"
#include "runtime/workpool.hpp"

namespace yewpar {

// Which transport backend carries inter-locality messages (`--transport`):
//   Sim - all localities simulated inside this process, one thread-hosted
//         rank each over a shared rt::InProcFabric (with the delay model of
//         Params::net);
//   Tcp - this process is ONE locality (`--rank`) of a mesh listed in
//         `--peers`, wired over real sockets (rt::TcpTransport).
// Either way every rank runs the same lifecycle over its own
// rt::ShapedTransport (the batching/back-pressure layers of Params::net).
enum class TransportKind : std::uint8_t { Sim, Tcp };

// Steal-reply chunking lives with the workpools (runtime layer); re-exported
// here because it is part of the user-facing parameter surface.
using ChunkKind = rt::ChunkKind;
using ChunkPolicy = rt::ChunkPolicy;
using rt::chunkPolicyName;
using rt::parseChunkPolicy;

// The simulated transport's knobs live with the network (runtime layer);
// re-exported for the same reason.
using DelayModel = rt::DelayModel;
using NetConfig = rt::NetConfig;

struct Params {
  // Parallel layout. One locality models one machine of the paper's cluster;
  // workersPerLocality matches the paper's "--hpx:threads n" minus the
  // manager thread.
  int nLocalities = 1;
  int workersPerLocality = 1;

  // Depth-Bounded: spawn all children of nodes at depth < dcutoff.
  int dcutoff = 0;

  // Budget: number of backtracks before offloading unexplored subtrees.
  std::uint64_t backtrackBudget = 0;

  // Steal-reply chunking policy, applied by victims of both steal protocols
  // (see rt::ChunkKind). The paper's boolean chunked stack-stealing is
  // ChunkKind::All (`--chunk-policy all`).
  ChunkPolicy chunk;

  // Same as `chunk`; bench/perf/perf.cpp still calls it.
  ChunkPolicy effectiveChunk() const { return chunk; }

  // Decision searches: objective value that counts as "found" (the greatest
  // element of the bounded order, e.g. k in k-clique).
  std::int64_t decisionTarget = 0;

  // Workpool policy (DepthPool preserves heuristic order; see ablation A).
  // The Ordered skeleton always overrides this to PrioritySharded.
  rt::PoolPolicy pool = rt::PoolPolicy::Depth;

  // Ordered/PrioritySharded: sequence window (--ordered-window). A worker
  // may only run a task whose seq is within this distance of the lowest
  // outstanding sequence number; rt::kNoSeqWindow = unbounded run-ahead.
  std::uint64_t orderedWindow = rt::kNoSeqWindow;

  // Ordered/PrioritySharded: shard count (--ordered-shards); 0 = one shard
  // per worker thread, 1 = one global heap (the exact sequential hand-out
  // order at any window).
  int orderedShards = 0;

  int effectiveOrderedShards() const {
    return orderedShards > 0 ? orderedShards
                             : (workersPerLocality > 0 ? workersPerLocality
                                                       : 1);
  }

  // Link configuration: send-buffer batching (--net-batch, --net-flush-us)
  // and bounded per-link queues with back-pressure (--net-queue-cap) shape
  // every rank's links on both transports; the per-link delay distribution
  // (--net-delay, --net-seed) is the simulated fabric's. See rt::NetConfig.
  NetConfig net;

  // Transport backend selection. Under Tcp, `rank` is this process's
  // locality id and `peers` lists one host:port per rank (identical on all
  // processes); nLocalities must equal peers.size(). The engine runs only
  // rank `rank` locally - work and knowledge cross process boundaries as
  // real wire frames, and rank 0 collects results from every peer at gather
  // time.
  TransportKind transport = TransportKind::Sim;
  int rank = 0;
  std::vector<std::string> peers;

  // Tcp only (--peer-timeout-ms): a peer silent for this long mid-run is
  // declared dead and the whole job aborts instead of hanging (see
  // rt::TcpConfig::peerTimeout). 0 disables failure detection.
  std::uint64_t peerTimeoutMs = 30000;

  // Safety cap on processed nodes per search, 0 = unlimited. When hit, the
  // search drains without expanding further and the outcome is flagged
  // incomplete. Used by tests and parameter sweeps, never by default.
  std::uint64_t maxNodes = 0;

  // Observability (--trace, --sample-interval-ms, --sample-csv; see
  // docs/ARCHITECTURE.md "Observability"). Empty traceFile = tracing
  // disarmed, whose per-event cost is one relaxed atomic load. Every rank
  // records; rank 0 writes the single merged, clock-aligned Chrome
  // trace_event JSON. sampleIntervalMs 0 = no telemetry CSV; with it, every
  // rank's telemetry tick (runtime/telemetry.hpp) keeps a row per tick and
  // rank r > 0 appends ".rank<r>" to the CSV path.
  std::string traceFile;
  std::uint64_t sampleIntervalMs = 0;
  std::string sampleCsv;

  std::string effectiveSampleCsv() const {
    return sampleCsv.empty() ? std::string("telemetry.csv") : sampleCsv;
  }

  // Live status endpoint (--status-port; runtime/statusd.hpp). -1 = off.
  // Rank r serves statusPort + r on both transports (mirroring
  // launch_local.sh's base-port + rank scheme); a rank whose port would
  // pass 65535 fails the run.
  int statusPort = -1;

  // Keep serving the status endpoint for this long after the search
  // finishes (--status-linger-ms), so a scraper can read the final,
  // quiesced counters before the process exits. 0 = stop immediately.
  std::uint64_t statusLingerMs = 0;

  // Health rules (--health-interval-ms; runtime/health.hpp), evaluated on
  // the same telemetry tick as the CSV rows: 0 = rules off. When both this
  // and sampleIntervalMs are non-zero they must be equal (one tick, one
  // cadence); the engine rejects differing values.
  std::uint64_t healthIntervalMs = 0;

  // Stalled-incumbent health rule: warn when the incumbent has not improved
  // for this long (--stall-warn-ms). 0 = rule off (only the caller knows
  // whether a long quiet stretch is normal for the workload).
  std::uint64_t stallWarnMs = 0;
};

}  // namespace yewpar
