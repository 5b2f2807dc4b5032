#pragma once

// Coordination metrics collected per locality and summed at gather time.
// Besides wall-clock time these are the primary evidence the benchmark
// harness reports (nodes searched measures speculative work; spawns/steals
// measure coordination volume; see docs/ARCHITECTURE.md "Observability").
//
// Concurrency discipline: Metrics is the mutex-free corner of the runtime -
// every counter is a std::atomic bumped with relaxed ordering from worker
// and manager threads, and snapshot() reads each counter independently. A
// snapshot taken mid-run is therefore a per-counter-consistent view, not a
// cross-counter-consistent one; exact totals are only meaningful once the
// counting threads have quiesced (gather time). MetricsSnapshot itself is
// plain data: never share one instance between threads without external
// synchronisation.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>

#include "util/archive.hpp"

namespace yewpar::rt {

// Simulated-latency histogram resolution: bucket i counts messages whose
// modelled one-way latency was in [2^(i-1), 2^i) microseconds (bucket 0 is
// < 1us), so 24 buckets reach ~8.4 seconds.
inline constexpr int kNetLatencyBuckets = 24;

inline int netLatencyBucketFor(std::uint64_t micros) {
  const int w = std::bit_width(micros);  // 0 for 0, else floor(log2)+1
  return w < kNetLatencyBuckets ? w : kNetLatencyBuckets - 1;
}

// Upper bound (microseconds) of histogram bucket i, for reporting.
inline std::uint64_t netLatencyBucketUpperMicros(int bucket) {
  return std::uint64_t{1} << bucket;
}

struct MetricsSnapshot {
  std::uint64_t nodesProcessed = 0;
  std::uint64_t tasksSpawned = 0;  // the termination detector's created count
  std::uint64_t prunes = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t localSteals = 0;   // tasks moved by local (in-locality) steals
  std::uint64_t remoteSteals = 0;  // tasks moved by remote steal replies
  std::uint64_t failedSteals = 0;
  // Successful steal transactions (replies that carried >= 1 task), local
  // and remote combined. tasksPerSteal() = stolen tasks / transactions is
  // the chunking ablation's headline number: "one" pins it at 1.0, chunked
  // policies amortise the request/reply round-trip over several tasks.
  std::uint64_t stealReplies = 0;
  std::uint64_t boundBroadcasts = 0;
  std::uint64_t boundUpdatesApplied = 0;
  // Contended workpool-lock acquisitions (a try_lock that failed before the
  // blocking lock), summed over localities at gather time. Only the
  // priority pools count them (rt::Workpool::lockContentions); the
  // workpool-ablation bench compares global vs sharded pool pressure.
  std::uint64_t poolLockContentions = 0;
  // Health-rule firings (healthy->unhealthy transitions, all rules
  // combined; see runtime/health.hpp), read from the rank's
  // rt::health::Rules into every telemetry Sample; 0 when the rules are off.
  std::uint64_t healthWarnings = 0;
  // Network totals, filled at gather time from each rank's own transport
  // (the traffic that rank sent) and summed over ranks, so every link is
  // counted once, by its sender. networkMessages counts logical sends;
  // networkFrames counts wire frames (one per batch flush), so
  // frames <= messages and the gap is what batching saved. batched +
  // immediate splits the messages by whether their frame carried >= 2.
  std::uint64_t networkMessages = 0;
  std::uint64_t networkBytes = 0;
  std::uint64_t networkFrames = 0;
  std::uint64_t networkBatched = 0;
  std::uint64_t networkImmediate = 0;
  // Messages shed to a spill list because their link was at --net-queue-cap
  // (back-pressure events; they are delivered later, never lost).
  std::uint64_t networkSpills = 0;
  // Idle-link liveness probes written by the TCP backend (--peer-timeout-ms);
  // always 0 on the simulated backend (a simulated rank that dies says so
  // through the fabric). Never counted in networkMessages/Frames/Bytes.
  std::uint64_t networkHeartbeats = 0;
  // Highest in-flight queue depth observed on any single link.
  std::uint64_t linkQueueHighWater = 0;
  // Histogram of modelled one-way latencies (see netLatencyBucketFor).
  std::array<std::uint64_t, kNetLatencyBuckets> netLatencyHist{};

  std::uint64_t tasksStolen() const { return localSteals + remoteSteals; }

  double tasksPerSteal() const {
    return stealReplies == 0
               ? 0.0
               : static_cast<double>(tasksStolen()) /
                     static_cast<double>(stealReplies);
  }

  // Approximate simulated-latency percentile from the histogram: the upper
  // bound of the bucket containing the q-quantile message, in microseconds.
  // Returns 0 when no latency was recorded.
  std::uint64_t netLatencyQuantileMicros(double q) const {
    std::uint64_t total = 0;
    for (auto c : netLatencyHist) total += c;
    if (total == 0) return 0;
    const double target = q * static_cast<double>(total);
    std::uint64_t seen = 0;
    for (int i = 0; i < kNetLatencyBuckets; ++i) {
      seen += netLatencyHist[i];
      if (static_cast<double>(seen) >= target) {
        return netLatencyBucketUpperMicros(i);
      }
    }
    return netLatencyBucketUpperMicros(kNetLatencyBuckets - 1);
  }

  // Defined below: loops over kCounters, then the histogram's buckets.
  MetricsSnapshot& operator+=(const MetricsSnapshot& o);
  void save(OArchive& a) const;
  void load(IArchive& a);
};

// The counter table: one row per MetricsSnapshot counter, in field order,
// which is the wire order save() and load() walk. The merge, the archive,
// /metrics, /status.json and the telemetry CSV all iterate it, so a counter
// is a field plus a row and has one name on every surface
// (docs/ARCHITECTURE.md "One counter table").
struct Counter {
  enum Kind : std::uint8_t { kSum, kMax };  // merging adds / keeps the larger
  const char* name;
  Kind kind;
  std::uint64_t MetricsSnapshot::*field;
};

inline constexpr Counter kCounters[] = {
    {"nodes_processed", Counter::kSum, &MetricsSnapshot::nodesProcessed},
    {"tasks_spawned", Counter::kSum, &MetricsSnapshot::tasksSpawned},
    {"prunes", Counter::kSum, &MetricsSnapshot::prunes},
    {"backtracks", Counter::kSum, &MetricsSnapshot::backtracks},
    {"local_steals", Counter::kSum, &MetricsSnapshot::localSteals},
    {"remote_steals", Counter::kSum, &MetricsSnapshot::remoteSteals},
    {"failed_steals", Counter::kSum, &MetricsSnapshot::failedSteals},
    {"steal_replies", Counter::kSum, &MetricsSnapshot::stealReplies},
    {"bound_broadcasts", Counter::kSum, &MetricsSnapshot::boundBroadcasts},
    {"bound_updates_applied", Counter::kSum,
     &MetricsSnapshot::boundUpdatesApplied},
    {"pool_lock_contentions", Counter::kSum,
     &MetricsSnapshot::poolLockContentions},
    {"health_warnings", Counter::kSum, &MetricsSnapshot::healthWarnings},
    {"network_messages", Counter::kSum, &MetricsSnapshot::networkMessages},
    {"network_bytes", Counter::kSum, &MetricsSnapshot::networkBytes},
    {"network_frames", Counter::kSum, &MetricsSnapshot::networkFrames},
    {"network_batched", Counter::kSum, &MetricsSnapshot::networkBatched},
    {"network_immediate", Counter::kSum, &MetricsSnapshot::networkImmediate},
    {"network_spills", Counter::kSum, &MetricsSnapshot::networkSpills},
    {"network_heartbeats", Counter::kSum,
     &MetricsSnapshot::networkHeartbeats},
    {"link_queue_high_water", Counter::kMax,
     &MetricsSnapshot::linkQueueHighWater},
};

// A field without a row fails the build instead of dropping out of the gather.
static_assert(sizeof(MetricsSnapshot) ==
              sizeof(std::uint64_t) *
                  (std::size(kCounters) + kNetLatencyBuckets));

inline MetricsSnapshot& MetricsSnapshot::operator+=(const MetricsSnapshot& o) {
  for (const auto& c : kCounters) {
    auto& mine = this->*c.field;
    mine = c.kind == Counter::kMax ? std::max(mine, o.*c.field)
                                   : mine + o.*c.field;
  }
  for (std::size_t i = 0; i < netLatencyHist.size(); ++i) {
    netLatencyHist[i] += o.netLatencyHist[i];
  }
  return *this;
}

inline void MetricsSnapshot::save(OArchive& a) const {
  for (const auto& c : kCounters) a << this->*c.field;
  for (auto c : netLatencyHist) a << c;
}

inline void MetricsSnapshot::load(IArchive& a) {
  for (const auto& c : kCounters) a >> this->*c.field;
  for (auto& c : netLatencyHist) a >> c;
}

// Lock-free accumulation; workers of one locality share one instance.
struct Metrics {
  std::atomic<std::uint64_t> nodesProcessed{0};
  std::atomic<std::uint64_t> prunes{0};
  std::atomic<std::uint64_t> backtracks{0};
  std::atomic<std::uint64_t> localSteals{0};
  std::atomic<std::uint64_t> remoteSteals{0};
  std::atomic<std::uint64_t> failedSteals{0};
  std::atomic<std::uint64_t> stealReplies{0};
  std::atomic<std::uint64_t> boundBroadcasts{0};
  std::atomic<std::uint64_t> boundUpdatesApplied{0};

  MetricsSnapshot snapshot() const {
    MetricsSnapshot s;
    s.nodesProcessed = nodesProcessed.load(std::memory_order_relaxed);
    s.prunes = prunes.load(std::memory_order_relaxed);
    s.backtracks = backtracks.load(std::memory_order_relaxed);
    s.localSteals = localSteals.load(std::memory_order_relaxed);
    s.remoteSteals = remoteSteals.load(std::memory_order_relaxed);
    s.failedSteals = failedSteals.load(std::memory_order_relaxed);
    s.stealReplies = stealReplies.load(std::memory_order_relaxed);
    s.boundBroadcasts = boundBroadcasts.load(std::memory_order_relaxed);
    s.boundUpdatesApplied =
        boundUpdatesApplied.load(std::memory_order_relaxed);
    return s;
  }
};

}  // namespace yewpar::rt
