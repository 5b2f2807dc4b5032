#pragma once

// One rank's telemetry: the Sample every view of the rank's counters is
// built from, and the one periodic tick that records them
// (docs/ARCHITECTURE.md "Observability").
//
// One snapshot. The engine builds every Sample with one function: the tick
// keeps each as a CSV row and hands consecutive pairs to the health rules,
// the status endpoint renders one per scrape, and after quiesce the rank's
// final Sample fills its gather message, ends its CSV and is what the status
// endpoint serves from then on - so a post-search scrape equals the gather on
// every counter by construction.
//
// One tick. --sample-interval-ms (CSV rows) and --health-interval-ms (health
// rules) share one tick per rank at the one non-zero cadence; two different
// non-zero values are rejected. It owns no thread: the rank's manager polls
// it between messages. With both 0 it never samples.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/profile.hpp"

namespace yewpar::rt {

namespace health {
class Rules;
}  // namespace health

namespace telemetry {

// One rank's counters at one instant.
struct Sample {
  std::uint64_t tNanos = 0;  // steady clock
  int rank = 0;
  // False once this rank's search has terminated: the health rules hold
  // their fire from then on.
  bool searchActive = true;
  std::uint64_t poolDepth = 0;
  std::uint64_t netQueued = 0;         // messages this rank has in flight
  std::uint64_t netQueuedMaxLink = 0;  // deepest single link/peer queue
  std::optional<std::int64_t> objective;  // incumbent; nullopt = none yet
  // TerminationDetector::lastProbeNanos (rank 0 only); 0 = none.
  std::uint64_t lastProbeNanos = 0;
  // Coordination counters plus pool contentions, health firings and this
  // rank's transport counters: everything the gather ships.
  MetricsSnapshot metrics;
  prof::ProfileSnapshot profile;
};

// One CSV line per row, plus per-worker busy/idle columns sized by the
// widest row. Throws std::runtime_error if the file cannot be written.
void writeCsv(const std::string& path, const std::vector<Sample>& rows);

// The rank's telemetry tick, polled by the rank's manager thread before
// each wait for a message. A poll builds a Sample through the source when
// one is due - at the first poll, then once per interval - keeps it as a CSV
// row when --sample-interval-ms is set and, when --health-interval-ms is
// set, passes it with the previous one to the health rules. The source must
// stay valid while polls run.
class Tick {
 public:
  // Intervals in ms, 0 = that consumer off. Throws std::invalid_argument
  // naming both flags when both are non-zero and differ.
  Tick(std::uint64_t sampleIntervalMs, std::uint64_t healthIntervalMs,
       health::Rules& rules, std::function<Sample()> source);

  Tick(const Tick&) = delete;
  Tick& operator=(const Tick&) = delete;

  // Sample if one is due at `nowNanos` (steady clock), and return the wait
  // until the next one: a late poll counts the next interval from itself.
  // With both intervals 0 it never samples and returns the longest wait.
  std::chrono::microseconds poll(std::uint64_t nowNanos);

  // Publish the rank's final Sample, once, after the last poll: it becomes
  // the last CSV row and, from then on, what finalSample() returns.
  const Sample& finish(Sample s);
  // The published final Sample, or nullptr before finish(). Any thread.
  const Sample* finalSample() const {
    return final_.load(std::memory_order_acquire);
  }

  // The CSV rows; read only while no poll runs.
  const std::vector<Sample>& rows() const { return rows_; }

 private:
  std::uint64_t intervalNanos_ = 0;  // 0: never samples
  bool keepRows_ = false;
  health::Rules* rules_ = nullptr;  // null: health rules off
  std::function<Sample()> source_;
  // Written by the polls, then by finish().
  std::optional<Sample> prev_;  // the last Sample, the next window's start
  std::uint64_t nextNanos_ = 0;  // when the next Sample is due
  std::vector<Sample> rows_;
  // Written once by finish(), then only read; final_ publishes it.
  std::optional<Sample> finalStore_;
  std::atomic<const Sample*> final_{nullptr};
};

}  // namespace telemetry
}  // namespace yewpar::rt
