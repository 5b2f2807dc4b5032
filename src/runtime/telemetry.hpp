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
// rules) share one thread per rank running at the one non-zero cadence; two
// different non-zero values are rejected. With both 0 no thread starts.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/metrics.hpp"
#include "runtime/profile.hpp"
#include "util/thread_annotations.hpp"

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

// The rank's telemetry tick. start() spawns one thread that builds a Sample
// through the source as it starts and then every interval, keeps each as a
// CSV row when --sample-interval-ms is set and, when --health-interval-ms is
// set, passes it with the previous one to the health rules. start()/stop()
// are idempotent and a stopped tick can be restarted; the source must stay
// valid until stop() returns.
class Tick {
 public:
  // Intervals in ms, 0 = that consumer off. Throws std::invalid_argument
  // naming both flags when both are non-zero and differ.
  Tick(std::uint64_t sampleIntervalMs, std::uint64_t healthIntervalMs,
       health::Rules& rules);
  ~Tick() { stop(); }

  Tick(const Tick&) = delete;
  Tick& operator=(const Tick&) = delete;

  void start(std::function<Sample()> source) EXCLUDES(mtx_);
  void stop() EXCLUDES(mtx_);
  // Controlling thread only.
  bool running() const { return thread_.joinable(); }

  // Publish the rank's final Sample, once, after stop(): it becomes the last
  // CSV row and, from then on, what finalSample() returns.
  const Sample& finish(Sample s);
  // The published final Sample, or nullptr before finish(). Any thread.
  const Sample* finalSample() const {
    return final_.load(std::memory_order_acquire);
  }

  // The CSV rows; read only while the thread is stopped.
  const std::vector<Sample>& rows() const { return rows_; }

 private:
  void loop();
  bool waitInterval() EXCLUDES(mtx_);

  std::chrono::milliseconds interval_{0};
  bool keepRows_ = false;
  health::Rules* rules_ = nullptr;  // null: health rules off

  Mutex mtx_;
  std::condition_variable cv_;
  bool stopRequested_ GUARDED_BY(mtx_) = false;
  std::function<Sample()> source_;  // set before the thread spawns
  // Written by the tick thread while it runs, by finish() after.
  std::vector<Sample> rows_;
  // Written once by finish(), then only read; final_ publishes it.
  std::optional<Sample> finalStore_;
  std::atomic<const Sample*> final_{nullptr};
  std::thread thread_;  // touched only by the controlling thread
};

}  // namespace telemetry
}  // namespace yewpar::rt
