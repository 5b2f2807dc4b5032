#pragma once

// Per-worker phase accounting: where worker time goes, live
// (docs/ARCHITECTURE.md "Observability": phase accounting).
//
// Accounting discipline. Each engine worker owns one PhaseClock and laps it
// at every phase boundary of the worker loop (popped a task / executed it /
// went stealing / waited idle), so every nanosecond between the first
// start() and the last lap() is attributed to exactly one phase -- phases
// are a flat partition of worker wall time, never nested. Attribution is
// post-hoc: the phase is named when the interval *ends*, which is the only
// point the loop knows what the interval was (a popWait() span is kPopping
// if it returned a task and kIdle if it timed out). The manager thread is
// the one exception: its handler spans are bracketed by ScopedPhase because
// recvWait time in between is not manager work.
//
// Accumulators are relaxed per-worker atomics so the telemetry tick and the
// status endpoint can snapshot a live run without stopping it; like rt::Metrics, a mid-run snapshot is per-counter consistent only.
//
// Overhead contract. Arming follows the trace session discipline: with no
// run armed, PhaseClock::lap() is a branch and one relaxed load -- no clock
// read. bench/micro_components gates the disabled path below 5 ns/lap.
// Armed, the cost is one steady_clock read per phase boundary.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "util/archive.hpp"

namespace yewpar::rt::prof {

// The phase partition of a worker's wall time. kManager only ever appears
// in a locality's manager slot (message-handler dispatch time).
enum class Phase : std::uint8_t {
  kWorking = 0,   // executing a task (the useful fraction)
  kPopping = 1,   // popWait() spans that returned a task
  kStealing = 2,  // the idle policy: posting or sending a steal request
  kIdle = 3,      // popWait() spans that timed out empty
  kManager = 4,   // manager thread: message-handler dispatch
};
inline constexpr int kNumPhases = 5;

const char* phaseName(Phase p);

// The one steady-clock read behind every runtime timestamp.
inline std::uint64_t nowNanos() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace detail {
extern std::atomic<bool> gEnabled;
}  // namespace detail

// The benchmarked disabled path: one relaxed load and a branch.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

// Refcounted arming, mirroring trace::Session: the localities of an
// in-process multi-rank run share the armed state; the last disarm()
// disables recording.
void arm();
void disarm();

class ArmScope {
 public:
  ArmScope() { arm(); }
  ~ArmScope() { disarm(); }

  ArmScope(const ArmScope&) = delete;
  ArmScope& operator=(const ArmScope&) = delete;
};

// Live accumulator for one worker (or manager) thread. Writes come from
// that thread only; reads may come from any thread, live.
class WorkerProfile {
 public:
  void add(Phase p, std::uint64_t nanos) {
    nanos_[static_cast<std::size_t>(p)].fetch_add(nanos,
                                                  std::memory_order_relaxed);
  }

  std::uint64_t get(Phase p) const {
    return nanos_[static_cast<std::size_t>(p)].load(std::memory_order_relaxed);
  }

  // The owning thread's wall span (worker-loop entry to exit), from its
  // phase clock's first and last reads rather than from the laps' sum, so
  // total() vs wall() is a real gap/double-charge check: any interval lost
  // or charged twice shows, however briefly the loop ran, and the check
  // stays meaningful when the OS schedules team threads far apart.
  void setWall(std::uint64_t nanos) {
    wall_.store(nanos, std::memory_order_relaxed);
  }
  std::uint64_t wall() const {
    return wall_.load(std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kNumPhases> nanos_{};
  std::atomic<std::uint64_t> wall_{0};
};

// One worker's lap-based stopwatch. Single-threaded by design (one per
// worker); the shared state it writes through (WorkerProfile) is atomic.
class PhaseClock {
 public:
  // (Re)base the clock at now and return that base (0 while disarmed).
  // Called once at worker-loop entry; lap() re-bases automatically after a
  // disarmed stretch.
  std::uint64_t start() {
    last_ = enabled() ? nowNanos() : 0;
    return last_;
  }

  // Close the interval that began at the previous lap (or start()), charge
  // it to `p`, and return the clock read that closed it (0 while
  // disarmed). Exactly one phase per nanosecond: the new interval begins
  // where this one ended, on the same clock read.
  std::uint64_t lap(WorkerProfile& w, Phase p) {
    if (last_ == 0) {  // disarmed at the previous boundary: just re-base
      return start();
    }
    const std::uint64_t now = nowNanos();
    w.add(p, now - last_);
    last_ = now;
    return now;
  }

 private:
  std::uint64_t last_ = 0;
};

// RAII span for the manager thread's handler dispatch: unlike the worker
// loop, manager time between handlers (recvWait) is deliberately not
// accounted. Null profile or disarmed recording makes it free.
class ScopedPhase {
 public:
  ScopedPhase(WorkerProfile* w, Phase p) : w_(w), p_(p) {
    t0_ = (w_ != nullptr && enabled()) ? nowNanos() : 0;
  }
  ~ScopedPhase() {
    if (t0_ != 0) w_->add(p_, nowNanos() - t0_);
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  WorkerProfile* w_;
  Phase p_;
  std::uint64_t t0_ = 0;
};

// Plain-data phase totals for one thread slot. Wire-serializable (rides
// GatherMsg; kPayloadLayoutVersion covers layout changes).
struct PhaseNanos {
  std::array<std::uint64_t, kNumPhases> nanos{};
  // The thread's own wall span (see WorkerProfile::setWall): the phase sum
  // must tile this within clock-read noise. 0 for slots that never ran a
  // worker loop (the manager slot, live pre-team snapshots).
  std::uint64_t wallNanos = 0;

  std::uint64_t get(Phase p) const {
    return nanos[static_cast<std::size_t>(p)];
  }
  std::uint64_t total() const {
    std::uint64_t t = 0;
    for (auto n : nanos) t += n;
    return t;
  }
  // Time not spent waiting on an empty pool. For workers this is
  // working + popping + stealing; the manager slot only ever has kManager.
  std::uint64_t busy() const {
    return total() - get(Phase::kIdle);
  }

  void save(OArchive& a) const {
    for (auto n : nanos) a << n;
    a << wallNanos;
  }
  void load(IArchive& a) {
    for (auto& n : nanos) a >> n;
    a >> wallNanos;
  }
};

// One rank's phase accounting, frozen. `wallNanos` is the worker-team wall
// span measured by the engine around the team's lifetime -- the phase
// table's common denominator. Each worker's phases tile its *own* wall
// (PhaseNanos::wallNanos), which trails the team wall by however long the
// OS staggered the team's thread starts and exits.
struct ProfileSnapshot {
  std::int32_t rank = 0;
  std::uint64_t wallNanos = 0;
  std::vector<PhaseNanos> workers;  // one per worker thread, in worker order
  PhaseNanos manager;               // the locality's manager thread

  // Fraction of this snapshot's wall spent executing tasks by worker w.
  // Falls back to the worker's own phase total when wall is unknown (live
  // snapshots taken before the team exists).
  double busyFraction(std::size_t w) const;

  // Load-imbalance indices over per-worker kWorking time. Both are 0 for a
  // perfectly balanced team (and for the degenerate no-work case);
  // utilizationCV() is the population coefficient of variation
  // (stddev/mean), giniIndex() the Gini coefficient in [0, 1-1/n].
  double utilizationCV() const;
  double giniIndex() const;

  void save(OArchive& a) const {
    a << rank << wallNanos << workers << manager;
  }
  void load(IArchive& a) {
    a >> rank >> wallNanos >> workers >> manager;
  }
};

// The live per-locality registry: one WorkerProfile per engine worker plus
// one manager slot. Sized at construction, never resized, so worker slots
// can be handed out as stable references.
class Profile {
 public:
  explicit Profile(int workers)
      : slots_(static_cast<std::size_t>(workers) + 1) {}

  Profile(const Profile&) = delete;
  Profile& operator=(const Profile&) = delete;

  int workerCount() const { return static_cast<int>(slots_.size()) - 1; }

  WorkerProfile& worker(int w) { return slots_[static_cast<std::size_t>(w)]; }
  WorkerProfile& manager() { return slots_.back(); }

  ProfileSnapshot snapshot(int rank, std::uint64_t wallNanos) const;

 private:
  std::vector<WorkerProfile> slots_;
};

// Print the per-rank "where time went" table (one row per worker plus the
// manager and imbalance indices per rank) to stdout. Empty input prints
// nothing.
void printPhaseTable(const std::vector<ProfileSnapshot>& ranks);

}  // namespace yewpar::rt::prof
