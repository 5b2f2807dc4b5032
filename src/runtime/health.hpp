#pragma once

// Search-health watchdog: a background thread that evaluates windowed
// health rules over live engine state and emits rate-limited structured
// warnings (docs/ARCHITECTURE.md "Observability": health rules).
//
// Rules are *windowed*: each tick (the sampler cadence, --health-interval-ms)
// the watchdog diffs the previous tick's counters against the current ones,
// so a worker that is busy inside one long task shows zero new idle time and
// is never called starved, and a steal burst that ended minutes ago cannot
// keep a storm warning alive.
//
// Firing discipline. A rule fires on the *transition* from healthy to
// unhealthy (counted in firings and MetricsSnapshot::healthWarnings), stays
// "firing" while the condition persists, and clears silently. Warnings are
// additionally rate-limited per rule by a cooldown, so a flapping rule
// cannot spam stderr: a persistently starved run emits exactly one warning.
//
// The watchdog only ever reads through the Probe callbacks - relaxed
// atomic loads and lock-free snapshots - so it can observe a wedged search
// without being wedged by it.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/profile.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt::health {

enum class Rule : int {
  kStarvation = 0,        // a worker's idle fraction high for N windows
  kStealStorm = 1,        // failed-steal rate above threshold
  kStalledIncumbent = 2,  // incumbent unimproved for --stall-warn-ms
  kProbeLiveness = 3,     // no termination-probe traffic for too long
};
inline constexpr int kNumRules = 4;

const char* ruleName(Rule r);

struct Config {
  // Evaluation cadence; <= 0 disables the watchdog entirely.
  std::chrono::milliseconds interval{250};
  // kStarvation: idle fraction a worker must exceed...
  double starvationIdleFrac = 0.9;
  // ...for this many consecutive windows.
  int starvationWindows = 4;
  // kStealStorm: failed steals per second, windowed.
  double stealStormFailedPerSec = 5000.0;
  // kStalledIncumbent: 0 disables the rule (there are satisfiable runs
  // whose first incumbent IS the optimum; only the caller knows the scale).
  std::chrono::milliseconds stallWarn{0};
  // kProbeLiveness: max silence since the last termination-probe round.
  std::chrono::milliseconds probeStale{2000};
  // Minimum gap between two warnings from the same rule.
  std::chrono::milliseconds warnCooldown{5000};
};

// Lock-free views into live engine state. All callbacks must stay valid
// until stop() returns and must not block (they run on the watchdog
// thread every tick).
struct Probe {
  std::function<prof::ProfileSnapshot()> profile;
  std::function<std::uint64_t()> failedSteals;
  // Current incumbent objective; `objectiveNone` means no incumbent yet.
  std::function<std::int64_t()> objective;
  std::int64_t objectiveNone = 0;
  // Steady-clock nanos of the last termination-probe activity; 0 = none.
  std::function<std::uint64_t()> lastProbeNanos;
  // False once the search has terminated: all rules hold their fire.
  std::function<bool()> searchActive;
};

class Watchdog {
 public:
  Watchdog() = default;
  ~Watchdog() { stop(); }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  // Idempotent; a config with interval <= 0 makes start() a no-op.
  void start(const Config& cfg, Probe probe, int rank) EXCLUDES(mtx_);
  void stop() EXCLUDES(mtx_);

  // Readable from any thread (the status endpoint reports it live).
  bool running() const { return running_.load(std::memory_order_relaxed); }

  // Live rule state, readable from any thread (the status endpoint).
  bool firing(Rule r) const {
    return firing_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t firings(Rule r) const {
    return firings_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  // Total healthy->unhealthy transitions across rules; folded into
  // MetricsSnapshot::healthWarnings at gather time.
  std::uint64_t totalFirings() const {
    std::uint64_t t = 0;
    for (const auto& f : firings_) t += f.load(std::memory_order_relaxed);
    return t;
  }
  // Warnings actually written to stderr (firings minus cooldown-suppressed).
  std::uint64_t warningsEmitted() const {
    return warningsEmitted_.load(std::memory_order_relaxed);
  }

 private:
  void loop() EXCLUDES(mtx_);
  void evaluate(std::uint64_t nowNanos);
  void setFiring(Rule r, bool nowFiring, std::uint64_t nowNanos,
                 const std::string& detail);

  Config cfg_;
  Probe probe_;
  int rank_ = 0;

  Mutex mtx_;
  std::condition_variable cv_;
  bool stopRequested_ GUARDED_BY(mtx_) = false;
  std::thread thread_;   // touched only by the controlling thread
  std::atomic<bool> running_{false};  // written by the controlling thread

  std::array<std::atomic<bool>, kNumRules> firing_{};
  std::array<std::atomic<std::uint64_t>, kNumRules> firings_{};
  std::atomic<std::uint64_t> warningsEmitted_{0};

  // Windowed state, touched only by the watchdog thread.
  std::uint64_t lastTickNanos_ = 0;
  std::uint64_t startNanos_ = 0;
  prof::ProfileSnapshot prevProfile_;
  std::uint64_t prevFailedSteals_ = 0;
  std::int64_t lastObjective_ = 0;
  std::uint64_t lastImprovementNanos_ = 0;
  std::vector<int> starvedWindows_;  // consecutive count per worker
  std::array<std::uint64_t, kNumRules> lastWarnNanos_{};
};

}  // namespace yewpar::rt::health
