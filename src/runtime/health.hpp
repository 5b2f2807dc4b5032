#pragma once

// Search-health rules: windowed checks over consecutive telemetry Samples
// of one rank, with rate-limited structured warnings (docs/ARCHITECTURE.md
// "Observability": health rules).
//
// Rules are *windowed*: the rank's telemetry tick (--health-interval-ms),
// polled by the rank's manager thread, hands evaluate() each new Sample
// with the previous one, and every rule reads only the difference, so a
// worker that is busy inside one long task shows zero new idle time and is
// never called starved, and a steal burst that ended minutes ago cannot
// keep a storm warning alive. Time is the Samples' own stamps - no clock
// reads, threads or callbacks - so a test can drive the rules with a
// hand-built Sample sequence.
//
// Firing discipline. A rule fires on the *transition* from healthy to
// unhealthy (counted in firings and MetricsSnapshot::healthWarnings), stays
// "firing" while the condition persists, and clears silently. Warnings are
// additionally rate-limited per rule by a cooldown, so a flapping rule
// cannot spam stderr: a persistently starved run emits exactly one warning.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/telemetry.hpp"

namespace yewpar::rt::health {

enum class Rule : int {
  kStarvation = 0,        // a worker's idle fraction high for N windows
  kStealStorm = 1,        // failed-steal rate above threshold
  kStalledIncumbent = 2,  // incumbent unimproved for --stall-warn-ms
  kProbeLiveness = 3,     // rank 0 idle and its probe rounds not closing
};
inline constexpr int kNumRules = 4;

const char* ruleName(Rule r);

struct Config {
  // kStarvation: idle fraction a worker must exceed...
  double starvationIdleFrac = 0.9;
  // ...for this many consecutive windows.
  int starvationWindows = 4;
  // kStealStorm: failed steals per second, windowed.
  double stealStormFailedPerSec = 5000.0;
  // kStalledIncumbent: 0 disables the rule (there are satisfiable runs
  // whose first incumbent IS the optimum; only the caller knows the scale).
  std::chrono::milliseconds stallWarn{0};
  // kProbeLiveness (rank 0 only): max silence from its termination leader.
  std::chrono::milliseconds probeStale{2000};
  // Minimum gap between two warnings from the same rule.
  std::chrono::milliseconds warnCooldown{5000};
};

// One rank's rule state. evaluate() runs on one thread (the rank's
// manager, polling the tick); the firing state is relaxed atomics, readable
// live from any thread (the status endpoint and the Sample builder).
class Rules {
 public:
  explicit Rules(const Config& cfg = {}, int rank = 0)
      : cfg_(cfg), rank_(rank) {}

  // Evaluate every rule over the window from `prev` to `cur`, two
  // consecutive Samples of this rank. A window of zero length is ignored.
  void evaluate(const telemetry::Sample& prev, const telemetry::Sample& cur);

  bool firing(Rule r) const {
    return firing_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  std::uint64_t firings(Rule r) const {
    return firings_[static_cast<std::size_t>(r)].load(
        std::memory_order_relaxed);
  }
  // Total healthy->unhealthy transitions across rules; every Sample carries
  // it as MetricsSnapshot::healthWarnings.
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
  void setFiring(Rule r, bool nowFiring, std::uint64_t nowNanos,
                 const std::string& detail);

  Config cfg_;
  int rank_;

  std::array<std::atomic<bool>, kNumRules> firing_{};
  std::array<std::atomic<std::uint64_t>, kNumRules> firings_{};
  std::atomic<std::uint64_t> warningsEmitted_{0};

  // Windowed state, touched only by the evaluating thread.
  std::optional<std::uint64_t> startNanos_;  // first window's start
  std::uint64_t lastImprovementNanos_ = 0;
  std::vector<int> starvedWindows_;  // consecutive count per worker
  std::array<std::uint64_t, kNumRules> lastWarnNanos_{};
};

}  // namespace yewpar::rt::health
