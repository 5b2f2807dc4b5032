#include "runtime/health.hpp"

#include <cinttypes>
#include <cstdio>

namespace yewpar::rt::health {

const char* ruleName(Rule r) {
  switch (r) {
    case Rule::kStarvation: return "starvation";
    case Rule::kStealStorm: return "steal-storm";
    case Rule::kStalledIncumbent: return "stalled-incumbent";
    case Rule::kProbeLiveness: return "probe-liveness";
  }
  return "?";
}

void Rules::setFiring(Rule r, bool nowFiring, std::uint64_t nowNanos,
                      const std::string& detail) {
  const auto i = static_cast<std::size_t>(r);
  const bool was = firing_[i].load(std::memory_order_relaxed);
  firing_[i].store(nowFiring, std::memory_order_relaxed);
  if (!nowFiring || was) return;  // fire on the transition only
  firings_[i].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t cooldown =
      static_cast<std::uint64_t>(cfg_.warnCooldown.count()) * 1000000u;
  if (lastWarnNanos_[i] != 0 && nowNanos - lastWarnNanos_[i] < cooldown) {
    return;  // rate-limited: counted, not printed
  }
  lastWarnNanos_[i] = nowNanos;
  warningsEmitted_.fetch_add(1, std::memory_order_relaxed);
  std::fprintf(stderr, "yewpar-health: rank %d: %s: %s\n", rank_,
               ruleName(r), detail.c_str());
}

void Rules::evaluate(const telemetry::Sample& prev,
                     const telemetry::Sample& cur) {
  if (cur.tNanos <= prev.tNanos) return;
  const std::uint64_t now = cur.tNanos;
  const std::uint64_t dt = now - prev.tNanos;
  if (!startNanos_) {
    startNanos_ = prev.tNanos;
    lastImprovementNanos_ = prev.tNanos;
  }
  const bool active = cur.searchActive;
  const double dtSec = static_cast<double>(dt) / 1e9;

  // kStarvation: per-worker windowed idle fraction.
  const auto& workers = cur.profile.workers;
  if (starvedWindows_.size() != workers.size()) {
    starvedWindows_.assign(workers.size(), 0);
  }
  int worstWorker = -1;
  double worstFrac = 0.0;
  bool starved = false;
  for (std::size_t w = 0; w < workers.size(); ++w) {
    const std::uint64_t prevIdle =
        w < prev.profile.workers.size()
            ? prev.profile.workers[w].get(prof::Phase::kIdle)
            : 0;
    const double idleFrac =
        static_cast<double>(workers[w].get(prof::Phase::kIdle) - prevIdle) /
        static_cast<double>(dt);
    if (active && idleFrac > cfg_.starvationIdleFrac) {
      if (++starvedWindows_[w] >= cfg_.starvationWindows) {
        starved = true;
        if (idleFrac > worstFrac) {
          worstFrac = idleFrac;
          worstWorker = static_cast<int>(w);
        }
      }
    } else {
      starvedWindows_[w] = 0;
    }
  }
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "worker %d idle %.0f%% for %d+ windows of %" PRIu64 "ms",
                worstWorker, 100.0 * worstFrac, cfg_.starvationWindows,
                dt / 1000000u);
  setFiring(Rule::kStarvation, starved, now, buf);

  // kStealStorm: windowed failed-steal rate.
  const double failedPerSec =
      static_cast<double>(cur.metrics.failedSteals -
                          prev.metrics.failedSteals) /
      dtSec;
  std::snprintf(buf, sizeof buf,
                "%.0f failed steals/s (threshold %.0f): victims are dry, "
                "thieves are spinning",
                failedPerSec, cfg_.stealStormFailedPerSec);
  setFiring(Rule::kStealStorm,
            active && failedPerSec > cfg_.stealStormFailedPerSec, now, buf);

  // kStalledIncumbent: only meaningful once an incumbent exists, and only
  // when the caller opted in with a scale (--stall-warn-ms).
  if (cur.objective != prev.objective) lastImprovementNanos_ = now;
  const std::uint64_t stallNanos =
      static_cast<std::uint64_t>(cfg_.stallWarn.count()) * 1000000u;
  const bool stalled = stallNanos != 0 && active && cur.objective &&
                       now - lastImprovementNanos_ > stallNanos;
  std::snprintf(buf, sizeof buf,
                "incumbent %" PRId64 " unimproved for %" PRIu64
                "ms (--stall-warn-ms %" PRIu64 ")",
                cur.objective.value_or(0),
                (now - lastImprovementNanos_) / 1000000u,
                static_cast<std::uint64_t>(cfg_.stallWarn.count()));
  setFiring(Rule::kStalledIncumbent, stalled, now, buf);

  // kProbeLiveness, rank 0's rule: its termination leader stamps every
  // closed round and every wake that finds rank 0 busy, so silence means
  // rank 0 idles while its rounds stop closing. The stamp races with the
  // Sample's clock read, so a stamp newer than `now` means "just probed".
  if (rank_ != 0) return;
  const std::uint64_t probeRef =
      cur.lastProbeNanos != 0 ? cur.lastProbeNanos : *startNanos_;
  const std::uint64_t sinceNanos = now > probeRef ? now - probeRef : 0;
  const std::uint64_t staleNanos =
      static_cast<std::uint64_t>(cfg_.probeStale.count()) * 1000000u;
  std::snprintf(buf, sizeof buf,
                "no termination-probe activity for %" PRIu64
                "ms (threshold %" PRIu64 "ms)",
                sinceNanos / 1000000u, staleNanos / 1000000u);
  setFiring(Rule::kProbeLiveness, active && sinceNanos > staleNanos, now,
            buf);
}

}  // namespace yewpar::rt::health
