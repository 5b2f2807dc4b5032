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

void Watchdog::start(const Config& cfg, Probe probe, int rank) {
  if (running() || cfg.interval.count() <= 0) return;
  cfg_ = cfg;
  probe_ = std::move(probe);
  rank_ = rank;
  {
    LockGuard lock(mtx_);
    stopRequested_ = false;
  }
  for (auto& f : firing_) f.store(false, std::memory_order_relaxed);
  for (auto& f : firings_) f.store(0, std::memory_order_relaxed);
  warningsEmitted_.store(0, std::memory_order_relaxed);
  startNanos_ = prof::nowNanos();
  lastTickNanos_ = startNanos_;
  prevProfile_ = probe_.profile();
  prevFailedSteals_ = probe_.failedSteals();
  lastObjective_ = probe_.objective();
  lastImprovementNanos_ = startNanos_;
  starvedWindows_.assign(prevProfile_.workers.size(), 0);
  lastWarnNanos_.fill(0);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void Watchdog::loop() {
  bool last = false;
  while (!last) {
    {
      // Explicit predicate loop (not a wait lambda) so the thread-safety
      // analysis sees stopRequested_ read with mtx_ held.
      UniqueLock lock(mtx_);
      const auto deadline = std::chrono::steady_clock::now() + cfg_.interval;
      while (!stopRequested_) {
        if (cv_.wait_until(lock.native(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      last = stopRequested_;
    }
    // The stop() wake skips evaluation: a partial window would misread
    // idle fractions, and the search is ending anyway.
    if (!last) evaluate(prof::nowNanos());
  }
}

void Watchdog::stop() {
  if (!running()) return;
  {
    LockGuard lock(mtx_);
    stopRequested_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
  probe_ = Probe{};
}

void Watchdog::setFiring(Rule r, bool nowFiring, std::uint64_t nowNanos,
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

void Watchdog::evaluate(std::uint64_t now) {
  const std::uint64_t dt = now - lastTickNanos_;
  if (dt == 0) return;
  lastTickNanos_ = now;
  const bool active = probe_.searchActive();
  const double dtSec = static_cast<double>(dt) / 1e9;

  // kStarvation: per-worker windowed idle fraction.
  auto cur = probe_.profile();
  if (starvedWindows_.size() != cur.workers.size()) {
    starvedWindows_.assign(cur.workers.size(), 0);
  }
  int worstWorker = -1;
  double worstFrac = 0.0;
  bool starved = false;
  for (std::size_t w = 0; w < cur.workers.size(); ++w) {
    const std::uint64_t prevIdle = w < prevProfile_.workers.size()
                                       ? prevProfile_.workers[w].get(
                                             prof::Phase::kIdle)
                                       : 0;
    const double idleFrac = static_cast<double>(
                                cur.workers[w].get(prof::Phase::kIdle) -
                                prevIdle) /
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
                static_cast<std::uint64_t>(cfg_.interval.count()));
  setFiring(Rule::kStarvation, starved, now, buf);
  prevProfile_ = std::move(cur);

  // kStealStorm: windowed failed-steal rate.
  const std::uint64_t failed = probe_.failedSteals();
  const double failedPerSec =
      static_cast<double>(failed - prevFailedSteals_) / dtSec;
  prevFailedSteals_ = failed;
  std::snprintf(buf, sizeof buf,
                "%.0f failed steals/s (threshold %.0f): victims are dry, "
                "thieves are spinning",
                failedPerSec, cfg_.stealStormFailedPerSec);
  setFiring(Rule::kStealStorm,
            active && failedPerSec > cfg_.stealStormFailedPerSec, now, buf);

  // kStalledIncumbent: only meaningful once an incumbent exists, and only
  // when the caller opted in with a scale (--stall-warn-ms).
  const std::int64_t obj = probe_.objective();
  if (obj != lastObjective_) {
    lastObjective_ = obj;
    lastImprovementNanos_ = now;
  }
  const std::uint64_t stallNanos =
      static_cast<std::uint64_t>(cfg_.stallWarn.count()) * 1000000u;
  const bool stalled = stallNanos != 0 && active &&
                       obj != probe_.objectiveNone &&
                       now - lastImprovementNanos_ > stallNanos;
  std::snprintf(buf, sizeof buf,
                "incumbent %" PRId64 " unimproved for %" PRIu64
                "ms (--stall-warn-ms %" PRIu64 ")",
                obj, (now - lastImprovementNanos_) / 1000000u,
                static_cast<std::uint64_t>(cfg_.stallWarn.count()));
  setFiring(Rule::kStalledIncumbent, stalled, now, buf);

  // kProbeLiveness: the termination detector must keep probing while the
  // search runs; silence means the leader (or the path to it) is wedged.
  // The probe stamp races with this tick's clock read (handlers stamp it
  // live), so a stamp newer than `now` means "just probed", not 2^64 ms ago.
  const std::uint64_t lastProbe = probe_.lastProbeNanos();
  const std::uint64_t probeRef = lastProbe != 0 ? lastProbe : startNanos_;
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
