#include "runtime/telemetry.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "runtime/health.hpp"

namespace yewpar::rt::telemetry {

Tick::Tick(std::uint64_t sampleIntervalMs, std::uint64_t healthIntervalMs,
           health::Rules& rules)
    : keepRows_(sampleIntervalMs > 0),
      rules_(healthIntervalMs > 0 ? &rules : nullptr) {
  if (sampleIntervalMs > 0 && healthIntervalMs > 0 &&
      sampleIntervalMs != healthIntervalMs) {
    throw std::invalid_argument(
        "--sample-interval-ms " + std::to_string(sampleIntervalMs) +
        " and --health-interval-ms " + std::to_string(healthIntervalMs) +
        " differ: the sampler and the health rules share one telemetry "
        "tick; give them the same value or set only one");
  }
  interval_ = std::chrono::milliseconds(
      sampleIntervalMs > 0 ? sampleIntervalMs : healthIntervalMs);
}

void Tick::start(std::function<Sample()> source) {
  if (interval_.count() == 0 || running()) return;
  {
    LockGuard lock(mtx_);
    stopRequested_ = false;
  }
  source_ = std::move(source);
  thread_ = std::thread([this] { loop(); });
}

void Tick::stop() {
  if (!running()) return;
  {
    LockGuard lock(mtx_);
    stopRequested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  source_ = nullptr;
}

bool Tick::waitInterval() {
  // Explicit predicate loop (not a wait lambda) so the thread-safety
  // analysis sees stopRequested_ read with mtx_ held.
  UniqueLock lock(mtx_);
  const auto deadline = std::chrono::steady_clock::now() + interval_;
  while (!stopRequested_) {
    if (cv_.wait_until(lock.native(), deadline) == std::cv_status::timeout) {
      return true;
    }
  }
  return false;
}

void Tick::loop() {
  // The first Sample opens the first health window; the stop() wake takes
  // none, since the engine publishes the final Sample itself once the rank
  // has quiesced.
  Sample prev = source_();
  if (keepRows_) rows_.push_back(prev);
  while (waitInterval()) {
    Sample cur = source_();
    if (rules_ != nullptr) rules_->evaluate(prev, cur);
    if (keepRows_) rows_.push_back(cur);
    prev = std::move(cur);
  }
}

const Sample& Tick::finish(Sample s) {
  if (keepRows_) rows_.push_back(s);
  finalStore_ = std::move(s);
  final_.store(&*finalStore_, std::memory_order_release);
  return *finalStore_;
}

void writeCsv(const std::string& path, const std::vector<Sample>& rows) {
  struct FilePtr {
    std::FILE* f = nullptr;
    ~FilePtr() {
      if (f != nullptr) std::fclose(f);
    }
  } fp{std::fopen(path.c_str(), "w")};
  if (fp.f == nullptr) {
    throw std::runtime_error("telemetry: cannot open '" + path +
                             "' for writing");
  }
  std::FILE* f = fp.f;
  // The fixed columns, one per counter row (docs/ARCHITECTURE.md "One
  // counter table"), then one cumulative busy/idle nanosecond pair per
  // worker (busy = working + popping + stealing; see runtime/profile.hpp).
  // The worker columns are sized by the widest row so a CSV mixing
  // localities with different team sizes stays rectangular.
  std::size_t nWorkers = 0;
  for (const auto& s : rows) {
    if (s.profile.workers.size() > nWorkers) {
      nWorkers = s.profile.workers.size();
    }
  }
  std::fputs("t_ms,rank,pool_depth,net_queued,net_queued_max_link", f);
  for (const auto& c : kCounters) std::fprintf(f, ",%s", c.name);
  for (std::size_t w = 0; w < nWorkers; ++w) {
    std::fprintf(f, ",w%zu_busy_ns,w%zu_idle_ns", w, w);
  }
  std::fputc('\n', f);
  const std::uint64_t t0 = rows.empty() ? 0 : rows.front().tNanos;
  for (const auto& s : rows) {
    std::fprintf(f, "%.3f,%d,%" PRIu64 ",%" PRIu64 ",%" PRIu64,
                 static_cast<double>(s.tNanos - t0) / 1e6, s.rank,
                 s.poolDepth, s.netQueued, s.netQueuedMaxLink);
    for (const auto& c : kCounters) {
      std::fprintf(f, ",%" PRIu64, s.metrics.*c.field);
    }
    for (std::size_t w = 0; w < nWorkers; ++w) {
      if (w < s.profile.workers.size()) {
        const auto& ph = s.profile.workers[w];
        std::fprintf(f, ",%" PRIu64 ",%" PRIu64, ph.busy(),
                     ph.get(prof::Phase::kIdle));
      } else {
        std::fputs(",0,0", f);
      }
    }
    std::fputc('\n', f);
  }
  if (std::ferror(f) != 0) {
    throw std::runtime_error("telemetry: write to '" + path + "' failed");
  }
}

}  // namespace yewpar::rt::telemetry
