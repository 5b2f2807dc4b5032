#pragma once

// Metric samples, spans and JSON output for the perf benchmark.
//
// Spans follow the choosing-metrics discipline: the benchmark records one
// span around each call it makes into a layer (a solve, a reference solve,
// a probe loop), keeps them in memory, and writes them out once at the end
// as Chrome trace_event JSON. Each span carries its own id and its parent's,
// so self time (duration minus direct children) falls out of the file.

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/profile.hpp"
#include "util/stats.hpp"

namespace perf {

using yewpar::rt::prof::nowNanos;

// A JSON number in its shortest round-trip form. Every caller guards its
// denominators; a non-finite value would be a benchmark bug.
inline std::string jsonNumber(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

// All samples of one metric: one per rep for per-solve figures, a single
// value for per-process ones (peak RSS, probes).
struct Metric {
  std::string name;
  std::string unit;
  std::vector<double> samples;

  double median() const { return yewpar::median(samples); }

  // Nearest-rank percentile.
  double percentile(int p) const {
    std::vector<double> s = samples;
    std::sort(s.begin(), s.end());
    if (s.empty()) return 0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(static_cast<double>(p) / 100.0 *
                  static_cast<double>(s.size())));
    return s[std::clamp<std::size_t>(rank, 1, s.size()) - 1];
  }

  // The highest of p99/p95/p90/p75 with at least ten samples beyond it;
  // 0 when even p75 has fewer (under 40 samples).
  int tailPercentile() const {
    for (int p : {99, 95, 90, 75}) {
      if (static_cast<double>(samples.size()) * (100 - p) / 100.0 >= 10.0) {
        return p;
      }
    }
    return 0;
  }
};

// Metrics in first-recorded order.
class Metrics {
 public:
  void add(const std::string& name, const std::string& unit, double v) {
    for (auto& m : list_) {
      if (m.name == name) {
        m.samples.push_back(v);
        return;
      }
    }
    list_.push_back(Metric{name, unit, {v}});
  }

  double median(const std::string& name) const {
    for (const auto& m : list_) {
      if (m.name == name) return m.median();
    }
    return 0;
  }

  const std::vector<Metric>& all() const { return list_; }

 private:
  std::vector<Metric> list_;
};

// In-memory span recorder, single-threaded (only the benchmark's main
// thread records).
class Spans {
 public:
  static constexpr std::size_t kNoParent = ~std::size_t{0};

  std::size_t begin(std::string name, std::string cat) {
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back(
        Span{std::move(name), std::move(cat), nowNanos(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  // Close span `id` (the innermost open one); returns its duration in ns.
  std::uint64_t end(std::size_t id) {
    if (open_.empty() || open_.back() != id) {
      throw std::logic_error("spans must close innermost first");
    }
    open_.pop_back();
    auto& s = spans_[id];
    s.dur = nowNanos() - s.start;
    return s.dur;
  }

  // Self time summed per category: duration minus direct children.
  std::map<std::string, double> selfMillisByCategory() const {
    std::vector<std::uint64_t> childNanos(spans_.size(), 0);
    for (const auto& s : spans_) {
      if (s.parent != kNoParent) childNanos[s.parent] += s.dur;
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[spans_[i].cat] +=
          static_cast<double>(spans_[i].dur - childNanos[i]) / 1e6;
    }
    return out;
  }

  void writeChromeJson(const std::string& path) const {
    std::ofstream f(path);
    if (!f) throw std::runtime_error("cannot write trace " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().start;
    f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      f << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"cat\":\"" << s.cat << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << jsonNumber(static_cast<double>(s.start - origin) / 1e3)
        << ",\"dur\":" << jsonNumber(static_cast<double>(s.dur) / 1e3)
        << ",\"args\":{\"id\":" << i << ",\"parent\":"
        << (s.parent == kNoParent ? std::string("null")
                                  : std::to_string(s.parent))
        << "}}";
    }
    f << "\n]}\n";
  }

 private:
  struct Span {
    std::string name;
    std::string cat;
    std::uint64_t start = 0;
    std::uint64_t dur = 0;
    std::size_t parent = kNoParent;
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

// RAII span; close() ends it early and returns its duration.
class SpanScope {
 public:
  SpanScope(Spans& spans, std::string name, std::string cat)
      : spans_(spans), id_(spans.begin(std::move(name), std::move(cat))) {}
  ~SpanScope() {
    if (open_) spans_.end(id_);
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t close() {
    open_ = false;
    return spans_.end(id_);
  }

 private:
  Spans& spans_;
  std::size_t id_;
  bool open_ = true;
};

}  // namespace perf
