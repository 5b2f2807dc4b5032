#pragma once

// Per-test output files and loopback port blocks, shared by the suites that
// write traces and CSVs or bind localhost ports.

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace yewpar::testing {

inline std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// A per-test output file, unique per process so parallel ctest runs of a
// suite do not clobber each other; removed on scope exit.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& stem)
      : path(stem + "." + std::to_string(::getpid()) + ".tmp") {}
  ~TempFile() { std::remove(path.c_str()); }
};

// The next block of `step` ports at or above `base`. Each suite passes its
// own base, so suites running in parallel ctest invocations stay apart; the
// pid spreads concurrent runs of one suite, and callers retry on a bind
// failure.
inline std::uint16_t nextPortBase(std::uint16_t base, std::uint16_t step) {
  static std::atomic<std::uint16_t> counter{0};
  const auto pidSpread =
      static_cast<std::uint16_t>((::getpid() * 37) % 12000);
  return static_cast<std::uint16_t>(base + pidSpread +
                                    counter.fetch_add(step));
}

}  // namespace yewpar::testing
