#pragma once

// Embedded HTTP/1.0 status endpoint (docs/ARCHITECTURE.md "Observability":
// status endpoint). Off by default; --status-port arms it.
//
// Scope: this is a diagnostics port, not a web server. One listener thread
// accepts loopback-style scrape connections (curl, Prometheus), reads the
// request line, serves exactly three routes, and closes:
//
//   GET /metrics      Prometheus text exposition: every counter row,
//                     per-worker phase seconds, pool/transport queue
//                     depths, health-rule states - one block per rank.
//   GET /status.json  one JSON object: world size, uptime, and per-rank
//                     counter rows, incumbent objective, health rules,
//                     imbalance indices.
//   GET /healthz      "ok" liveness probe.
//
// The server renders from RankStatus values pulled through a Source
// callback on each request; the callback must stay valid until stop()
// returns. Each carries one telemetry Sample of the rank: built live per
// scrape while the search runs, then the rank's final Sample - the one its
// gather shipped - with search_active false, so a post-search scrape equals
// the final report on every counter. Each engine rank runs its own server
// on --status-port + rank, simulated or TCP (mirroring launch_local.sh's
// base-port + rank convention).

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/telemetry.hpp"

namespace yewpar::rt::statusd {

// Everything the endpoint reports about one rank, frozen at request time.
struct RankStatus {
  // The rank's counters. sample.searchActive is what the endpoint reports
  // as search_active: true until the rank serves its final Sample.
  telemetry::Sample sample;
  int world = 1;
  double uptimeSeconds = 0.0;

  struct RuleStatus {
    std::string name;
    bool enabled = false;
    bool firing = false;
    std::uint64_t firings = 0;
  };
  std::vector<RuleStatus> rules;
};

// Renderers, exposed for unit tests (they are pure functions of the input).
std::string renderMetrics(const std::vector<RankStatus>& ranks);
std::string renderStatusJson(const std::vector<RankStatus>& ranks);

class StatusServer {
 public:
  using Source = std::function<std::vector<RankStatus>()>;

  StatusServer() = default;
  ~StatusServer() { stop(); }

  StatusServer(const StatusServer&) = delete;
  StatusServer& operator=(const StatusServer&) = delete;

  // Bind 0.0.0.0:port and start serving. Port 0 binds an ephemeral port
  // (tests); port() returns the actual one. Throws TransportError if the
  // port cannot be bound - a typo'd --status-port should fail loudly, not
  // silently serve nothing.
  void start(std::uint16_t port, Source source);
  void stop();

  bool running() const { return running_.load(std::memory_order_relaxed); }
  std::uint16_t port() const { return port_; }

 private:
  void loop();
  void serveClient(int fd);

  int listenFd_ = -1;
  std::uint16_t port_ = 0;
  Source source_;  // set before the thread spawns, cleared after join
  std::atomic<bool> running_{false};
  std::thread thread_;  // touched only by the controlling thread
};

}  // namespace yewpar::rt::statusd
