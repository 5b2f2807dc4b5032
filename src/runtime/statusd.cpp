#include "runtime/statusd.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "runtime/transport/transport.hpp"

namespace yewpar::rt::statusd {

namespace {

// Write exactly n bytes. MSG_NOSIGNAL so a scraper that hangs up early
// surfaces as EPIPE here instead of a process-wide SIGPIPE (same idiom as
// tcp.cpp's writeFull).
bool writeFull(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const auto w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Read until the end of the request line (we never need more: HTTP/1.0,
// no bodies). Bounded buffer and a short poll deadline keep a stuck or
// malicious client from pinning the listener thread.
bool readRequestLine(int fd, std::string& line) {
  char buf[1024];
  std::size_t got = 0;
  for (int slice = 0; slice < 20; ++slice) {  // <= 2s total
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (pr == 0) continue;
    const auto r = ::recv(fd, buf + got, sizeof(buf) - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    got += static_cast<std::size_t>(r);
    const char* nl = static_cast<const char*>(std::memchr(buf, '\n', got));
    if (nl != nullptr) {
      line.assign(buf, static_cast<std::size_t>(nl - buf));
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return true;
    }
    if (got == sizeof(buf)) return false;  // request line absurdly long
  }
  return false;
}

void respond(int fd, const char* status, const char* contentType,
             const std::string& body) {
  char head[256];
  const int n = std::snprintf(head, sizeof head,
                              "HTTP/1.0 %s\r\n"
                              "Content-Type: %s\r\n"
                              "Content-Length: %zu\r\n"
                              "Connection: close\r\n"
                              "\r\n",
                              status, contentType, body.size());
  if (!writeFull(fd, head, static_cast<std::size_t>(n))) return;
  writeFull(fd, body.data(), body.size());
}

void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Measures the line first, then formats it in place, so a line of any
// length (a long rule name) lands whole.
void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list measure;
  va_copy(measure, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (n > 0) {
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n));
    // n + 1: vsnprintf's closing NUL overwrites the string's own.
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1, fmt,
                   ap);
  }
  va_end(ap);
}

// A counter row's /metrics suffix: sums are Prometheus counters, so they
// carry _total; a max row is a gauge.
const char* totalSuffix(const Counter& c) {
  return c.kind == Counter::kSum ? "_total" : "";
}

}  // namespace

std::string renderMetrics(const std::vector<RankStatus>& ranks) {
  std::string out;
  out.reserve(4096);
  for (const auto& c : kCounters) {
    appendf(out, "# TYPE yewpar_%s%s %s\n", c.name, totalSuffix(c),
            c.kind == Counter::kSum ? "counter" : "gauge");
  }
  out +=
      "# TYPE yewpar_worker_phase_seconds_total counter\n"
      "# TYPE yewpar_pool_depth gauge\n"
      "# TYPE yewpar_health_rule_firing gauge\n"
      "# TYPE yewpar_health_rule_firings_total counter\n";
  for (const auto& r : ranks) {
    const auto& m = r.sample.metrics;
    const auto& profile = r.sample.profile;
    const int rank = r.sample.rank;
    appendf(out, "yewpar_uptime_seconds{rank=\"%d\"} %.3f\n", rank,
            r.uptimeSeconds);
    appendf(out, "yewpar_search_active{rank=\"%d\"} %d\n", rank,
            r.sample.searchActive ? 1 : 0);
    for (const auto& c : kCounters) {
      appendf(out, "yewpar_%s%s{rank=\"%d\"} %" PRIu64 "\n", c.name,
              totalSuffix(c), rank, m.*c.field);
    }
    appendf(out, "yewpar_pool_depth{rank=\"%d\"} %" PRIu64 "\n", rank,
            r.sample.poolDepth);
    appendf(out, "yewpar_net_queue_depth{rank=\"%d\"} %" PRIu64 "\n", rank,
            r.sample.netQueued);
    if (r.sample.objective) {
      appendf(out, "yewpar_incumbent_objective{rank=\"%d\"} %" PRId64 "\n",
              rank, *r.sample.objective);
    }
    for (std::size_t w = 0; w < profile.workers.size(); ++w) {
      for (int p = 0; p < prof::kNumPhases - 1; ++p) {  // workers: no kManager
        appendf(out,
                "yewpar_worker_phase_seconds_total{rank=\"%d\",worker=\"%zu\""
                ",phase=\"%s\"} %.6f\n",
                rank, w, prof::phaseName(static_cast<prof::Phase>(p)),
                static_cast<double>(profile.workers[w].nanos
                                        [static_cast<std::size_t>(p)]) /
                    1e9);
      }
    }
    appendf(out,
            "yewpar_worker_phase_seconds_total{rank=\"%d\",worker=\"mgr\""
            ",phase=\"manager\"} %.6f\n",
            rank,
            static_cast<double>(profile.manager.get(
                prof::Phase::kManager)) /
                1e9);
    appendf(out, "yewpar_worker_imbalance_cv{rank=\"%d\"} %.6f\n", rank,
            profile.utilizationCV());
    appendf(out, "yewpar_worker_imbalance_gini{rank=\"%d\"} %.6f\n", rank,
            profile.giniIndex());
    for (const auto& rule : r.rules) {
      appendf(out,
              "yewpar_health_rule_firing{rank=\"%d\",rule=\"%s\"} %d\n",
              rank, rule.name.c_str(), rule.firing ? 1 : 0);
      appendf(out,
              "yewpar_health_rule_firings_total{rank=\"%d\",rule=\"%s\"} "
              "%" PRIu64 "\n",
              rank, rule.name.c_str(), rule.firings);
    }
  }
  return out;
}

std::string renderStatusJson(const std::vector<RankStatus>& ranks) {
  std::string out = "{";
  appendf(out, "\"world\": %d, \"ranks\": [",
          ranks.empty() ? 0 : ranks.front().world);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    const auto& r = ranks[i];
    const auto& smp = r.sample;
    if (i != 0) out += ", ";
    out += "{";
    appendf(out, "\"rank\": %d, ", smp.rank);
    appendf(out, "\"uptime_seconds\": %.3f, ", r.uptimeSeconds);
    appendf(out, "\"search_active\": %s, ",
            smp.searchActive ? "true" : "false");
    if (smp.objective) {
      appendf(out, "\"incumbent_objective\": %" PRId64 ", ", *smp.objective);
    } else {
      out += "\"incumbent_objective\": null, ";
    }
    for (const auto& c : kCounters) {
      appendf(out, "\"%s\": %" PRIu64 ", ", c.name, smp.metrics.*c.field);
    }
    appendf(out, "\"pool_depth\": %" PRIu64 ", ", smp.poolDepth);
    appendf(out, "\"net_queued\": %" PRIu64 ", ", smp.netQueued);
    appendf(out, "\"workers\": %zu, ", smp.profile.workers.size());
    appendf(out, "\"imbalance_cv\": %.6f, ", smp.profile.utilizationCV());
    appendf(out, "\"imbalance_gini\": %.6f, ", smp.profile.giniIndex());
    out += "\"health\": [";
    for (std::size_t j = 0; j < r.rules.size(); ++j) {
      const auto& rule = r.rules[j];
      if (j != 0) out += ", ";
      appendf(out,
              "{\"rule\": \"%s\", \"enabled\": %s, \"firing\": %s, "
              "\"firings\": %" PRIu64 "}",
              rule.name.c_str(), rule.enabled ? "true" : "false",
              rule.firing ? "true" : "false", rule.firings);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

void StatusServer::start(std::uint16_t port, Source source) {
  if (running_.load(std::memory_order_relaxed)) return;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw TransportError(std::string("statusd: socket: ") +
                         std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw TransportError("statusd: cannot listen on port " +
                         std::to_string(port) + ": " + err);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  listenFd_ = fd;
  source_ = std::move(source);
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void StatusServer::loop() {
  while (running_.load(std::memory_order_relaxed)) {
    pollfd pfd{listenFd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr <= 0) continue;  // timeout (re-check running_), or EINTR
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Serve inline: scrape traffic is one request per interval, and an
    // inline serve keeps the thread count and lock surface at one.
    serveClient(fd);
    ::close(fd);
  }
}

void StatusServer::serveClient(int fd) {
  std::string line;
  if (!readRequestLine(fd, line)) return;
  // "GET /path HTTP/1.x" - we only route on the first two tokens.
  const auto sp1 = line.find(' ');
  if (sp1 == std::string::npos || line.substr(0, sp1) != "GET") {
    respond(fd, "405 Method Not Allowed", "text/plain", "GET only\n");
    return;
  }
  const auto sp2 = line.find(' ', sp1 + 1);
  const std::string path = line.substr(
      sp1 + 1, sp2 == std::string::npos ? std::string::npos : sp2 - sp1 - 1);
  if (path == "/healthz") {
    respond(fd, "200 OK", "text/plain", "ok\n");
  } else if (path == "/metrics") {
    respond(fd, "200 OK", "text/plain; version=0.0.4",
            renderMetrics(source_()));
  } else if (path == "/status.json") {
    respond(fd, "200 OK", "application/json",
            renderStatusJson(source_()) + "\n");
  } else {
    respond(fd, "404 Not Found", "text/plain", "unknown path\n");
  }
}

void StatusServer::stop() {
  if (!running_.load(std::memory_order_relaxed)) return;
  running_.store(false, std::memory_order_relaxed);
  if (thread_.joinable()) thread_.join();
  ::close(listenFd_);
  listenFd_ = -1;
  source_ = nullptr;
}

}  // namespace yewpar::rt::statusd
