// The live-observability layer (docs/ARCHITECTURE.md "Observability"):
// per-worker phase accounting (lap attribution, concurrent writers + a live
// snapshot reader - the CI TSan lane runs this suite), the imbalance-index
// math, the health rules' windows and warn rate limiting over hand-built
// Sample sequences (and probe-liveness on a manager shared with the
// termination leader), the embedded status endpoint's three routes against
// both a fake source and a live 2-locality engine run, the telemetry CSV's
// per-worker columns, the counter table (every row on every surface, its
// wire order, its merge), and the payload-layout handshake fence
// (`ctest -L net` selects it).

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/io.hpp"
#include "common/json.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"
#include "runtime/health.hpp"
#include "runtime/locality.hpp"
#include "runtime/profile.hpp"
#include "runtime/statusd.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/termination.hpp"
#include "runtime/transport/inproc.hpp"
#include "runtime/transport/tcp.hpp"
#include "runtime/transport/wire.hpp"

using namespace yewpar;
using namespace yewpar::rt;
using namespace yewpar::testing;
using namespace std::chrono_literals;

namespace {

// A counter row's /metrics family: yewpar_<name>_total for a sum,
// yewpar_<name> for a max.
std::string family(const Counter& c) {
  return std::string("yewpar_") + c.name +
         (c.kind == Counter::kSum ? "_total" : "");
}

}  // namespace

// ---- phase accounting -----------------------------------------------------

TEST(PhaseProfile, DisarmedLapIsFreeAndRecordsNothing) {
  ASSERT_FALSE(prof::enabled());
  prof::WorkerProfile w;
  prof::PhaseClock clock;
  clock.start();
  clock.lap(w, prof::Phase::kWorking);
  clock.lap(w, prof::Phase::kIdle);
  for (int p = 0; p < prof::kNumPhases; ++p) {
    EXPECT_EQ(w.get(static_cast<prof::Phase>(p)), 0u);
  }
}

TEST(PhaseProfile, LapsTileWallTimeWithoutNestingOrGaps) {
  prof::ArmScope armed;
  prof::WorkerProfile w;
  prof::PhaseClock clock;

  const auto t0 = prof::nowNanos();
  clock.start();
  std::this_thread::sleep_for(2ms);
  clock.lap(w, prof::Phase::kWorking);
  std::this_thread::sleep_for(2ms);
  clock.lap(w, prof::Phase::kStealing);
  std::this_thread::sleep_for(2ms);
  clock.lap(w, prof::Phase::kIdle);
  const auto outer = prof::nowNanos() - t0;

  // Every phase saw at least its sleep; the phases partition the clock's
  // span, so their sum can never exceed the outer wall around it.
  EXPECT_GE(w.get(prof::Phase::kWorking), 1'000'000u);
  EXPECT_GE(w.get(prof::Phase::kStealing), 1'000'000u);
  EXPECT_GE(w.get(prof::Phase::kIdle), 1'000'000u);
  EXPECT_EQ(w.get(prof::Phase::kPopping), 0u);
  std::uint64_t total = 0;
  for (int p = 0; p < prof::kNumPhases; ++p) {
    total += w.get(static_cast<prof::Phase>(p));
  }
  EXPECT_LE(total, outer);
  EXPECT_GE(total, outer / 2);  // laps cover the span, minus call overhead
}

TEST(PhaseProfile, ArmingMidRunRebasesInsteadOfBackcharging) {
  prof::WorkerProfile w;
  prof::PhaseClock clock;
  clock.start();  // disarmed: no base timestamp
  std::this_thread::sleep_for(2ms);
  prof::arm();
  // First lap after arming has no interval to close - it must re-base, not
  // charge the disarmed stretch to kWorking.
  clock.lap(w, prof::Phase::kWorking);
  EXPECT_EQ(w.get(prof::Phase::kWorking), 0u);
  clock.lap(w, prof::Phase::kWorking);
  EXPECT_GT(w.get(prof::Phase::kWorking), 0u);
  EXPECT_LT(w.get(prof::Phase::kWorking), 1'000'000'000u);
  prof::disarm();
  EXPECT_FALSE(prof::enabled());
}

TEST(PhaseProfile, ConcurrentWritersAndALiveSnapshotReader) {
  // Four workers lapping their own slots while the main thread snapshots
  // mid-flight, exactly as the telemetry tick and status endpoint do: TSan
  // (CI lane) checks the relaxed-atomic discipline, the arithmetic checks
  // accumulation is monotone and lands in the right slots.
  prof::ArmScope armed;
  constexpr int kWorkers = 4;
  prof::Profile profile(kWorkers);
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < kWorkers; ++t) {
    workers.emplace_back([&profile, &stop, t] {
      auto& slot = profile.worker(t);
      prof::PhaseClock clock;
      clock.start();
      while (!stop.load(std::memory_order_acquire)) {
        clock.lap(slot, prof::Phase::kWorking);
        std::this_thread::yield();
        clock.lap(slot, prof::Phase::kIdle);
      }
    });
  }

  std::uint64_t prevTotal = 0;
  for (int i = 0; i < 50; ++i) {
    const auto snap = profile.snapshot(/*rank=*/0, /*wallNanos=*/0);
    ASSERT_EQ(snap.workers.size(), static_cast<std::size_t>(kWorkers));
    std::uint64_t total = 0;
    for (const auto& w : snap.workers) total += w.total();
    EXPECT_GE(total, prevTotal);  // accumulators only ever grow
    prevTotal = total;
    std::this_thread::sleep_for(1ms);
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  const auto snap = profile.snapshot(0, 0);
  for (int t = 0; t < kWorkers; ++t) {
    EXPECT_GT(snap.workers[static_cast<std::size_t>(t)].total(), 0u)
        << "worker " << t << " recorded nothing";
  }
  // The manager slot was never touched.
  EXPECT_EQ(snap.manager.total(), 0u);
}

// ---- imbalance indices ----------------------------------------------------

namespace {

prof::ProfileSnapshot snapshotWithWork(
    const std::vector<std::uint64_t>& workNanos) {
  prof::ProfileSnapshot s;
  s.workers.resize(workNanos.size());
  for (std::size_t i = 0; i < workNanos.size(); ++i) {
    s.workers[i].nanos[static_cast<std::size_t>(prof::Phase::kWorking)] =
        workNanos[i];
  }
  return s;
}

}  // namespace

TEST(Imbalance, BalancedTeamScoresZero) {
  const auto s = snapshotWithWork({7'000, 7'000, 7'000, 7'000});
  EXPECT_DOUBLE_EQ(s.utilizationCV(), 0.0);
  EXPECT_DOUBLE_EQ(s.giniIndex(), 0.0);
}

TEST(Imbalance, DegenerateCasesScoreZero) {
  EXPECT_DOUBLE_EQ(snapshotWithWork({}).utilizationCV(), 0.0);
  EXPECT_DOUBLE_EQ(snapshotWithWork({}).giniIndex(), 0.0);
  EXPECT_DOUBLE_EQ(snapshotWithWork({0, 0}).utilizationCV(), 0.0);
  EXPECT_DOUBLE_EQ(snapshotWithWork({0, 0}).giniIndex(), 0.0);
}

TEST(Imbalance, OneHotTeamScoresTheClosedForms) {
  // One worker did everything: CV = sqrt(n-1), Gini = (n-1)/n = 1 - 1/n.
  const auto s = snapshotWithWork({4'000'000, 0, 0, 0});
  EXPECT_NEAR(s.utilizationCV(), std::sqrt(3.0), 1e-9);
  EXPECT_NEAR(s.giniIndex(), 0.75, 1e-9);
  EXPECT_DOUBLE_EQ(s.busyFraction(0), 1.0);  // wall falls back to total
  EXPECT_DOUBLE_EQ(s.busyFraction(1), 0.0);
  EXPECT_DOUBLE_EQ(s.busyFraction(9), 0.0);  // out of range: 0, not UB
}

TEST(Imbalance, SnapshotSerializationRoundTrips) {
  auto s = snapshotWithWork({1, 2, 3});
  s.rank = 5;
  s.wallNanos = 123456;
  s.manager.nanos[static_cast<std::size_t>(prof::Phase::kManager)] = 99;
  s.workers[1].wallNanos = 777;
  const auto back = fromBytes<prof::ProfileSnapshot>(toBytes(s));
  EXPECT_EQ(back.rank, 5);
  EXPECT_EQ(back.wallNanos, 123456u);
  ASSERT_EQ(back.workers.size(), 3u);
  EXPECT_EQ(back.workers[2].get(prof::Phase::kWorking), 3u);
  EXPECT_EQ(back.workers[1].wallNanos, 777u);
  EXPECT_EQ(back.manager.get(prof::Phase::kManager), 99u);
}

// ---- health rules ---------------------------------------------------------

namespace {

constexpr std::uint64_t kWindow = 10'000'000;  // 10ms between Samples

// Hand-built Sample sequences with synthetic timestamps: the rules read
// only the Samples they are given, so no clock, thread or sleep is needed.
struct Seq {
  telemetry::Sample cur;

  // A running one-worker search, just probed, no incumbent yet.
  Seq() {
    cur.tNanos = 1'000'000'000;
    cur.lastProbeNanos = cur.tNanos;
    cur.profile.workers.resize(1);
  }

  // Advance one window: the worker spends it idle (or working), the
  // termination detector probes, and `adjust` edits anything else about
  // the next Sample before the rules see it.
  void step(health::Rules& rules, bool idle,
            const std::function<void(telemetry::Sample&)>& adjust = {}) {
    const auto prev = cur;
    cur.tNanos += kWindow;
    const auto phase = idle ? prof::Phase::kIdle : prof::Phase::kWorking;
    cur.profile.workers[0].nanos[static_cast<std::size_t>(phase)] += kWindow;
    cur.lastProbeNanos = cur.tNanos;
    if (adjust) adjust(cur);
    rules.evaluate(prev, cur);
  }
};

// A cooldown longer than any sequence here: a second warning from one rule
// would be a firing bug.
health::Config quietConfig() {
  health::Config cfg;
  cfg.warnCooldown = std::chrono::minutes(10);
  return cfg;
}

}  // namespace

TEST(HealthRules, StarvationFiresOnceAfterNWindowsAndDoesNotRefire) {
  auto cfg = quietConfig();
  cfg.starvationWindows = 3;
  health::Rules rules(cfg);
  Seq seq;
  seq.step(rules, /*idle=*/true);
  seq.step(rules, true);
  EXPECT_FALSE(rules.firing(health::Rule::kStarvation)) << "2 of 3 windows";
  seq.step(rules, true);
  EXPECT_TRUE(rules.firing(health::Rule::kStarvation));
  for (int i = 0; i < 20; ++i) seq.step(rules, true);
  EXPECT_TRUE(rules.firing(health::Rule::kStarvation));
  EXPECT_EQ(rules.firings(health::Rule::kStarvation), 1u);
  EXPECT_EQ(rules.warningsEmitted(), 1u);
  EXPECT_EQ(rules.totalFirings(), 1u);
  EXPECT_FALSE(rules.firing(health::Rule::kStealStorm));
  EXPECT_FALSE(rules.firing(health::Rule::kStalledIncumbent));
  EXPECT_FALSE(rules.firing(health::Rule::kProbeLiveness));
}

TEST(HealthRules, FinishedSearchHoldsAllFire) {
  auto cfg = quietConfig();
  cfg.starvationWindows = 1;
  cfg.stallWarn = std::chrono::milliseconds(1);
  cfg.probeStale = std::chrono::milliseconds(1);
  cfg.stealStormFailedPerSec = 1.0;
  health::Rules rules(cfg);
  Seq seq;
  seq.cur.searchActive = false;
  seq.cur.objective = 7;
  for (int i = 0; i < 10; ++i) {
    // Every rule's condition holds: idle, no probes, a stale incumbent and
    // a flood of failed steals - but the search is over.
    seq.step(rules, true, [](telemetry::Sample& s) {
      s.lastProbeNanos = 1;
      s.metrics.failedSteals += 1000;
    });
  }
  EXPECT_EQ(rules.totalFirings(), 0u);
  EXPECT_EQ(rules.warningsEmitted(), 0u);
}

TEST(HealthRules, StalledIncumbentNeedsOptInAndAnIncumbent) {
  auto cfg = quietConfig();
  cfg.stallWarn = std::chrono::milliseconds(25);
  health::Rules noIncumbent(cfg);
  Seq a;
  for (int i = 0; i < 10; ++i) a.step(noIncumbent, false);
  EXPECT_EQ(noIncumbent.totalFirings(), 0u) << "no incumbent yet";

  health::Rules notOptedIn(quietConfig());  // stallWarn 0: rule off
  Seq b;
  b.cur.objective = 42;
  for (int i = 0; i < 10; ++i) b.step(notOptedIn, false);
  EXPECT_EQ(notOptedIn.totalFirings(), 0u);

  health::Rules rules(cfg);
  Seq c;
  c.cur.objective = 42;
  c.step(rules, false);
  c.step(rules, false, [](telemetry::Sample& s) { s.objective = 43; });
  c.step(rules, false);
  c.step(rules, false);
  EXPECT_FALSE(rules.firing(health::Rule::kStalledIncumbent))
      << "20ms since the improvement";
  c.step(rules, false);
  EXPECT_TRUE(rules.firing(health::Rule::kStalledIncumbent))
      << "30ms since the improvement";
  EXPECT_EQ(rules.firings(health::Rule::kStalledIncumbent), 1u);
  EXPECT_EQ(rules.totalFirings(), 1u);
}

TEST(HealthRules, StealStormFiresPastItsThreshold) {
  auto cfg = quietConfig();
  cfg.stealStormFailedPerSec = 1000.0;  // 10 per 10ms window
  health::Rules rules(cfg);
  Seq seq;
  seq.step(rules, false, [](telemetry::Sample& s) {
    s.metrics.failedSteals += 5;  // 500/s
  });
  EXPECT_FALSE(rules.firing(health::Rule::kStealStorm));
  seq.step(rules, false, [](telemetry::Sample& s) {
    s.metrics.failedSteals += 20;  // 2000/s
  });
  EXPECT_TRUE(rules.firing(health::Rule::kStealStorm));
  EXPECT_EQ(rules.firings(health::Rule::kStealStorm), 1u);
  EXPECT_EQ(rules.totalFirings(), 1u);
}

TEST(HealthRules, ProbeLivenessFiresPastItsThreshold) {
  auto cfg = quietConfig();
  cfg.probeStale = std::chrono::milliseconds(35);
  health::Rules rules(cfg);
  Seq seq;
  const auto lastProbe = seq.cur.tNanos;
  const auto silent = [lastProbe](telemetry::Sample& s) {
    s.lastProbeNanos = lastProbe;
  };
  for (int i = 0; i < 3; ++i) seq.step(rules, false, silent);
  EXPECT_FALSE(rules.firing(health::Rule::kProbeLiveness)) << "30ms silent";
  seq.step(rules, false, silent);
  EXPECT_TRUE(rules.firing(health::Rule::kProbeLiveness)) << "40ms silent";
  EXPECT_EQ(rules.firings(health::Rule::kProbeLiveness), 1u);

  // Before any probe at all, silence counts from the first window's start.
  health::Rules fresh(cfg);
  Seq never;
  const auto none = [](telemetry::Sample& s) { s.lastProbeNanos = 0; };
  for (int i = 0; i < 3; ++i) never.step(fresh, false, none);
  EXPECT_FALSE(fresh.firing(health::Rule::kProbeLiveness));
  never.step(fresh, false, none);
  EXPECT_TRUE(fresh.firing(health::Rule::kProbeLiveness));

  // It is rank 0's rule: only rank 0 runs the termination leader that
  // stamps, so another rank's silence is no symptom.
  health::Rules rank1(cfg, 1);
  Seq quiet;
  for (int i = 0; i < 10; ++i) quiet.step(rank1, false, none);
  EXPECT_FALSE(rank1.firing(health::Rule::kProbeLiveness));
  EXPECT_EQ(rank1.totalFirings(), 0u);
}

TEST(HealthRules, ProbeLivenessFiresOnRankZerosManagerWhenAPeerNeverReplies) {
  // The leader's rounds and the telemetry tick share rank 0's manager, as in
  // the engine. Rank 1's manager never starts, so the first round never
  // closes: rank 0 idles while its leader falls silent, and the tick's
  // windows must show it.
  InProcTransport net(2);
  Locality l0(net, 0);
  Locality l1(net, 1);  // never started
  TerminationDetector t0(l0, 2);
  auto cfg = quietConfig();
  cfg.probeStale = 50ms;
  health::Rules rules(cfg, /*rank=*/0);
  telemetry::Tick tick(0, /*healthIntervalMs=*/5, rules, [&t0] {
    telemetry::Sample s;
    s.tNanos = prof::nowNanos();
    s.searchActive = !t0.finished();
    s.lastProbeNanos = t0.lastProbeNanos();
    return s;
  });
  l0.addWakeHook([&tick] { return tick.poll(prof::nowNanos()); });
  l0.start();
  t0.taskCreated();  // the root, still running
  t0.startLeader();
  for (int i = 0; i < 2000 && !rules.firing(health::Rule::kProbeLiveness);
       ++i) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_TRUE(rules.firing(health::Rule::kProbeLiveness));
  EXPECT_EQ(rules.totalFirings(), 1u);
  EXPECT_FALSE(t0.finished());
  l0.stop();  // before the tick and the rules it polls go
}

TEST(HealthRules, RuleClearsSilently) {
  auto cfg = quietConfig();
  cfg.starvationWindows = 1;
  health::Rules rules(cfg);
  Seq seq;
  seq.step(rules, /*idle=*/true);
  ASSERT_TRUE(rules.firing(health::Rule::kStarvation));
  seq.step(rules, /*idle=*/false);  // work arrived
  EXPECT_FALSE(rules.firing(health::Rule::kStarvation));
  EXPECT_EQ(rules.firings(health::Rule::kStarvation), 1u);
  EXPECT_EQ(rules.warningsEmitted(), 1u) << "clearing prints nothing";
}

TEST(HealthRules, RefiringInsideTheCooldownIsCountedNotPrinted) {
  health::Config cfg;
  cfg.starvationWindows = 1;
  cfg.warnCooldown = std::chrono::milliseconds(50);
  health::Rules rules(cfg);
  Seq seq;
  seq.step(rules, true);   // t=10ms: fires, printed
  seq.step(rules, false);  // clears
  seq.step(rules, true);   // t=30ms: fires again inside the 50ms cooldown
  EXPECT_EQ(rules.firings(health::Rule::kStarvation), 2u);
  EXPECT_EQ(rules.warningsEmitted(), 1u);
  for (int i = 0; i < 4; ++i) seq.step(rules, false);
  seq.step(rules, true);   // t=80ms: 70ms after the last print
  EXPECT_EQ(rules.firings(health::Rule::kStarvation), 3u);
  EXPECT_EQ(rules.warningsEmitted(), 2u);
  EXPECT_EQ(rules.totalFirings(), 3u);
}

// ---- status endpoint: renderers -------------------------------------------

namespace {

std::vector<statusd::RankStatus> fakeRanks() {
  std::vector<statusd::RankStatus> ranks(2);
  for (int r = 0; r < 2; ++r) {
    auto& s = ranks[static_cast<std::size_t>(r)];
    s.world = 2;
    s.uptimeSeconds = 1.5;
    auto& smp = s.sample;
    smp.rank = r;
    smp.searchActive = (r == 0);
    smp.poolDepth = 7;
    smp.netQueued = 3;
    smp.metrics.nodesProcessed = 100u + static_cast<std::uint64_t>(r);
    smp.metrics.tasksSpawned = 10;
    smp.metrics.failedSteals = 2;
    smp.metrics.healthWarnings = static_cast<std::uint64_t>(r);
    smp.profile.workers.resize(2);
    smp.profile.workers[0]
        .nanos[static_cast<std::size_t>(prof::Phase::kWorking)] =
        2'000'000'000;  // 2s
    s.rules.push_back({"starvation", true, r == 1, r == 1 ? 1u : 0u});
    s.rules.push_back({"stalled-incumbent", false, false, 0});
  }
  ranks[0].sample.objective = -12;
  return ranks;
}

}  // namespace

TEST(StatusRender, MetricsIsPrometheusTextExposition) {
  const auto text = statusd::renderMetrics(fakeRanks());
  // Spot-check the counters a dashboard would alert on.
  EXPECT_NE(text.find("yewpar_nodes_processed_total{rank=\"0\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("yewpar_nodes_processed_total{rank=\"1\"} 101\n"),
            std::string::npos);
  EXPECT_NE(text.find("yewpar_failed_steals_total{rank=\"0\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("yewpar_health_warnings_total{rank=\"1\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("yewpar_incumbent_objective{rank=\"0\"} -12\n"),
            std::string::npos);
  EXPECT_EQ(text.find("yewpar_incumbent_objective{rank=\"1\"}"),
            std::string::npos);
  EXPECT_NE(
      text.find("yewpar_worker_phase_seconds_total{rank=\"0\",worker=\"0\""
                ",phase=\"working\"} 2.000000\n"),
      std::string::npos);
  EXPECT_NE(text.find("yewpar_health_rule_firing{rank=\"1\","
                      "rule=\"starvation\"} 1\n"),
            std::string::npos);

  // Structural sweep: every line is a comment or `name{labels} value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') continue;
    EXPECT_EQ(line.rfind("yewpar_", 0), 0u) << line;
    const auto brace = line.find('{');
    const auto close = line.find("} ");
    ASSERT_NE(brace, std::string::npos) << line;
    ASSERT_NE(close, std::string::npos) << line;
    EXPECT_LT(brace, close) << line;
    const auto value = line.substr(close + 2);
    EXPECT_FALSE(value.empty()) << line;
    char* end = nullptr;
    std::strtod(value.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable value in: " << line;
  }
  EXPECT_EQ(text.back(), '\n');
}

TEST(StatusRender, StatusJsonIsValidAndCarriesTheWorld) {
  const auto text = statusd::renderStatusJson(fakeRanks());
  EXPECT_TRUE(validJson(text)) << text;
  EXPECT_NE(text.find("\"world\": 2"), std::string::npos);
  EXPECT_NE(text.find("\"search_active\": true"), std::string::npos);
  EXPECT_NE(text.find("\"search_active\": false"), std::string::npos);
  EXPECT_NE(text.find("\"incumbent_objective\": -12"), std::string::npos);
  EXPECT_NE(text.find("\"incumbent_objective\": null"), std::string::npos);
  EXPECT_NE(text.find("\"rule\": \"starvation\""), std::string::npos);
  EXPECT_TRUE(validJson(statusd::renderStatusJson({}))) << "empty world";
}

TEST(StatusRender, LinesLongerThanAnyBufferRenderWhole) {
  // A line is as long as its labels make it: a 600-character rule name
  // must reach both renderers whole, not cut short and followed by
  // whatever lay past a fixed-size buffer.
  auto ranks = fakeRanks();
  const std::string name(600, 'x');
  ranks[1].rules.push_back({name, true, true, 4});
  const auto metrics = statusd::renderMetrics(ranks);
  const auto json = statusd::renderStatusJson(ranks);
  EXPECT_NE(metrics.find("rule=\"" + name + "\"} 1\n"), std::string::npos);
  EXPECT_NE(metrics.find("rule=\"" + name + "\"} 4\n"), std::string::npos);
  EXPECT_NE(json.find("\"rule\": \"" + name + "\", \"enabled\": true"),
            std::string::npos);
  EXPECT_EQ(metrics.find('\0'), std::string::npos);
  EXPECT_EQ(json.find('\0'), std::string::npos);
  EXPECT_TRUE(validJson(json));
}

// ---- status endpoint: server ----------------------------------------------

namespace {

// A one-shot HTTP/1.0 GET (or arbitrary request line): returns the full
// response (headers + body), or nullopt if the connection failed.
std::optional<std::string> httpRequest(std::uint16_t port,
                                       const std::string& requestLine) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return std::nullopt;
  }
  const std::string req = requestLine + "\r\n\r\n";
  if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    ::close(fd);
    return std::nullopt;
  }
  std::string out;
  char buf[4096];
  for (;;) {
    const auto r = ::recv(fd, buf, sizeof(buf), 0);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    out.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return out;
}

std::optional<std::string> httpGet(std::uint16_t port,
                                   const std::string& path) {
  return httpRequest(port, "GET " + path + " HTTP/1.0");
}

std::string bodyOf(const std::string& response) {
  const auto sep = response.find("\r\n\r\n");
  return sep == std::string::npos ? std::string() : response.substr(sep + 4);
}

// The values of every `<family>{...} value` line, in order: one per rank
// when the body concatenates each rank's scrape.
std::vector<std::uint64_t> scraped(const std::string& metrics,
                                   const std::string& familyName) {
  std::vector<std::uint64_t> values;
  std::istringstream lines(metrics);
  std::string line;
  const std::string prefix = familyName + "{";
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto sp = line.find("} ");
    if (sp == std::string::npos) continue;
    values.push_back(std::strtoull(line.c_str() + sp + 2, nullptr, 10));
  }
  return values;
}

}  // namespace

TEST(StatusServer, ServesAllThreeRoutesAndRejectsTheRest) {
  statusd::StatusServer server;
  server.start(/*port=*/0, fakeRanks);  // ephemeral port
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);

  const auto healthz = httpGet(server.port(), "/healthz");
  ASSERT_TRUE(healthz.has_value());
  EXPECT_NE(healthz->find("200 OK"), std::string::npos);
  EXPECT_EQ(bodyOf(*healthz), "ok\n");

  const auto metrics = httpGet(server.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_NE(metrics->find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(bodyOf(*metrics).find("yewpar_nodes_processed_total"),
            std::string::npos);

  const auto status = httpGet(server.port(), "/status.json");
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("application/json"), std::string::npos);
  EXPECT_TRUE(validJson(bodyOf(*status))) << bodyOf(*status);

  const auto missing = httpGet(server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_NE(missing->find("404"), std::string::npos);

  const auto post = httpRequest(server.port(), "POST /metrics HTTP/1.0");
  ASSERT_TRUE(post.has_value());
  EXPECT_NE(post->find("405"), std::string::npos);

  server.stop();
  EXPECT_FALSE(server.running());
  // A stopped server is restartable on a fresh port.
  server.start(0, fakeRanks);
  EXPECT_TRUE(server.running());
  server.stop();
}

// ---- status endpoint: live engine run -------------------------------------

TEST(StatusServer, LiveSimRunServesTheFinalGatherTotals) {
  // A 2-locality sim run lingers after the gather, each rank on its own
  // port (P + rank); the scrapes taken once both ranks' /status.json report
  // the search inactive must sum to the Outcome - the acceptance criterion
  // that /metrics and the final report are two views of one set of
  // counters.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto port = nextPortBase(46000, 4);
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 3;
    p.statusPort = port;
    p.statusLingerMs = 500;
    p.healthIntervalMs = 20;

    // Big enough (~350k nodes) that team wall dwarfs thread spawn/join
    // overhead, keeping the phase-tiling assertion below robust.
    const SynthSpace space{4, 9};
    const SynthNode root{0, 1};
    using Result =
        decltype(skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::
                     search(p, space, root));
    std::exception_ptr err;
    std::optional<Result> res;
    std::thread run([&] {
      try {
        res = skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::
            search(p, space, root);
      } catch (...) {
        err = std::current_exception();
      }
    });

    // Poll until both ranks report the search inactive, which each does
    // only once its worker team has joined and its counters are final.
    std::string statusBody;  // rank 0's
    std::string rank1Status;
    bool quiesced = false;
    const auto deadline = std::chrono::steady_clock::now() + 15s;
    while (!quiesced && std::chrono::steady_clock::now() < deadline) {
      quiesced = true;
      for (int rank = 0; rank < 2 && quiesced; ++rank) {
        const auto resp =
            httpGet(static_cast<std::uint16_t>(port + rank), "/status.json");
        quiesced = resp.has_value() &&
                   resp->find("200 OK") != std::string::npos &&
                   bodyOf(*resp).find("\"search_active\": false") !=
                       std::string::npos;
        if (quiesced) (rank == 0 ? statusBody : rank1Status) = bodyOf(*resp);
      }
      if (!quiesced) std::this_thread::sleep_for(10ms);
    }

    std::string metricsBody;
    if (quiesced) {
      const auto healthz = httpGet(port, "/healthz");
      EXPECT_TRUE(healthz.has_value() &&
                  healthz->find("200 OK") != std::string::npos);
      for (int rank = 0; rank < 2; ++rank) {
        const auto metrics =
            httpGet(static_cast<std::uint16_t>(port + rank), "/metrics");
        if (metrics.has_value()) metricsBody += bodyOf(*metrics);
      }
    }
    run.join();
    if (err) continue;  // port collision with another process: retry

    ASSERT_TRUE(res.has_value());
    EXPECT_TRUE(res->complete);
    ASSERT_FALSE(metricsBody.empty())
        << "status endpoint never reported the search finished";
    EXPECT_TRUE(validJson(statusBody)) << statusBody;
    EXPECT_NE(statusBody.find("\"world\": 2"), std::string::npos);
    // Probe-liveness is rank 0's rule: rank 1 shows it disabled.
    const std::string probeRule =
        "\"rule\": \"probe-liveness\", \"enabled\": ";
    EXPECT_NE(statusBody.find(probeRule + "true"), std::string::npos);
    EXPECT_NE(rank1Status.find(probeRule + "false"), std::string::npos)
        << rank1Status;

    // The scrapes happened after both ranks published their final Sample,
    // the one each rank's gather shipped: merging the per-rank exposition
    // lines of both ports reproduces the final report exactly on every
    // counter row - including the transport counters, which a rank's
    // gather reply itself bumps after its snapshot. Sum rows add across
    // ranks; the max row's merge keeps the larger.
    for (const auto& c : kCounters) {
      const auto values = scraped(metricsBody, family(c));
      ASSERT_EQ(values.size(), 2u) << c.name;
      const std::uint64_t merged = c.kind == Counter::kSum
                                       ? values[0] + values[1]
                                       : std::max(values[0], values[1]);
      EXPECT_EQ(merged, res->metrics.*c.field) << c.name;
    }

    // The outcome carries one phase snapshot per locality. Each worker's
    // phases must tile its own independently stamped wall (a gap means a
    // loop path forgot to lap, an overshoot means double-charging); the
    // worker wall in turn fits inside the team wall. The team wall itself
    // is not a per-worker denominator here: on an oversubscribed box the
    // OS can stagger thread starts/exits by a large fraction of the run.
    ASSERT_EQ(res->profiles.size(), 2u);
    for (const auto& snap : res->profiles) {
      ASSERT_EQ(snap.workers.size(), 2u);
      ASSERT_GT(snap.wallNanos, 0u);
      for (const auto& w : snap.workers) {
        ASSERT_GT(w.wallNanos, 0u);
        EXPECT_LT(static_cast<double>(w.wallNanos),
                  1.02 * static_cast<double>(snap.wallNanos))
            << "a worker's wall cannot exceed its team's";
        const double cover = static_cast<double>(w.total()) /
                             static_cast<double>(w.wallNanos);
        EXPECT_GT(cover, 0.98) << "phases must tile the worker's wall";
        EXPECT_LT(cover, 1.02);
      }
    }
    return;
  }
  FAIL() << "no live status-endpoint run succeeded (ports exhausted?)";
}

TEST(StatusServer, SimRankWithATakenPortAbortsTheRunNamingIt) {
  // Rank r of a simulated run serves --status-port + r. With rank 1's port
  // already bound, rank 1 fails at startup; the fabric declares it dead,
  // rank 0 aborts through the same peer-failure path a dead TCP peer takes,
  // and the run throws naming rank 1 - within seconds, never after the
  // gather timeout or a hang.
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto port = nextPortBase(46000, 4);
    statusd::StatusServer blocker;
    try {
      blocker.start(static_cast<std::uint16_t>(port + 1), fakeRanks);
    } catch (const TransportError&) {
      continue;  // held by another process: try the next block
    }
    Params p;
    p.nLocalities = 2;
    p.workersPerLocality = 2;
    p.dcutoff = 3;
    p.statusPort = port;

    const auto t0 = std::chrono::steady_clock::now();
    std::string error;
    try {
      skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
          p, SynthSpace{3, 7}, SynthNode{0, 1});
    } catch (const std::exception& e) {
      error = e.what();
    }
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    // Rank 0's own port held by another process: try the next block.
    if (error.find("port " + std::to_string(port) + ":") !=
        std::string::npos) {
      continue;
    }
    EXPECT_NE(error.find("rank 1 died"), std::string::npos) << error;
    EXPECT_NE(error.find("port " + std::to_string(port + 1)),
              std::string::npos)
        << error;
    EXPECT_LT(elapsed, 10s);
    return;
  }
  FAIL() << "no attempt could bind a blocker port";
}

TEST(StatusServer, SimRankPastPort65535AbortsTheRunNamingIt) {
  // --status-port 65535 puts rank 1 on port 65536, which a 16-bit port
  // would wrap to 0 (a random ephemeral port, silently). Rank 1 refuses to
  // start instead, and the run aborts naming it and its port.
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 1;
  p.dcutoff = 3;
  p.statusPort = 65535;
  const auto t0 = std::chrono::steady_clock::now();
  std::string error;
  try {
    skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
        p, SynthSpace{3, 7}, SynthNode{0, 1});
  } catch (const std::exception& e) {
    error = e.what();
  }
  if (error.find("cannot listen on port 65535") != std::string::npos) {
    GTEST_SKIP() << "port 65535 is held by another process: " << error;
  }
  EXPECT_NE(error.find("rank 1 died"), std::string::npos) << error;
  EXPECT_NE(error.find("port 65536"), std::string::npos) << error;
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
}

// ---- sampler CSV: per-worker columns --------------------------------------

TEST(SamplerCsv, EmitsPerWorkerBusyIdleColumns) {
  TempFile out("test_observability_csv");
  std::vector<telemetry::Sample> rows(2);
  rows[0].tNanos = 1'000'000;
  rows[0].rank = 0;
  rows[0].profile.workers.resize(2);
  rows[0].profile.workers[0]
      .nanos[static_cast<std::size_t>(prof::Phase::kWorking)] = 100;
  rows[0].profile.workers[0]
      .nanos[static_cast<std::size_t>(prof::Phase::kIdle)] = 25;
  rows[0].profile.workers[1]
      .nanos[static_cast<std::size_t>(prof::Phase::kStealing)] = 50;
  rows[1].tNanos = 2'000'000;
  rows[1].rank = 1;  // no profile: columns pad with zeros

  telemetry::writeCsv(out.path, rows);
  const auto text = slurp(out.path);
  EXPECT_NE(text.find(",w0_busy_ns,w0_idle_ns,w1_busy_ns,w1_idle_ns\n"),
            std::string::npos);
  // busy = working + popping + stealing (everything but idle).
  EXPECT_NE(text.find(",100,25,50,0\n"), std::string::npos);
  EXPECT_NE(text.find(",0,0,0,0\n"), std::string::npos);
}

TEST(SamplerCsv, UnwritableRankCsvFailsTheRunNamingRankAndPath) {
  // Rank 1 cannot write its CSV after the search, so it dies before its
  // gather reply and rank 0's gather fails naming it. Rank 0 stops its
  // manager before unwinding, whose handlers and wake hook read the frame
  // and the rank's state.
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 1;
  p.sampleIntervalMs = 5;
  p.sampleCsv = "/nonexistent-dir/t.csv";
  std::string error;
  try {
    skeletons::Budget<SynthGen, Enumeration<CountAll>>::search(
        p, SynthSpace{3, 7}, SynthNode{0, 1});
  } catch (const std::exception& e) {
    error = e.what();
  }
  EXPECT_NE(error.find("rank 1 died"), std::string::npos) << error;
  EXPECT_NE(error.find("/nonexistent-dir/t.csv.rank1"), std::string::npos)
      << error;
}

// ---- the counter table -----------------------------------------------------

namespace {

// Row i holds 1000 + i and bucket b holds 5000 + b, so every value names
// the one field it came from.
MetricsSnapshot distinctSnapshot() {
  MetricsSnapshot m;
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    m.*kCounters[i].field = 1000 + i;
  }
  for (std::size_t b = 0; b < m.netLatencyHist.size(); ++b) {
    m.netLatencyHist[b] = 5000 + b;
  }
  return m;
}

std::size_t occurrences(const std::string& text, const std::string& what) {
  std::size_t n = 0;
  for (auto at = text.find(what); at != std::string::npos;
       at = text.find(what, at + 1)) {
    ++n;
  }
  return n;
}

std::vector<std::string> csvCells(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

}  // namespace

TEST(CounterTable, EveryRowReachesEverySurface) {
  // Each surface names every counter row once, under the row's one name,
  // with that row's value.
  statusd::RankStatus status;
  status.sample.metrics = distinctSnapshot();
  const std::vector<statusd::RankStatus> ranks{status};
  const auto metrics = statusd::renderMetrics(ranks);
  const auto json = statusd::renderStatusJson(ranks);
  EXPECT_TRUE(validJson(json)) << json;

  TempFile out("test_observability_counters");
  telemetry::writeCsv(out.path, {status.sample});
  std::istringstream csv(slurp(out.path));
  std::string headerLine;
  std::string rowLine;
  std::getline(csv, headerLine);
  std::getline(csv, rowLine);
  const auto header = csvCells(headerLine);
  const auto row = csvCells(rowLine);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(headerLine.rfind("t_ms,rank,pool_depth,net_queued,"
                             "net_queued_max_link,",
                             0),
            0u);

  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    const auto& c = kCounters[i];
    const std::string name = c.name;
    const std::string value = std::to_string(1000 + i);
    const std::string fam = family(c);
    const char* type = c.kind == Counter::kSum ? "counter" : "gauge";
    EXPECT_EQ(occurrences(metrics, "# TYPE " + fam + " " + type + "\n"), 1u)
        << name;
    EXPECT_EQ(occurrences(metrics, "\n" + fam + "{"), 1u) << name;
    EXPECT_EQ(occurrences(metrics, "\n" + fam + "{rank=\"0\"} " + value +
                                       "\n"),
              1u)
        << name;
    EXPECT_EQ(occurrences(json, "\"" + name + "\": "), 1u) << name;
    EXPECT_EQ(occurrences(json, "\"" + name + "\": " + value + ","), 1u)
        << name;
    EXPECT_EQ(std::count(header.begin(), header.end(), name), 1) << name;
    const auto col = std::find(header.begin(), header.end(), name);
    ASSERT_NE(col, header.end()) << name;
    EXPECT_EQ(row[static_cast<std::size_t>(col - header.begin())], value)
        << name;
  }
}

TEST(CounterTable, WireOrderIsTheFieldOrder) {
  // The gather's payload layout (wire::kPayloadLayoutVersion 4), written
  // out field by field: a row moved in the table would change the wire
  // without a layout bump, and fails here instead.
  const auto m = distinctSnapshot();
  OArchive expected;
  expected << m.nodesProcessed << m.tasksSpawned << m.prunes << m.backtracks
           << m.localSteals << m.remoteSteals << m.failedSteals
           << m.stealReplies << m.boundBroadcasts << m.boundUpdatesApplied
           << m.poolLockContentions << m.healthWarnings << m.networkMessages
           << m.networkBytes << m.networkFrames << m.networkBatched
           << m.networkImmediate << m.networkSpills << m.networkHeartbeats
           << m.linkQueueHighWater;
  for (auto b : m.netLatencyHist) expected << b;
  const auto bytes = toBytes(m);
  EXPECT_EQ(bytes, expected.bytes());

  const auto back = fromBytes<MetricsSnapshot>(bytes);
  for (const auto& c : kCounters) {
    EXPECT_EQ(back.*c.field, m.*c.field) << c.name;
  }
  EXPECT_EQ(back.netLatencyHist, m.netLatencyHist);
}

TEST(CounterTable, MergeAddsSumRowsAndKeepsTheLargerMax) {
  auto a = distinctSnapshot();
  auto b = distinctSnapshot();
  for (const auto& c : kCounters) b.*c.field += 1;
  a += b;
  for (std::size_t i = 0; i < std::size(kCounters); ++i) {
    const auto& c = kCounters[i];
    const std::uint64_t v = 1000 + i;
    EXPECT_EQ(a.*c.field, c.kind == Counter::kSum ? v + v + 1 : v + 1)
        << c.name;
  }
  for (std::size_t k = 0; k < a.netLatencyHist.size(); ++k) {
    EXPECT_EQ(a.netLatencyHist[k], 2 * (5000 + k));
  }
}

// ---- wire fence -----------------------------------------------------------

namespace {

// Multiplicative inverse of the FNV-1a prime mod 2^32 (Newton iteration:
// each step doubles the valid bits; odd a starts correct mod 8).
constexpr std::uint32_t fnvPrimeInverse() {
  constexpr std::uint32_t a = 16777619u;
  std::uint32_t x = a;
  for (int i = 0; i < 5; ++i) x *= 2u - a * x;
  return x;
}
static_assert(fnvPrimeInverse() * 16777619u == 1u);

// The protocol version a build with a different payload-layout revision
// would present: unmix our layout from the hash, mix theirs back in.
constexpr std::uint32_t versionWithLayout(std::uint32_t layout) {
  const std::uint32_t tagsHash =
      (wire::protocolVersion() * fnvPrimeInverse()) ^
      wire::kPayloadLayoutVersion;
  return (tagsHash ^ layout) * 16777619u;
}
static_assert(versionWithLayout(wire::kPayloadLayoutVersion) ==
              wire::protocolVersion());

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

}  // namespace

TEST(Wire, PreProfileBuildIsRefusedAtHandshake) {
  // The GatherMsg/MetricsSnapshot layouts are at revision 4 (the trace
  // batch rides GatherMsg); a revision-3 binary (same tag table) must be
  // fenced off by the exchange every mesh connection opens with.
  EXPECT_EQ(wire::kPayloadLayoutVersion, 4u);
  ASSERT_NE(versionWithLayout(3), wire::protocolVersion());

  SocketPair sp;
  wire::Handshake h;
  h.version = versionWithLayout(3);
  h.world = 2;
  const auto bytes = h.encode();
  ASSERT_EQ(::send(sp.a, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  try {
    tryExchangeHandshake(sp.b, /*rank=*/0, /*world=*/2, 1000ms);
    FAIL() << "expected a version-mismatch TransportError";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("version mismatch"),
              std::string::npos)
        << e.what();
  }
}
