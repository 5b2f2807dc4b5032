// The observability layer (docs/ARCHITECTURE.md "Observability"): per-thread
// trace ring buffers (overflow-drop accounting, concurrent writers - the CI
// TSan lane runs this suite), Chrome trace_event JSON export well-formedness
// and its exact text for one event of every kind, the telemetry tick's
// start/stop contract and CSV, and a full 2-rank loopback-TCP engine run
// whose merged trace on rank 0 must carry events from BOTH ranks
// (`ctest -L net` selects it).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/uts/uts.hpp"
#include "common/io.hpp"
#include "common/json.hpp"
#include "common/synth.hpp"
#include "core/yewpar.hpp"
#include "runtime/health.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/trace.hpp"

using namespace yewpar;
using namespace yewpar::rt;
using namespace yewpar::testing;
using namespace std::chrono_literals;

// ---- ring buffers ---------------------------------------------------------

TEST(TraceRing, DisabledByDefaultAndRecordIsANoOp) {
  ASSERT_FALSE(trace::enabled());
  trace::record(trace::Ev::kTaskRunBegin, 0, 1, 2);  // must not crash
  trace::nameThread("ghost");
}

TEST(TraceRing, OverflowDropsNewEventsAndCountsThem) {
  trace::session().begin(/*capacityPerThread=*/64);
  for (std::uint64_t i = 0; i < 200; ++i) {
    trace::record(trace::Ev::kPoolPush, 0, i, i);
  }
  auto batch = trace::session().collect(-1);
  trace::session().end();

  ASSERT_EQ(batch.events.size(), 64u);
  EXPECT_EQ(batch.dropped, 136u);
  // Drop-new keeps the OLDEST events: the prefix of the run, in order.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(batch.events[i].a, i);
  }
}

TEST(TraceRing, ConcurrentWritersAccountForEveryEvent) {
  // Four writers hammering their own buffers while the main thread harvests
  // mid-flight: TSan (CI lane) checks the release/acquire discipline; the
  // arithmetic checks nothing is lost or double-counted.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 5000;
  constexpr std::size_t kCapacity = 1024;  // force drops on every thread

  trace::session().begin(kCapacity);
  std::atomic<bool> go{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&go, t] {
      while (!go.load(std::memory_order_acquire)) {
      }
      trace::nameThread("writer" + std::to_string(t));
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        trace::record(trace::Ev::kPoolPush, t, i,
                      static_cast<std::uint64_t>(t));
      }
    });
  }
  go.store(true, std::memory_order_release);

  // Concurrent harvest: a valid prefix, never more than written so far.
  const auto midFlight = trace::session().collect(-1);
  EXPECT_LE(midFlight.events.size(), kThreads * kCapacity);
  for (const auto& e : midFlight.events) {
    EXPECT_EQ(static_cast<trace::Ev>(e.kind), trace::Ev::kPoolPush);
  }

  for (auto& w : writers) w.join();
  auto batch = trace::session().collect(-1);
  trace::session().end();

  EXPECT_EQ(batch.events.size() + batch.dropped, kThreads * kPerThread);
  EXPECT_EQ(batch.events.size(), kThreads * kCapacity);
  // Each writer's kept events are its own prefix, in program order.
  for (int t = 0; t < kThreads; ++t) {
    std::uint64_t expect = 0;
    for (const auto& e : batch.events) {
      if (e.b != static_cast<std::uint64_t>(t)) continue;
      EXPECT_EQ(e.a, expect++);
    }
    EXPECT_EQ(expect, kCapacity);
  }
}

TEST(TraceRing, DroppedEventsAreCountedOncePerRank) {
  // Two threads overflow their buffers recording for ranks 0 and 1; each
  // rank's batch must report only its own drops, so summing the batches of
  // one in-process multi-rank run counts every drop exactly once.
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint64_t kPerRank[2] = {20, 33};
  trace::session().begin(kCapacity);
  std::vector<std::thread> writers;
  for (int rank = 0; rank < 2; ++rank) {
    writers.emplace_back([rank, &kPerRank] {
      for (std::uint64_t i = 0; i < kPerRank[rank]; ++i) {
        trace::record(trace::Ev::kPoolPush, rank, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  const auto rank0 = trace::session().collect(0);
  const auto rank1 = trace::session().collect(1);
  const auto all = trace::session().collect(-1);
  trace::session().end();

  EXPECT_EQ(rank0.dropped, kPerRank[0] - kCapacity);
  EXPECT_EQ(rank1.dropped, kPerRank[1] - kCapacity);
  EXPECT_EQ(rank0.dropped + rank1.dropped, all.dropped);
  EXPECT_EQ(all.events.size() + all.dropped, kPerRank[0] + kPerRank[1]);
}

TEST(TraceRing, SessionRearmsCleanly) {
  trace::session().begin(64);
  trace::record(trace::Ev::kIncumbent, 0, 1);
  trace::session().end();
  ASSERT_FALSE(trace::enabled());
  trace::record(trace::Ev::kIncumbent, 0, 2);  // disarmed: dropped silently

  trace::session().begin(64);
  trace::record(trace::Ev::kIncumbent, 0, 3);
  auto batch = trace::session().collect(-1);
  trace::session().end();

  // Only the post-rearm event: begin() resets the registry.
  ASSERT_EQ(batch.events.size(), 1u);
  EXPECT_EQ(batch.events[0].a, 3u);
}

// ---- JSON export ----------------------------------------------------------

TEST(TraceJson, SimEngineRunProducesWellFormedChromeTrace) {
  TempFile out("test_trace_sim");
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.traceFile = out.path;

  SynthSpace space{3, 7};
  const auto res =
      skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
          p, space, SynthNode{0, 1});
  EXPECT_TRUE(res.complete);
  EXPECT_FALSE(trace::enabled()) << "engine must disarm the session";

  const auto text = slurp(out.path);
  EXPECT_TRUE(validJson(text)) << "invalid JSON in " << out.path;
  // Worker task spans and their metadata tracks made it out.
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"task\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  // Every rank's batch keeps its thread names. Whatever the schedule, rank
  // 0's manager runs the termination leader and records its probes, and
  // rank 1's manager receives the leader's snapshot requests, so those
  // tracks are always named. Which workers run tasks is up to the scheduler (the ranks start
  // concurrently, so rank 1 may even steal the root before rank 0's team
  // pops it), but every task span sits on a named worker track of its rank.
  using Track = std::pair<int, unsigned long>;  // (pid, tid)
  std::map<Track, std::string> names;
  const std::string nameKey = "\"name\":\"thread_name\",";
  for (auto at = text.find(nameKey); at != std::string::npos;
       at = text.find(nameKey, at + 1)) {
    int pid = -1;
    unsigned long tid = 0;
    int nameAt = 0;  // where the name starts, set by %n only on a full match
    const auto meta = text.substr(at, text.find('}', at) - at);
    std::sscanf(meta.c_str() + nameKey.size(),
                "\"pid\":%d,\"tid\":%lu,\"args\":{\"name\":\"%n", &pid,
                &tid, &nameAt);
    ASSERT_GT(nameAt, 0) << "malformed thread_name: " << meta;
    const auto begin = nameKey.size() + static_cast<std::size_t>(nameAt);
    names[Track{pid, tid}] = meta.substr(begin, meta.find('"', begin) - begin);
  }
  for (const auto& [pid, name] : std::vector<std::pair<int, std::string>>{
           {0, "L0.mgr"}, {1, "L1.mgr"}}) {
    EXPECT_TRUE(std::any_of(names.begin(), names.end(),
                            [&](const auto& n) {
                              return n.first.first == pid && n.second == name;
                            }))
        << "no track named " << name;
  }
  const std::string spanKey = "\"cat\":\"task\",";
  int taskSpans = 0;
  for (auto at = text.find(spanKey); at != std::string::npos;
       at = text.find(spanKey, at + 1)) {
    int pid = -1;
    unsigned long tid = 0;
    const auto span = text.substr(at, text.find('}', at) - at);
    ASSERT_EQ(std::sscanf(span.c_str() + spanKey.size(),
                          "\"pid\":%d,\"tid\":%lu", &pid, &tid),
              2)
        << "malformed task span: " << span;
    ++taskSpans;
    const auto found = names.find(Track{pid, tid});
    const auto worker = "L" + std::to_string(pid) + ".w";
    EXPECT_TRUE(found != names.end() && found->second.rfind(worker, 0) == 0)
        << "task span on a track not named " << worker << "*: " << span;
  }
  EXPECT_GT(taskSpans, 0);
  // Both simulated localities recorded under their own pid.
  EXPECT_NE(text.find("\"pid\":0"), std::string::npos);
  EXPECT_NE(text.find("\"pid\":1"), std::string::npos);
}

TEST(TraceJson, EmptyBatchListStillWritesAValidFile) {
  TempFile out("test_trace_empty");
  trace::writeChromeJson(out.path, {});
  EXPECT_TRUE(validJson(slurp(out.path)));
}

namespace {

// Two ranks' batches with one event of every kind: rank 1's clock reads
// 2.5 us behind rank 0's, both ranks lost events to full buffers, and the
// bound values are negative (a minimisation's negated costs). Rank 1's
// first steal (token 777) is answered and replied; its second (778) fails.
std::vector<trace::Batch> exportFixture() {
  using trace::Ev;
  const auto ev = [](std::uint64_t ts, Ev kind, std::uint16_t tid,
                     std::int32_t rank, std::uint64_t a = 0,
                     std::uint64_t b = 0) {
    return trace::Event{ts, static_cast<std::uint16_t>(kind), tid, rank, a, b};
  };
  const auto i64 = [](std::int64_t v) { return static_cast<std::uint64_t>(v); };
  trace::Batch r0;
  r0.rank = 0;
  r0.dropped = 2;
  r0.threadNames = {{0, "L0.w0"}, {1, "L0.mgr"}, {2, "L0.term"},
                    {3, "tcp.rx1"}};
  r0.events = {
      ev(1000000, Ev::kTaskRunBegin, 0, 0, 0, 0),
      ev(1001250, Ev::kPoolPush, 0, 0, 1, 3),
      ev(1002500, Ev::kIncumbent, 0, 0, i64(-7)),
      ev(1003750, Ev::kBoundBroadcast, 0, 0, i64(-7)),
      ev(1005000, Ev::kPoolPop, 0, 0, 1, 2),
      ev(1010000, Ev::kStealAnswer, 1, 0, 1, 777),
      ev(1011000, Ev::kFrameSend, 3, 0, 1, 2),
      ev(1012000, Ev::kLocalStealAnswer, 0, 0, 0, 2),
      ev(1020000, Ev::kTermProbe, 2, 0, 4, i64(-1)),
      ev(1030000, Ev::kShardPush, 0, 0, 1, 41),
      ev(1031000, Ev::kShardPop, 0, 0, 1, 41),
      ev(1032000, Ev::kShardSteal, 1, 0, 0, 42),
      ev(1040000, Ev::kPeerDead, 3, 0, 1),
      ev(1050000, Ev::kTaskRunEnd, 0, 0),
  };
  trace::Batch r1;
  r1.rank = 1;
  r1.clockDeltaNanos = 2500;
  r1.dropped = 3;
  // Tid 3 recorded nothing, so it gets no track.
  r1.threadNames = {{0, "L1.w0"}, {1, "L1.w1"}, {2, "L1.mgr"},
                    {3, "L1.idle"}};
  r1.events = {
      ev(1005000, Ev::kStealRequest, 2, 1, 0, 777),
      ev(1009000, Ev::kFrameRecv, 2, 1, 0, 96),
      ev(1010000, Ev::kStealReply, 2, 1, 2, 777),
      ev(1011000, Ev::kBoundApply, 2, 1, i64(-7)),
      ev(1012000, Ev::kLocalStealRequest, 1, 1, 1),
      ev(1013000, Ev::kLocalStealFail, 0, 1, 0),
      ev(1015000, Ev::kStealRequest, 2, 1, 0, 778),
      ev(1016000, Ev::kStealFail, 2, 1, 0, 778),
  };
  return {r0, r1};
}

// exportFixture()'s export, byte for byte.
constexpr const char* kFixtureJson = R"json({"traceEvents":[{"ph":"M","name":"process_name","pid":0,"args":{"name":"rank 0"}},
{"ph":"M","name":"thread_name","pid":0,"tid":0,"args":{"name":"L0.w0"}},
{"ph":"M","name":"thread_name","pid":0,"tid":1,"args":{"name":"L0.mgr"}},
{"ph":"M","name":"thread_name","pid":0,"tid":2,"args":{"name":"L0.term"}},
{"ph":"M","name":"thread_name","pid":0,"tid":3,"args":{"name":"tcp.rx1"}},
{"ph":"M","name":"process_name","pid":1,"args":{"name":"rank 1"}},
{"ph":"M","name":"thread_name","pid":1,"tid":0,"args":{"name":"L1.w0"}},
{"ph":"M","name":"thread_name","pid":1,"tid":1,"args":{"name":"L1.w1"}},
{"ph":"M","name":"thread_name","pid":1,"tid":2,"args":{"name":"L1.mgr"}},
{"ph":"B","name":"task","cat":"task","pid":0,"tid":0,"ts":0.000,"args":{"depth":0,"seq":0}},
{"ph":"C","name":"pool depth","pid":0,"ts":1.250,"args":{"depth":3}},
{"ph":"i","s":"t","name":"incumbent","cat":"knowledge","pid":0,"tid":0,"ts":2.500,"args":{"value":-7}},
{"ph":"i","s":"t","name":"bound-broadcast","cat":"knowledge","pid":0,"tid":0,"ts":3.750,"args":{"value":-7}},
{"ph":"C","name":"pool depth","pid":0,"ts":5.000,"args":{"depth":2}},
{"ph":"i","s":"t","name":"steal-request","cat":"steal","pid":1,"tid":2,"ts":7.500,"args":{"victim":0,"token":777}},
{"ph":"s","name":"steal","cat":"steal","id":562949953422089,"pid":1,"tid":2,"ts":7.500},
{"ph":"i","s":"t","name":"steal-answer","cat":"steal","pid":0,"tid":1,"ts":10.000,"args":{"thief":1,"token":777}},
{"ph":"t","name":"steal","cat":"steal","id":562949953422089,"pid":0,"tid":1,"ts":10.000},
{"ph":"i","s":"t","name":"frame-send","cat":"transport","pid":0,"tid":3,"ts":11.000,"args":{"peer":1,"size":2}},
{"ph":"i","s":"t","name":"frame-recv","cat":"transport","pid":1,"tid":2,"ts":11.500,"args":{"peer":0,"size":96}},
{"ph":"i","s":"t","name":"local-steal-answer","cat":"steal","pid":0,"tid":0,"ts":12.000,"args":{"worker":0,"tasks":2}},
{"ph":"i","s":"t","name":"steal-reply","cat":"steal","pid":1,"tid":2,"ts":12.500,"args":{"tasks":2,"token":777}},
{"ph":"f","bp":"e","name":"steal","cat":"steal","id":562949953422089,"pid":1,"tid":2,"ts":12.500},
{"ph":"i","s":"t","name":"bound-apply","cat":"knowledge","pid":1,"tid":2,"ts":13.500,"args":{"value":-7}},
{"ph":"i","s":"t","name":"local-steal-request","cat":"steal","pid":1,"tid":1,"ts":14.500,"args":{"worker":1}},
{"ph":"i","s":"t","name":"local-steal-fail","cat":"steal","pid":1,"tid":0,"ts":15.500,"args":{"worker":0}},
{"ph":"i","s":"t","name":"steal-request","cat":"steal","pid":1,"tid":2,"ts":17.500,"args":{"victim":0,"token":778}},
{"ph":"s","name":"steal","cat":"steal","id":562949953422090,"pid":1,"tid":2,"ts":17.500},
{"ph":"i","s":"t","name":"steal-fail","cat":"steal","pid":1,"tid":2,"ts":18.500,"args":{"victim":0,"token":778}},
{"ph":"f","bp":"e","name":"steal","cat":"steal","id":562949953422090,"pid":1,"tid":2,"ts":18.500},
{"ph":"i","s":"t","name":"term-probe","cat":"termination","pid":0,"tid":2,"ts":20.000,"args":{"round":4,"outstanding":-1}},
{"ph":"i","s":"t","name":"shard-push","cat":"pool","pid":0,"tid":0,"ts":30.000,"args":{"shard":1,"seq":41}},
{"ph":"i","s":"t","name":"shard-pop","cat":"pool","pid":0,"tid":0,"ts":31.000,"args":{"shard":1,"seq":41}},
{"ph":"i","s":"t","name":"shard-steal","cat":"pool","pid":0,"tid":1,"ts":32.000,"args":{"shard":0,"seq":42}},
{"ph":"i","s":"p","name":"peer-dead","cat":"transport","pid":0,"tid":3,"ts":40.000,"args":{"dead_rank":1}},
{"ph":"E","name":"task","cat":"task","pid":0,"tid":0,"ts":50.000}],"displayTimeUnit":"ms","otherData":{"droppedEvents":5}}
)json";

}  // namespace

TEST(TraceJson, EveryKindExportsAsItsRowSays) {
  const auto batches = exportFixture();
  for (const auto& row : trace::kEvents) {
    EXPECT_TRUE(std::any_of(batches.begin(), batches.end(), [&](const auto& b) {
      return std::any_of(b.events.begin(), b.events.end(), [&](const auto& e) {
        return e.kind == static_cast<std::uint16_t>(row.kind);
      });
    })) << "the fixture has no " << row.name << " event";
  }
  TempFile out("test_trace_fixture");
  trace::writeChromeJson(out.path, batches);
  const auto text = slurp(out.path);
  EXPECT_TRUE(validJson(text));
  EXPECT_EQ(text, kFixtureJson);
}

TEST(TraceJson, SequentialRunIsOneWholeSearchSpan) {
  TempFile out("test_trace_seq");
  Params p;
  p.traceFile = out.path;
  SynthSpace space{3, 6};
  const auto res =
      skeletons::Sequential<SynthGen, Enumeration<CountAll>>::search(
          p, space, SynthNode{0, 1});
  EXPECT_TRUE(res.complete);
  const auto text = slurp(out.path);
  EXPECT_TRUE(validJson(text));
  EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(text.find("L0.seq"), std::string::npos);
}

// ---- telemetry tick --------------------------------------------------------

namespace {

// The value of column `name` in the last row of a telemetry CSV.
std::uint64_t lastRowColumn(const std::string& csv, const std::string& name) {
  std::istringstream lines(csv);
  std::string header;
  std::string line;
  std::string last;
  std::getline(lines, header);
  while (std::getline(lines, line)) {
    if (!line.empty()) last = line;
  }
  const auto split = [](const std::string& row) {
    std::vector<std::string> cells;
    std::istringstream in(row);
    std::string cell;
    while (std::getline(in, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const auto names = split(header);
  const auto cells = split(last);
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << "no column " << name;
  const auto i = static_cast<std::size_t>(it - names.begin());
  EXPECT_LT(i, cells.size()) << "short last row: " << last;
  return i < cells.size() ? std::stoull(cells[i]) : 0;
}

}  // namespace

TEST(TraceSampler, StartStopIdempotentAndRestartable) {
  health::Rules rules;
  telemetry::Tick tick(/*sampleIntervalMs=*/5, /*healthIntervalMs=*/0, rules);
  std::atomic<int> calls{0};
  const auto source = [&calls] {
    telemetry::Sample row;
    row.poolDepth = static_cast<std::uint64_t>(calls.fetch_add(1));
    return row;
  };

  tick.start(source);
  tick.start(source);  // second start: no-op, no second thread
  EXPECT_TRUE(tick.running());
  std::this_thread::sleep_for(30ms);
  tick.stop();
  tick.stop();  // second stop: no-op
  EXPECT_FALSE(tick.running());
  // The tick samples as it starts, so a row exists even if the host never
  // scheduled a timer tick; every Sample taken is one row.
  const auto rows = tick.rows().size();
  ASSERT_GE(rows, 1u);
  EXPECT_EQ(rows, static_cast<std::size_t>(calls.load()));

  // A stopped tick restarts and keeps appending.
  tick.start(source);
  tick.stop();
  EXPECT_GT(tick.rows().size(), rows);

  // The final Sample is the last row and what finalSample() serves.
  EXPECT_EQ(tick.finalSample(), nullptr);
  telemetry::Sample fin;
  fin.poolDepth = 999;
  tick.finish(fin);
  ASSERT_NE(tick.finalSample(), nullptr);
  EXPECT_EQ(tick.finalSample()->poolDepth, 999u);
  EXPECT_EQ(tick.rows().back().poolDepth, 999u);
}

TEST(TraceSampler, ZeroIntervalsStartNoTickThread) {
  health::Rules rules;
  telemetry::Tick off(0, 0, rules);
  off.start([] {
    ADD_FAILURE() << "a tick with both intervals 0 must not sample";
    return telemetry::Sample{};
  });
  EXPECT_FALSE(off.running());
  off.stop();  // no-op
  off.finish(telemetry::Sample{});
  EXPECT_TRUE(off.rows().empty()) << "no CSV rows without the sampler";
  EXPECT_NE(off.finalSample(), nullptr) << "the status endpoint still needs it";
}

TEST(TraceSampler, DifferingIntervalsThrowNamingBothFlags) {
  // Both consumers share one tick: two different cadences cannot be honoured.
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 1;
  p.dcutoff = 2;
  p.sampleIntervalMs = 5;
  p.healthIntervalMs = 20;
  try {
    skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
        p, SynthSpace{3, 5}, SynthNode{0, 1});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--sample-interval-ms 5"), std::string::npos) << what;
    EXPECT_NE(what.find("--health-interval-ms 20"), std::string::npos)
        << what;
  }
}

TEST(TraceSampler, CsvHasHeaderAndOneLinePerRow) {
  TempFile out("test_trace_csv");
  std::vector<telemetry::Sample> rows(3);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i].tNanos = 1'000'000 * (i + 1);
    rows[i].rank = static_cast<int>(i);
    rows[i].poolDepth = i * 10;
  }
  telemetry::writeCsv(out.path, rows);
  const auto text = slurp(out.path);
  EXPECT_EQ(text.find("t_ms,rank,pool_depth,net_queued"), 0u);
  std::size_t lines = 0;
  for (const char ch : text) {
    if (ch == '\n') ++lines;
  }
  EXPECT_EQ(lines, 1u + rows.size());  // header + rows
}

TEST(TraceSampler, EngineRunWritesTelemetryCsv) {
  // Every simulated rank samples itself: rank 0 writes the CSV path, rank 1
  // the same path suffixed ".rank1".
  TempFile csv("test_trace_telemetry");
  const std::string csv1 = csv.path + ".rank1";
  Params p;
  p.nLocalities = 2;
  p.workersPerLocality = 2;
  p.dcutoff = 3;
  p.sampleIntervalMs = 5;
  p.sampleCsv = csv.path;

  SynthSpace space{3, 7};
  const auto res =
      skeletons::DepthBounded<SynthGen, Enumeration<CountAll>>::search(
          p, space, SynthNode{0, 1});
  EXPECT_TRUE(res.complete);
  std::uint64_t lastRowNodes = 0;
  for (const auto& path : {csv.path, csv1}) {
    const auto text = slurp(path);
    EXPECT_EQ(text.find("t_ms,rank,pool_depth"), 0u) << path;
    // Each rank's last row is its final Sample, the one its gather shipped.
    lastRowNodes += lastRowColumn(text, "nodes_processed");
  }
  EXPECT_EQ(lastRowNodes, res.metrics.nodesProcessed);
  std::remove(csv1.c_str());
}

// ---- 2-rank TCP run: merged trace carries both ranks ----------------------

TEST(TraceTcp, MergedTraceOnRankZeroCarriesBothRanks) {
  // Big enough that rank 1 reliably wins remote steals before the search
  // drains (~137k nodes, ~10ms); a tiny tree can finish before any steal
  // lands, leaving a merged trace with rank-0 events only.
  apps::uts::Params tree;
  tree.b0 = 6;
  tree.maxDepth = 10;
  tree.seed = 42;
  const auto root = apps::uts::rootNode(tree);

  TempFile out("test_trace_tcp");
  for (int attempt = 0; attempt < 8; ++attempt) {
    const auto base = nextPortBase(34000, 8);
    std::vector<std::string> peers = {
        "127.0.0.1:" + std::to_string(base),
        "127.0.0.1:" + std::to_string(base + 1)};
    std::exception_ptr errs[2];
    std::vector<std::thread> threads;
    for (int r = 0; r < 2; ++r) {
      threads.emplace_back([&, r] {
        Params p;
        p.workersPerLocality = 2;
        p.chunk = parseChunkPolicy("half");
        p.transport = TransportKind::Tcp;
        p.rank = r;
        p.peers = peers;
        p.traceFile = out.path;  // rank 0 writes; rank 1 ships its batch
        try {
          const auto res = skeletons::StackStealing<
              apps::uts::Gen, Enumeration<CountAll>>::search(p, tree, root);
          if (r == 0) {
            EXPECT_TRUE(res.isRoot);
          }
        } catch (...) {
          errs[r] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    if (errs[0] || errs[1]) continue;  // port collision: retry next block

    const auto text = slurp(out.path);
    ASSERT_TRUE(validJson(text)) << "invalid merged JSON in " << out.path;
    // Worker task spans from BOTH ranks, under their own pid, in ONE file.
    // A scheduling fluke can drain the tree before rank 1 wins a steal;
    // retrying distinguishes that from a broken gather, which would fail
    // every attempt.
    const bool rank0Tasks =
        text.find("\"name\":\"task\",\"cat\":\"task\",\"pid\":0") !=
        std::string::npos;
    const bool rank1Tasks =
        text.find("\"name\":\"task\",\"cat\":\"task\",\"pid\":1") !=
        std::string::npos;
    if (!rank0Tasks || !rank1Tasks) continue;
    // The transport layer recorded wire activity somewhere in the run.
    EXPECT_NE(text.find("\"name\":\"frame-send\""), std::string::npos);
    return;
  }
  FAIL() << "no 2-rank traced run produced task spans from both ranks";
}
