#pragma once

// Low-overhead runtime event tracing (docs/ARCHITECTURE.md "Observability").
// Periodic telemetry - counters rather than events - is
// runtime/telemetry.hpp's tick.
//
// Recording discipline. Every event is one fixed-size 32-byte binary record
// (steady-clock timestamp, event kind, thread slot, rank, two u64 args)
// appended to a per-thread buffer, so the hot path takes no locks and shares
// no cache lines between recording threads. Buffers are fixed-capacity and
// append-only: once a thread's buffer is full, further records are dropped
// and counted (keeping the search's startup and steady state, and making a
// concurrent harvest a race-free prefix read - the collector reads the
// published count with acquire ordering and never touches slots past it).
//
// Overhead contract. Tracing is armed per session by Session::begin(). With
// no session active - the default - record() is a single relaxed atomic load
// and a branch; bench/micro_components measures it and fails the build gate
// if it regresses above a few ns/event. Callers whose *arguments* are
// expensive (e.g. a pool size query) must guard the call site with
// `if (trace::enabled())` - record() cannot un-evaluate its arguments.
//
// Timestamps are raw steady_clock nanoseconds. They are process-local, so a
// multi-process (TCP) run aligns them at export time: every rank's batch
// rides its gather reply with a clock-offset estimate derived from the
// transport handshake (docs/ARCHITECTURE.md "Observability": clock
// alignment), and rank 0 merges all batches into one Chrome trace_event JSON
// loadable in Perfetto or chrome://tracing.
//
// One event table. A kind is an Ev value plus its row in kEvents, which
// fixes its exported name, category, arg names, shape and steal-flow role;
// the exporter reads nothing else about a kind.

#include <atomic>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "util/archive.hpp"

namespace yewpar::rt::trace {

// The coordination lifecycle of a search, one kind per protocol step. What
// each kind's two args mean, and how it exports, is its row in kEvents.
enum class Ev : std::uint16_t {
  kTaskRunBegin = 1,
  kTaskRunEnd,
  kPoolPush,
  kPoolPop,
  kStealRequest,
  kStealReply,
  kStealFail,
  kStealAnswer,
  kLocalStealRequest,
  kLocalStealFail,
  kLocalStealAnswer,
  kBoundBroadcast,
  kBoundApply,
  kIncumbent,
  kTermProbe,
  kFrameSend,
  kFrameRecv,
  kPeerDead,
  kShardPush,
  kShardPop,
  kShardSteal,
  kEnd,  // not a kind: one past the last, so the row check below counts to it
};

// How a kind exports as a Chrome trace_event.
enum class Shape : std::uint8_t {
  kSpanBegin,       // "B": opens a span on the thread's track
  kSpanEnd,         // "E": closes the thread's open span
  kCounter,         // "C": a value on the rank's counter track named `name`
  kThreadInstant,   // "i" on the thread's track
  kProcessInstant,  // "i" across the rank: a verdict about the whole job
};

// A kind's place in a remote steal's flow arrow. The arrow is keyed by the
// thief's rank and the request token (arg b): the thief's request starts it,
// the victim's answer (arg a = the thief) steps it, and the thief's reply or
// fail ends it.
enum class Flow : std::uint8_t { kNone, kStart, kStep, kEnd };

struct Arg {
  const char* name = nullptr;  // nullptr: recorded but not exported
  bool isSigned = false;       // the u64 carries an i64 (cast back on export)
};

struct EventRow {
  Ev kind;
  const char* name;
  const char* category;  // nullptr: no "cat"
  Arg a;
  Arg b;
  Shape shape;
  Flow flow;
};

// One row per Ev, in enum order: the kind's exported name and category, its
// args, its shape and its steal-flow role.
inline constexpr EventRow kEvents[] = {
    {Ev::kTaskRunBegin, "task", "task", {"depth"}, {"seq"}, Shape::kSpanBegin,
     Flow::kNone},
    {Ev::kTaskRunEnd, "task", "task", {}, {}, Shape::kSpanEnd, Flow::kNone},
    // a = the task's depth; b = the pool's size after the push or pop.
    {Ev::kPoolPush, "pool depth", nullptr, {}, {"depth"}, Shape::kCounter,
     Flow::kNone},
    {Ev::kPoolPop, "pool depth", nullptr, {}, {"depth"}, Shape::kCounter,
     Flow::kNone},
    // Remote steals; the thief records request, reply and fail, the victim
    // the answer. Reply's "tasks" is the chunk size; fail is a NACK or expiry.
    {Ev::kStealRequest, "steal-request", "steal", {"victim"}, {"token"},
     Shape::kThreadInstant, Flow::kStart},
    {Ev::kStealReply, "steal-reply", "steal", {"tasks"}, {"token"},
     Shape::kThreadInstant, Flow::kEnd},
    {Ev::kStealFail, "steal-fail", "steal", {"victim"}, {"token"},
     Shape::kThreadInstant, Flow::kEnd},
    {Ev::kStealAnswer, "steal-answer", "steal", {"thief"}, {"token"},
     Shape::kThreadInstant, Flow::kStep},
    // Stack steals between one rank's workers (ids, not ranks): the thief
    // worker records its request as it posts it, and the victim worker that
    // answers records the answer (its split went to the pool) or the fail
    // (its split was empty).
    {Ev::kLocalStealRequest, "local-steal-request", "steal", {"worker"}, {},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kLocalStealFail, "local-steal-fail", "steal", {"worker"}, {},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kLocalStealAnswer, "local-steal-answer", "steal", {"worker"},
     {"tasks"}, Shape::kThreadInstant, Flow::kNone},
    // Bound values: the broadcast one, one that strengthened the local
    // bound, and a new incumbent's objective.
    {Ev::kBoundBroadcast, "bound-broadcast", "knowledge", {"value", true}, {},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kBoundApply, "bound-apply", "knowledge", {"value", true}, {},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kIncumbent, "incumbent", "knowledge", {"value", true}, {},
     Shape::kThreadInstant, Flow::kNone},
    // The leader's probe: outstanding = tasks created - completed.
    {Ev::kTermProbe, "term-probe", "termination", {"round"},
     {"outstanding", true}, Shape::kThreadInstant, Flow::kNone},
    // size: messages in a sent frame, payload bytes of a received one.
    {Ev::kFrameSend, "frame-send", "transport", {"peer"}, {"size"},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kFrameRecv, "frame-recv", "transport", {"peer"}, {"size"},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kPeerDead, "peer-dead", "transport", {"dead_rank"}, {},
     Shape::kProcessInstant, Flow::kNone},
    // The ordered pool's shards; a steal records one shard-steal per task
    // of its chunk, and the chunk itself shows as a steal-answer.
    {Ev::kShardPush, "shard-push", "pool", {"shard"}, {"seq"},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kShardPop, "shard-pop", "pool", {"shard"}, {"seq"},
     Shape::kThreadInstant, Flow::kNone},
    {Ev::kShardSteal, "shard-steal", "pool", {"shard"}, {"seq"},
     Shape::kThreadInstant, Flow::kNone},
};

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kEvents); ++i) {
        if (kEvents[i].kind != static_cast<Ev>(i + 1)) return false;
      }
      return std::size(kEvents) + 1 == static_cast<std::size_t>(Ev::kEnd);
    }(),
    "kEvents needs one row per trace::Ev, in enum order");

// One fixed-size binary record. Plain data; serialized field-by-field via
// the hardened archive so batches survive the wire like any other payload.
struct Event {
  std::uint64_t tsNanos = 0;  // steady_clock; aligned/offset at export only
  std::uint16_t kind = 0;     // Ev
  std::uint16_t tid = 0;      // per-session thread slot (registration order)
  std::int32_t rank = 0;      // locality id the event belongs to
  std::uint64_t a = 0;
  std::uint64_t b = 0;

  void save(OArchive& ar) const {
    ar << tsNanos << kind << tid << rank << a << b;
  }
  void load(IArchive& ar) { ar >> tsNanos >> kind >> tid >> rank >> a >> b; }
};

namespace detail {
extern std::atomic<bool> gEnabled;
void recordSlow(Ev kind, int rank, std::uint64_t a, std::uint64_t b);
void nameThreadSlow(const std::string& name);
}  // namespace detail

// The benchmarked disabled path: one relaxed load and a branch.
inline bool enabled() {
  return detail::gEnabled.load(std::memory_order_relaxed);
}

inline void record(Ev kind, int rank, std::uint64_t a = 0,
                   std::uint64_t b = 0) {
  if (!enabled()) return;
  detail::recordSlow(kind, rank, a, b);
}

// Label the calling thread's track in the exported trace (e.g. "L0.w1",
// "L0.mgr", "tcp.rx1"). No-op while tracing is disarmed.
inline void nameThread(const std::string& name) {
  if (!enabled()) return;
  detail::nameThreadSlow(name);
}

// Events harvested from one rank (or a whole process). Under --trace each
// rank's GatherMsg carries its batch to rank 0's merge.
struct Batch {
  std::int32_t rank = 0;
  // Clock-alignment scratch, in nanoseconds. On the wire (rank i -> 0) it
  // holds the sender's handshake half-estimate (rank 0's send stamp minus
  // the local receive time). Rank 0 combines it with its own half-estimate
  // for that peer - the symmetric one-way delays cancel - and stores the
  // final offset to ADD to this batch's timestamps back into this field
  // before export. Zero for sim batches (one clock).
  std::int64_t clockDeltaNanos = 0;
  std::uint64_t dropped = 0;  // events lost to full thread buffers
  std::vector<Event> events;

  struct ThreadName {
    std::uint16_t tid = 0;
    std::string name;

    void save(OArchive& ar) const { ar << tid << name; }
    void load(IArchive& ar) { ar >> tid >> name; }
  };
  std::vector<ThreadName> threadNames;

  void save(OArchive& ar) const {
    ar << rank << clockDeltaNanos << dropped << events << threadNames;
  }
  void load(IArchive& ar) {
    ar >> rank >> clockDeltaNanos >> dropped >> events >> threadNames;
  }
};

// The process-wide trace session. begin()/end() are refcounted so the
// ranks of an in-process multi-rank run (simulated ranks, or tests driving
// two TCP ranks as threads) can share one armed session; the first begin() resets the buffer
// registry, the last end() disarms recording. Buffers stay alive until the
// next begin(), so a harvest - or a straggling transport thread's final
// records - never touches freed memory.
class Session {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  void begin(std::size_t capacityPerThread = kDefaultCapacity);
  void end();
  bool active() const { return enabled(); }

  // Copy out every recorded event (rankFilter < 0) or only the given rank's
  // (an in-process multi-rank run shares one registry; filtering keeps each
  // rank's shipped batch disjoint), with the matching count of events
  // dropped to full buffers. Safe while recording continues: events
  // appended after the harvest are simply not included.
  Batch collect(int rankFilter);
};

Session& session();

// Merge batches into one Chrome trace_event JSON file (Perfetto-loadable).
// Applies each batch's clockDeltaNanos, normalises to the earliest event,
// and emits worker task spans ("B"/"E"), instants, steal flow arrows
// ("s"/"t"/"f" keyed by request token), pool-depth counters ("C") and
// process/thread name metadata. Throws std::runtime_error if the file
// cannot be written.
void writeChromeJson(const std::string& path,
                     const std::vector<Batch>& batches);

// RAII wrapper arming the global session for one engine run; no-op when the
// run was started without --trace.
class SessionScope {
 public:
  explicit SessionScope(bool on) : on_(on) {
    if (on_) session().begin();
  }
  ~SessionScope() {
    if (on_) session().end();
  }

  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  bool on_;
};

}  // namespace yewpar::rt::trace
