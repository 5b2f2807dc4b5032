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
// carries a clock-offset estimate derived from the transport handshake
// (docs/ARCHITECTURE.md "Observability": clock alignment), and rank 0 merges
// all batches into one Chrome trace_event JSON loadable in Perfetto or
// chrome://tracing.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "util/archive.hpp"

namespace yewpar::rt::trace {

// Event taxonomy: the coordination lifecycle of a search, one kind per
// protocol step. The two args are kind-specific (see each comment).
enum class Ev : std::uint16_t {
  kTaskRunBegin = 1,    // a=task depth, b=task seq (opens a worker span)
  kTaskRunEnd = 2,      // closes the span opened by kTaskRunBegin
  kPoolPush = 3,        // a=task depth, b=pool size after the push
  kPoolPop = 4,         // a=task depth, b=pool size after the pop
  kStealRequest = 5,    // thief: a=victim locality, b=request token
  kStealReply = 6,      // thief: a=tasks received (chunk size), b=token
  kStealFail = 7,       // thief: a=victim locality, b=token (NACK/expiry)
  kStealAnswer = 8,     // victim: a=thief locality, b=token
  kLocalSteal = 9,      // thief worker: a=victim worker id, b=tasks moved
  kLocalStealFail = 10, // thief worker: a=victim worker id
  kLocalStealAnswer = 11,  // victim worker: a=worker id, b=tasks split off
  kBoundBroadcast = 12,    // a=bound (i64 value cast to u64)
  kBoundApply = 13,        // a=bound that strengthened the local bound
  kIncumbent = 14,         // a=new incumbent objective
  kTermProbe = 15,      // leader: a=round, b=outstanding (created-completed)
  kFrameSend = 16,      // a=destination rank, b=messages in the frame
  kFrameRecv = 17,      // a=source rank, b=payload bytes
  kPeerDead = 18,       // a=rank declared dead (tcp failure detection)
  kShardPush = 19,      // sharded pool: a=shard id, b=task seq
  kShardPop = 20,       // sharded pool: a=shard id, b=task seq
  kShardSteal = 21,     // sharded pool: a=shard id, b=task seq (per task in
                        // a chunk; the chunk itself shows as kStealAnswer)
};

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

// Events harvested from one rank (or a whole process). This is what every
// non-zero rank ships to rank 0 under tag::kTraceData.
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
