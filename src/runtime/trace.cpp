#include "runtime/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "runtime/profile.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt::trace {

namespace detail {

std::atomic<bool> gEnabled{false};

namespace {

// One thread's append-only event buffer. The owning thread is the only
// writer; `count` is published with release so a concurrent harvest reads a
// consistent prefix. Slots below `count` are immutable once published.
struct ThreadBuffer {
  std::uint16_t tid = 0;
  std::string name;  // guarded by the registry mutex (set once, rarely)
  std::size_t capacity = 0;
  std::unique_ptr<Event[]> slots;
  std::atomic<std::size_t> count{0};
  // Events lost to the full buffer, indexed by the rank they were recorded
  // for: ranks hosted in one process share the registry, and each rank's
  // batch must report only its own losses. The lock is taken only once the
  // buffer is full, never on the recording path proper.
  Mutex dropMtx;
  std::vector<std::uint64_t> dropped GUARDED_BY(dropMtx);
};

// Global buffer registry. The mutex is touched only at thread registration,
// naming, and harvest - never on the per-event path.
struct Registry {
  Mutex mtx;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers GUARDED_BY(mtx);
  std::size_t capacity GUARDED_BY(mtx) = Session::kDefaultCapacity;
  int active GUARDED_BY(mtx) = 0;  // begin()/end() refcount
  std::uint64_t sessionId GUARDED_BY(mtx) = 0;
  // Mirror of sessionId for the lock-free fast path: a thread's cached
  // buffer pointer is only valid for the session it registered in.
  std::atomic<std::uint64_t> sessionIdAtomic{0};
};

Registry& registry() {
  static Registry r;
  return r;
}

thread_local ThreadBuffer* tlsBuf = nullptr;
thread_local std::uint64_t tlsSession = 0;

// The calling thread's buffer for the current session, registering one on
// first use. Returns nullptr when no session is active (a record that
// slipped past the enabled() gate while end() was flipping it).
ThreadBuffer* myBuffer() {
  auto& reg = registry();
  if (tlsBuf != nullptr &&
      tlsSession == reg.sessionIdAtomic.load(std::memory_order_acquire)) {
    return tlsBuf;
  }
  LockGuard lock(reg.mtx);
  if (reg.active == 0) return nullptr;
  auto buf = std::make_unique<ThreadBuffer>();
  buf->tid = static_cast<std::uint16_t>(
      std::min<std::size_t>(reg.buffers.size(), 0xFFFF));
  buf->capacity = reg.capacity;
  buf->slots = std::make_unique<Event[]>(reg.capacity);
  tlsBuf = buf.get();
  tlsSession = reg.sessionId;
  reg.buffers.push_back(std::move(buf));
  return tlsBuf;
}

}  // namespace

void recordSlow(Ev kind, int rank, std::uint64_t a, std::uint64_t b) {
  ThreadBuffer* buf = myBuffer();
  if (buf == nullptr) return;
  const auto idx = buf->count.load(std::memory_order_relaxed);
  if (idx >= buf->capacity) {
    // Overflow policy: drop the new event and account for it. Keeping the
    // recorded prefix immutable is what makes concurrent harvest safe.
    const auto r = static_cast<std::size_t>(std::max(rank, 0));
    LockGuard lock(buf->dropMtx);
    if (buf->dropped.size() <= r) buf->dropped.resize(r + 1);
    ++buf->dropped[r];
    return;
  }
  Event& e = buf->slots[idx];
  e.tsNanos = prof::nowNanos();
  e.kind = static_cast<std::uint16_t>(kind);
  e.tid = buf->tid;
  e.rank = rank;
  e.a = a;
  e.b = b;
  buf->count.store(idx + 1, std::memory_order_release);
}

void nameThreadSlow(const std::string& name) {
  ThreadBuffer* buf = myBuffer();
  if (buf == nullptr) return;
  auto& reg = registry();
  LockGuard lock(reg.mtx);
  buf->name = name;
}

}  // namespace detail

void Session::begin(std::size_t capacityPerThread) {
  auto& reg = detail::registry();
  LockGuard lock(reg.mtx);
  if (reg.active++ > 0) return;  // nested begin joins the armed session
  // First begin of a new session: the previous session's recording threads
  // are gone (the engine joins its teams and transports before end()), so
  // the old buffers can be released and the thread slots restart at 0.
  reg.buffers.clear();
  reg.capacity = capacityPerThread == 0 ? 1 : capacityPerThread;
  ++reg.sessionId;
  reg.sessionIdAtomic.store(reg.sessionId, std::memory_order_release);
  detail::gEnabled.store(true, std::memory_order_release);
}

void Session::end() {
  auto& reg = detail::registry();
  LockGuard lock(reg.mtx);
  if (reg.active == 0) return;
  if (--reg.active == 0) {
    detail::gEnabled.store(false, std::memory_order_release);
  }
}

Batch Session::collect(int rankFilter) {
  Batch out;
  out.rank = rankFilter < 0 ? 0 : rankFilter;
  auto& reg = detail::registry();
  LockGuard lock(reg.mtx);
  for (const auto& buf : reg.buffers) {
    const auto n =
        std::min(buf->count.load(std::memory_order_acquire), buf->capacity);
    for (std::size_t i = 0; i < n; ++i) {
      const Event& e = buf->slots[i];
      if (rankFilter >= 0 && e.rank != rankFilter) continue;
      out.events.push_back(e);
    }
    {
      LockGuard drops(buf->dropMtx);
      for (std::size_t r = 0; r < buf->dropped.size(); ++r) {
        if (rankFilter < 0 || r == static_cast<std::size_t>(rankFilter)) {
          out.dropped += buf->dropped[r];
        }
      }
    }
    if (!buf->name.empty()) {
      out.threadNames.push_back({buf->tid, buf->name});
    }
  }
  return out;
}

Session& session() {
  static Session s;
  return s;
}

// ---- Chrome trace_event JSON export --------------------------------------

namespace {

// The "ph" (phase) of each Shape, in Shape order.
constexpr const char* kShapePhase[] = {
    "\"ph\":\"B\"", "\"ph\":\"E\"", "\"ph\":\"C\"",
    "\"ph\":\"i\",\"s\":\"t\"", "\"ph\":\"i\",\"s\":\"p\""};

// The "ph" of each Flow role but kNone, in Flow order.
constexpr const char* kFlowPhase[] = {
    nullptr, "\"ph\":\"s\"", "\"ph\":\"t\"", "\"ph\":\"f\",\"bp\":\"e\""};

// Flow ids tie a steal's request/answer/reply instants into one arrow. The
// request token (a steal-slot timestamp) is unique per thief locality; the
// thief's rank in the top bits separates concurrent thieves.
std::uint64_t stealFlowId(std::uint64_t thiefRank, std::uint64_t token) {
  return ((thiefRank + 1) << 48) ^ (token & 0xFFFFFFFFFFFFull);
}

// One event as its row's shape. A counter belongs to the rank, not to a
// thread, so it carries no tid.
void writeEvent(std::FILE* f, const EventRow& row, const Event& e,
                double tsUs) {
  std::fprintf(f, "{%s,\"name\":\"%s\"",
               kShapePhase[static_cast<int>(row.shape)], row.name);
  if (row.category != nullptr) {
    std::fprintf(f, ",\"cat\":\"%s\"", row.category);
  }
  std::fprintf(f, ",\"pid\":%d", e.rank);
  if (row.shape != Shape::kCounter) {
    std::fprintf(f, ",\"tid\":%u", static_cast<unsigned>(e.tid));
  }
  std::fprintf(f, ",\"ts\":%.3f", tsUs);
  bool args = false;
  for (const auto& [arg, v] : {std::pair{row.a, e.a}, std::pair{row.b, e.b}}) {
    if (arg.name == nullptr) continue;
    std::fputs(args ? "," : ",\"args\":{", f);
    args = true;
    if (arg.isSigned) {
      std::fprintf(f, "\"%s\":%" PRId64, arg.name,
                   static_cast<std::int64_t>(v));
    } else {
      std::fprintf(f, "\"%s\":%" PRIu64, arg.name, v);
    }
  }
  std::fputs(args ? "}}" : "}", f);
}

// The event's step of its steal's flow arrow. Only the victim's answer
// records the thief (arg a); every other step is recorded by the thief.
void writeFlow(std::FILE* f, const EventRow& row, const Event& e,
               double tsUs) {
  const auto thief = row.flow == Flow::kStep
                         ? e.a
                         : static_cast<std::uint64_t>(e.rank);
  std::fprintf(f,
               "{%s,\"name\":\"steal\",\"cat\":\"steal\",\"id\":%" PRIu64
               ",\"pid\":%d,\"tid\":%u,\"ts\":%.3f}",
               kFlowPhase[static_cast<int>(row.flow)], stealFlowId(thief, e.b),
               e.rank, static_cast<unsigned>(e.tid), tsUs);
}

struct FilePtr {
  std::FILE* f = nullptr;
  ~FilePtr() {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

void writeChromeJson(const std::string& path,
                     const std::vector<Batch>& batches) {
  FilePtr fp;
  fp.f = std::fopen(path.c_str(), "w");
  if (fp.f == nullptr) {
    throw std::runtime_error("trace: cannot open '" + path +
                             "' for writing");
  }
  std::FILE* f = fp.f;

  // Offset-adjust and merge, then normalise to the earliest event so ts
  // starts near zero (Perfetto renders absolute steady-clock nanos poorly).
  struct Adj {
    std::int64_t ts;  // nanos, offset-applied
    const Batch* batch;
    const Event* ev;
  };
  std::vector<Adj> all;
  std::size_t total = 0;
  for (const auto& b : batches) total += b.events.size();
  all.reserve(total);
  for (const auto& b : batches) {
    for (const auto& e : b.events) {
      all.push_back(
          {static_cast<std::int64_t>(e.tsNanos) + b.clockDeltaNanos, &b, &e});
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Adj& x, const Adj& y) { return x.ts < y.ts; });
  const std::int64_t t0 = all.empty() ? 0 : all.front().ts;

  std::fputs("{\"traceEvents\":[", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };

  // Metadata: process names per rank, thread names per (rank, tid). A tid
  // is attributed to the rank(s) it recorded events for.
  std::vector<std::pair<std::int32_t, std::uint16_t>> namedTracks;
  for (const auto& b : batches) {
    std::vector<std::int32_t> ranksSeen;
    for (const auto& e : b.events) {
      if (std::find(ranksSeen.begin(), ranksSeen.end(), e.rank) ==
          ranksSeen.end()) {
        ranksSeen.push_back(e.rank);
      }
    }
    std::sort(ranksSeen.begin(), ranksSeen.end());
    for (const auto r : ranksSeen) {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":%d,"
                   "\"args\":{\"name\":\"rank %d\"}}",
                   r, r);
    }
    for (const auto& tn : b.threadNames) {
      for (const auto& e : b.events) {
        if (e.tid != tn.tid) continue;
        const auto key = std::make_pair(e.rank, e.tid);
        if (std::find(namedTracks.begin(), namedTracks.end(), key) !=
            namedTracks.end()) {
          break;
        }
        namedTracks.push_back(key);
        sep();
        std::fprintf(f,
                     "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":%d,"
                     "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                     e.rank, static_cast<unsigned>(e.tid), tn.name.c_str());
        break;
      }
    }
  }

  for (const auto& adj : all) {
    const Event& e = *adj.ev;
    // A kind this build has no row for (only a corrupt batch carries one).
    if (e.kind == 0 || e.kind > std::size(kEvents)) continue;
    const EventRow& row = kEvents[e.kind - 1];
    const double tsUs = static_cast<double>(adj.ts - t0) / 1000.0;
    sep();
    writeEvent(f, row, e, tsUs);
    if (row.flow != Flow::kNone) {
      sep();
      writeFlow(f, row, e, tsUs);
    }
  }

  std::uint64_t dropped = 0;
  for (const auto& b : batches) dropped += b.dropped;
  std::fprintf(f,
               "],\"displayTimeUnit\":\"ms\",\"otherData\":{"
               "\"droppedEvents\":%" PRIu64 "}}\n",
               dropped);
  if (std::ferror(f) != 0) {
    throw std::runtime_error("trace: write to '" + path + "' failed");
  }
}

}  // namespace yewpar::rt::trace
