#pragma once

// Workpools holding spawned search tasks within a locality.
//
// DepthPool is the bespoke *order-preserving* workpool of Section 4.3: tasks
// are bucketed by the search-tree depth at which they were spawned, FIFO
// within a bucket, handed out (a) heuristic-first within a depth
// (left-to-right order is preserved) and (b) big-subtree-first across depths
// (tasks near the root are expected to be the largest).
//
// DequePool is the conventional Cilk-style pool (LIFO local pop, FIFO steal)
// that the paper argues *breaks* heuristic search order; it is provided for
// the ablation benchmark.
//
// Steal-end semantics (intentional, per policy - steals are NOT pop
// aliases):
//
//   pool          local pop                  steal / stealMany
//   ------------  -------------------------  --------------------------------
//   DepthPool     shallowest bucket, FRONT   shallowest bucket, BACK: thieves
//                 (heuristic-best first)     receive same-depth (hence large)
//                                            subtrees while the heuristic-
//                                            best tasks stay with the local
//                                            workers; a stolen chunk keeps
//                                            its relative FIFO order
//   DequePool     back (LIFO) or front       FRONT: the oldest tasks, closest
//                 (FIFO) per constructor     to the root
//   Sharded-      own shard's lowest, if     lowest sequence number across
//   PriorityPool  within the sequence        all shards (always within the
//                 window; else the lowest    window); a chunk is handed out
//                 across all shards. One     in ascending sequence order
//                 shard: the lowest overall
//
// All pools support chunked hand-out (steal replies carrying several tasks
// in one message): stealMany(k) for an explicit count, stealChunk(policy)
// to size the chunk from the pool's live occupancy under the same lock that
// takes the tasks, steal() as the k == 1 special case.
//
// Who calls what: local workers pop(); same-locality thieves steal();
// the engine's manager thread answers a remote kPoolStealRequest with
// stealChunk(Params::chunk) - one ChunkPolicy drives both steal
// protocols (these pool steals and the Stack-Stealing generator-stack
// splits in skeletons/stackstealing.hpp). Adaptive's ~sqrt(victim depth)
// gives thieves more when the victim is loaded while the victim always
// keeps the bulk; All is the paper's boolean chunked variant. Chunked
// replies raise tasks-per-steal above 1 and cut message counts for the
// same work moved (bench/ablation_chunking); no policy may change a search
// result (tests/test_chunking.cpp).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/trace.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

enum class PoolPolicy {
  Depth,      // order-preserving depth pool (YewPar default)
  DequeLifo,  // LIFO local pop (standard work-stealing deque)
  DequeFifo,  // FIFO local pop (centralised queue behaviour)
  PrioritySharded,  // lowest-sequence-first heaps + sequence window (Ordered)
};

// Sequence window value meaning "no window": any task may be handed out
// regardless of how far its sequence number runs ahead of the lowest
// outstanding one. This is the ShardedPriorityPool default.
inline constexpr std::uint64_t kNoSeqWindow = ~std::uint64_t{0};

// How many tasks a single steal reply carries (paper Section 4.2's chunking
// ablation, generalised from the boolean `chunked` flag to a policy). The
// same policy drives both steal protocols: pool steals (Depth-Bounded /
// Budget / Ordered victims hand out workpool tasks) and stack steals
// (Stack-Stealing victims split their generator stack).
enum class ChunkKind : std::uint8_t {
  One,       // one task per reply (the unchunked baseline)
  Fixed,     // up to k tasks per reply
  Half,      // half of the victim's available work
  Adaptive,  // ~sqrt of the victim's available work: the thief receives more
             // when the victim is loaded, the victim always keeps the bulk
  All,       // everything available at the split point; for stack splits this
             // is all siblings at the lowest depth (the paper's chunked variant)
};

struct ChunkPolicy {
  ChunkKind kind = ChunkKind::One;
  std::uint32_t k = 4;  // chunk size when kind == Fixed

  // Number of tasks a steal reply should aim to carry, given the victim's
  // currently available work (workpool size, or generator-stack depth as a
  // proxy for stack splits). Always >= 1 so a lone task can still move.
  std::size_t chunkFor(std::size_t available) const {
    switch (kind) {
      case ChunkKind::One: return 1;
      case ChunkKind::Fixed: return k > 0 ? k : 1;
      case ChunkKind::Half: return available / 2 > 1 ? available / 2 : 1;
      case ChunkKind::Adaptive: {
        std::size_t c = 1;
        while ((c + 1) * (c + 1) <= available) ++c;  // floor(sqrt(available))
        return c;
      }
      case ChunkKind::All: return available > 0 ? available : 1;
    }
    return 1;
  }
};

// Parse "one" | "fixed[:k]" | "half" | "adaptive" | "all" (the
// `--chunk-policy` flag syntax). Throws std::invalid_argument on anything
// else, including fixed:k with k outside [1, 2^32-1].
inline ChunkPolicy parseChunkPolicy(const std::string& spec) {
  ChunkPolicy p;
  if (spec == "one") return p;
  if (spec == "half") {
    p.kind = ChunkKind::Half;
    return p;
  }
  if (spec == "adaptive") {
    p.kind = ChunkKind::Adaptive;
    return p;
  }
  if (spec == "all") {
    p.kind = ChunkKind::All;
    return p;
  }
  if (spec == "fixed" || spec.rfind("fixed:", 0) == 0) {
    p.kind = ChunkKind::Fixed;
    if (spec != "fixed") {
      const char* begin = spec.c_str() + 6;
      char* end = nullptr;
      const unsigned long long k = std::strtoull(begin, &end, 10);
      if (end == begin || *end != '\0' || k < 1 || k > 0xFFFFFFFFull) {
        throw std::invalid_argument(
            "chunk policy needs fixed:k with 1 <= k <= 2^32-1: " + spec);
      }
      p.k = static_cast<std::uint32_t>(k);
    }
    return p;
  }
  throw std::invalid_argument("unknown chunk policy: " + spec +
                              " (expected one|fixed[:k]|half|adaptive|all)");
}

inline std::string chunkPolicyName(const ChunkPolicy& p) {
  switch (p.kind) {
    case ChunkKind::One: return "one";
    case ChunkKind::Fixed: return "fixed:" + std::to_string(p.k);
    case ChunkKind::Half: return "half";
    case ChunkKind::Adaptive: return "adaptive";
    case ChunkKind::All: return "all";
  }
  return "?";
}

// LockGuard that counts contended acquisitions: a failed try_lock before
// the blocking lock means another thread held the mutex at that instant.
// ShardedPriorityPool uses it to expose lockContentions(), the mutex-hold
// pressure metric that bench/ablation_workpool compares across shard
// counts. The counter is relaxed - it is a diagnostic tally, not a
// synchronisation.
class SCOPED_CAPABILITY CountingLockGuard {
 public:
  CountingLockGuard(Mutex& m, std::atomic<std::uint64_t>& contentions)
      ACQUIRE(m)
      : m_(m) {
    if (!m_.try_lock()) {
      contentions.fetch_add(1, std::memory_order_relaxed);
      m_.lock();
    }
  }
  ~CountingLockGuard() RELEASE() { m_.unlock(); }

  CountingLockGuard(const CountingLockGuard&) = delete;
  CountingLockGuard& operator=(const CountingLockGuard&) = delete;

 private:
  Mutex& m_;
};

template <typename T>
class Workpool {
 public:
  virtual ~Workpool() = default;

  // `worker` attributes the call. The sharded pool routes on it (a task
  // pushed by worker w lands in w's shard; w's pops hit only w's shard
  // lock); every other pool ignores it and uses its single structure.
  // Unattributed callers (the manager thread pushing a steal reply, the
  // root task) pass -1. Every override repeats the default, so calls on a
  // concrete pool may omit it too.
  virtual void push(T task, int depth, int worker = -1) = 0;
  virtual std::optional<T> pop(int worker = -1) = 0;

  // Contended lock acquisitions observed by this pool since construction
  // (0 for pools that do not track it). Monotone; read at any time.
  virtual std::uint64_t lockContentions() const { return 0; }

  // Chunked steal for another worker/locality: up to `k` tasks in one
  // hand-out, taken from the policy's steal end (see the table above) and
  // preserving the policy's order among the returned tasks. Returns fewer
  // (possibly zero) tasks when the pool runs dry.
  virtual std::vector<T> stealMany(std::size_t k) = 0;

  // Policy-sized chunked steal: chunkFor(pool size) and the task grab
  // happen under one lock, so Half/Adaptive/All size from the occupancy
  // they actually take from.
  virtual std::vector<T> stealChunk(const ChunkPolicy& policy) = 0;

  virtual std::size_t size() const = 0;

  // Single-task steal: the k == 1 chunk.
  std::optional<T> steal() {
    auto chunk = stealMany(1);
    if (chunk.empty()) return std::nullopt;
    return std::move(chunk.front());
  }

  // Blocking pop with timeout, shared implementation. Lock order: waitMtx_
  // is held across the (internally locked) pop() calls, so waitMtx_ always
  // nests OUTSIDE the concrete pool's mtx_; push paths release mtx_ before
  // notifyWaiters() takes waitMtx_, so the two never invert.
  std::optional<T> popWait(std::chrono::microseconds timeout, int worker = -1)
      EXCLUDES(waitMtx_) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    UniqueLock lock(waitMtx_);
    while (true) {
      if (auto t = pop(worker)) return t;
      if (waitCv_.wait_until(lock.native(), deadline) ==
          std::cv_status::timeout) {
        return pop(worker);
      }
    }
  }

 protected:
  // Wake popWait sleepers after a push. The empty waitMtx_ critical section
  // is load-bearing: a consumer that found the pool empty still holds
  // waitMtx_ until its cv wait releases it, so acquiring the mutex here
  // guarantees the sleeper is actually inside the wait before the
  // notification fires. Notifying without it could land in the window
  // between the consumer's empty pop() and its sleep, costing a stall of up
  // to the full popWait timeout (the missed-wakeup defect found by the
  // annotation pass; regression-tested in test_runtime).
  void notifyWaiters() EXCLUDES(waitMtx_) {
    { LockGuard lock(waitMtx_); }
    waitCv_.notify_all();
  }

 private:
  Mutex waitMtx_;
  std::condition_variable waitCv_;
};

template <typename T>
class DepthPool final : public Workpool<T> {
 public:
  void push(T task, int depth, int /*worker*/ = -1) override EXCLUDES(mtx_) {
    {
      LockGuard lock(mtx_);
      buckets_[depth].push_back(std::move(task));
      ++count_;
    }
    this->notifyWaiters();
  }

  // Local pop: front of the shallowest bucket (heuristic-best first).
  std::optional<T> pop(int /*worker*/ = -1) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    for (auto it = buckets_.begin(); it != buckets_.end();) {
      if (it->second.empty()) {
        it = buckets_.erase(it);
        continue;
      }
      T t = std::move(it->second.front());
      it->second.pop_front();
      --count_;
      return t;
    }
    return std::nullopt;
  }

  std::vector<T> stealMany(std::size_t k) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(k);
  }

  std::vector<T> stealChunk(const ChunkPolicy& policy) override
      EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(policy.chunkFor(count_));
  }

  std::size_t size() const override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return count_;
  }

 private:
  // Steal under mtx_: back of the shallowest bucket - same depth (hence
  // comparably large subtrees) as a local pop would get, but the heuristic-
  // best front stays local. A chunk keeps its relative FIFO order; when the
  // shallowest bucket cannot fill it, the remainder comes from the next
  // deeper bucket.
  std::vector<T> stealLocked(std::size_t k) REQUIRES(mtx_) {
    std::vector<T> out;
    for (auto it = buckets_.begin();
         it != buckets_.end() && out.size() < k;) {
      auto& dq = it->second;
      if (dq.empty()) {
        it = buckets_.erase(it);
        continue;
      }
      const std::size_t take = std::min(k - out.size(), dq.size());
      const auto first = dq.end() - static_cast<std::ptrdiff_t>(take);
      for (auto src = first; src != dq.end(); ++src) {
        out.push_back(std::move(*src));
      }
      dq.erase(first, dq.end());
      count_ -= take;
      ++it;
    }
    return out;
  }

  mutable Mutex mtx_;
  // Ordered by depth, shallow first.
  std::map<int, std::deque<T>> buckets_ GUARDED_BY(mtx_);
  std::size_t count_ GUARDED_BY(mtx_) = 0;
};

template <typename T>
class DequePool final : public Workpool<T> {
 public:
  explicit DequePool(bool lifoLocal) : lifoLocal_(lifoLocal) {}

  void push(T task, int /*depth*/, int /*worker*/ = -1) override
      EXCLUDES(mtx_) {
    {
      LockGuard lock(mtx_);
      q_.push_back(std::move(task));
    }
    this->notifyWaiters();
  }

  std::optional<T> pop(int /*worker*/ = -1) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    if (q_.empty()) return std::nullopt;
    T t;
    if (lifoLocal_) {
      t = std::move(q_.back());
      q_.pop_back();
    } else {
      t = std::move(q_.front());
      q_.pop_front();
    }
    return t;
  }

  std::vector<T> stealMany(std::size_t k) override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(k);
  }

  std::vector<T> stealChunk(const ChunkPolicy& policy) override
      EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return stealLocked(policy.chunkFor(q_.size()));
  }

  std::size_t size() const override EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return q_.size();
  }

 private:
  // Steal under mtx_: the oldest tasks (closest to the root), oldest first.
  std::vector<T> stealLocked(std::size_t k) REQUIRES(mtx_) {
    std::vector<T> out;
    const std::size_t take = std::min(k, q_.size());
    out.reserve(take);
    for (std::size_t i = 0; i < take; ++i) {
      out.push_back(std::move(q_.front()));
      q_.pop_front();
    }
    return out;
  }

  mutable Mutex mtx_;
  std::deque<T> q_ GUARDED_BY(mtx_);
  bool lifoLocal_;
};

// Ordered pool used by the Ordered skeleton: tasks carry a sequence number
// (their position in the Sequential skeleton's traversal order) and are
// handed out lowest-sequence-first, so the task execution order is a
// prefix-parallelisation of the sequential order - the key ingredient of
// replicable branch-and-bound (paper Section 2.1's anomaly discussion and
// ref [4]). Structure:
//
//   - one min-heap *shard* per engine worker, each under its own mutex. A
//     task pushed by worker w lands in shard w % nShards, so w's local pops
//     normally touch only w's shard lock. Unattributed pushes (worker < 0:
//     the root task, steal-reply reintegration by the manager thread, and
//     the Ordered skeleton's bulk prefix expansion - all spawned by one
//     thread) round-robin across shards to spread the initial frontier.
//   - each shard *publishes* its current minimum sequence number in an
//     atomic (kNoSeqWindow when empty), written under the shard lock on
//     every heap change. The *low-water mark* - the lowest outstanding seq
//     across the pool - is the min over these published values, computed by
//     an O(shards) scan of relaxed-cost atomic loads, no locks.
//   - the *sequence window* bounds run-ahead: a local pop may take its own
//     shard's top only if top.seq <= lowWater + window (saturating).
//     Otherwise - and for every steal - the pool hands out the globally
//     lowest published task (lock one shard, re-verify, bounded retries).
//     The global minimum is by definition within any window, so a pop on a
//     non-empty pool always yields a task: the window shapes WHICH task
//     runs next, never whether one runs (no starvation, window=0 included).
//
// One shard is one global heap: every push lands in it, and at any window
// local pops and steals alike take its minimum, so the pool hands tasks out
// in the exact global sequence order (--ordered-shards 1). The only
// difference from a single-lock heap is that a chunked steal takes one task
// per lock, so it may interleave with concurrent pops; the chunk still
// arrives ascending. window=0 forces every pop to the global minimum at any
// shard count, i.e. near-sequential order. tests/test_ordered.cpp runs both
// configurations against the Sequential skeleton's results.
//
// Concurrency caveat (documented, benign): the low-water scan is not
// atomic with the subsequent take, so under concurrent pushes of *lower*
// sequence numbers (remote steal replies) a task can be handed out that a
// later scan would have called ineligible. The window is a run-ahead bound
// against the state observed at pop time - exact in any quiescent or
// single-consumer interval - not a serialized global invariant; replicable
// search needs only the hand-out *preference* for low sequence numbers,
// which every path here preserves.
template <typename T>
  requires requires(T t) { t.seq; }
class ShardedPriorityPool final : public Workpool<T> {
 public:
  explicit ShardedPriorityPool(int shards = 1,
                               std::uint64_t window = kNoSeqWindow,
                               int traceRank = 0)
      : window_(window), traceRank_(traceRank) {
    const int n = shards > 0 ? shards : 1;
    shards_.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }

  int shardCount() const { return static_cast<int>(shards_.size()); }

  // Lowest outstanding sequence number across all shards (kNoSeqWindow when
  // the pool is empty). Lock-free scan of the published per-shard minima.
  std::uint64_t lowWaterMark() const {
    std::uint64_t lw = kNoSeqWindow;
    for (const auto& s : shards_) {
      lw = std::min(lw, s->minSeq.load(std::memory_order_acquire));
    }
    return lw;
  }

  void push(T task, int /*depth*/, int worker = -1) override {
    const int shard = worker >= 0
                          ? worker % shardCount()
                          : static_cast<int>(
                                rr_.fetch_add(1, std::memory_order_relaxed) %
                                static_cast<std::uint64_t>(shardCount()));
    pushTo(shard, std::move(task));
  }

  std::optional<T> pop(int worker = -1) override {
    if (worker >= 0) {
      Shard& own = *shards_[static_cast<std::size_t>(worker % shardCount())];
      // Fast path: the owner's shard top, if within the window. One lock.
      std::optional<T> t = popOwn(own);
      if (t) {
        trace::record(trace::Ev::kShardPop, traceRank_,
                      static_cast<std::uint64_t>(worker % shardCount()),
                      t->seq);
        return t;
      }
    }
    std::optional<T> t = popMin();
    if (t) {
      trace::record(trace::Ev::kShardPop, traceRank_,
                    static_cast<std::uint64_t>(lastTakenShard_.load(
                        std::memory_order_relaxed)),
                    t->seq);
    }
    return t;
  }

  // Steals always take the globally lowest published task, one shard lock
  // per task; a chunk is sorted ascending before hand-out so a thief
  // replaying it through its own pool preserves the global order even when
  // concurrent pushes interleave lower sequence numbers mid-grab.
  std::vector<T> stealMany(std::size_t k) override {
    std::vector<T> out;
    out.reserve(std::min(k, size()));
    while (out.size() < k) {
      auto t = popMin();
      if (!t) break;
      trace::record(trace::Ev::kShardSteal, traceRank_,
                    static_cast<std::uint64_t>(
                        lastTakenShard_.load(std::memory_order_relaxed)),
                    t->seq);
      out.push_back(std::move(*t));
    }
    std::sort(out.begin(), out.end(),
              [](const T& a, const T& b) { return a.seq < b.seq; });
    return out;
  }

  std::vector<T> stealChunk(const ChunkPolicy& policy) override {
    // Unlike the single-mutex pools there is no one lock to size under;
    // the atomic total is the occupancy snapshot. Half/Adaptive sizing from
    // a count that moves under us is already approximate by design.
    return stealMany(policy.chunkFor(size()));
  }

  std::size_t size() const override {
    return count_.load(std::memory_order_acquire);
  }

  // Contended shard-lock acquisitions, summed over all shards.
  std::uint64_t lockContentions() const override {
    return contentions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable Mutex mtx;
    std::vector<T> heap GUARDED_BY(mtx);
    // Published copy of heap.front().seq (kNoSeqWindow when empty), stored
    // under mtx on every heap change, read lock-free by the low-water scan.
    std::atomic<std::uint64_t> minSeq{kNoSeqWindow};
  };

  static bool cmp(const T& a, const T& b) { return a.seq > b.seq; }

  // seq is eligible against low-water mark lw under this pool's window.
  bool eligible(std::uint64_t seq, std::uint64_t lw) const {
    if (window_ == kNoSeqWindow) return true;
    if (lw == kNoSeqWindow) return true;  // nothing else outstanding
    const std::uint64_t limit =
        lw + window_ >= lw ? lw + window_ : kNoSeqWindow;  // saturate
    return seq <= limit;
  }

  void pushTo(int shard, T task) {
    Shard& s = *shards_[static_cast<std::size_t>(shard)];
    const std::uint64_t seq = task.seq;
    {
      CountingLockGuard lock(s.mtx, contentions_);
      s.heap.push_back(std::move(task));
      std::push_heap(s.heap.begin(), s.heap.end(), cmp);
      s.minSeq.store(s.heap.front().seq, std::memory_order_release);
    }
    count_.fetch_add(1, std::memory_order_release);
    trace::record(trace::Ev::kShardPush, traceRank_,
                  static_cast<std::uint64_t>(shard), seq);
    this->notifyWaiters();
  }

  // Owner fast path: take own's top if eligible. Scans the published minima
  // only when the window is finite (window=kNoSeqWindow skips straight to
  // the take); takes own's lock exactly once either way.
  std::optional<T> popOwn(Shard& own) {
    const std::uint64_t lw =
        window_ == kNoSeqWindow ? kNoSeqWindow : lowWaterMark();
    CountingLockGuard lock(own.mtx, contentions_);
    if (own.heap.empty()) return std::nullopt;
    if (!eligible(own.heap.front().seq, lw)) return std::nullopt;
    return takeTopLocked(own);
  }

  // Global-minimum pop: scan the published minima, lock the argmin shard,
  // re-verify, retry if it drained between scan and lock. The retry loop
  // terminates: each retry means another consumer took a task, and a pass
  // over all shards finding every published minimum empty means the pool
  // was observably empty at that instant.
  std::optional<T> popMin() {
    while (true) {
      int best = -1;
      std::uint64_t bestSeq = kNoSeqWindow;
      for (int i = 0; i < shardCount(); ++i) {
        const std::uint64_t m =
            shards_[static_cast<std::size_t>(i)]->minSeq.load(
                std::memory_order_acquire);
        if (m < bestSeq) {
          bestSeq = m;
          best = i;
        }
      }
      if (best < 0) return std::nullopt;  // every shard published empty
      Shard& s = *shards_[static_cast<std::size_t>(best)];
      CountingLockGuard lock(s.mtx, contentions_);
      if (s.heap.empty()) continue;  // drained between scan and lock
      lastTakenShard_.store(best, std::memory_order_relaxed);
      return takeTopLocked(s);
    }
  }

  // Caller holds s.mtx and guarantees the heap is non-empty.
  T takeTopLocked(Shard& s) REQUIRES(s.mtx) {
    std::pop_heap(s.heap.begin(), s.heap.end(), cmp);
    T t = std::move(s.heap.back());
    s.heap.pop_back();
    s.minSeq.store(s.heap.empty() ? kNoSeqWindow : s.heap.front().seq,
                   std::memory_order_release);
    count_.fetch_sub(1, std::memory_order_release);
    return t;
  }

  std::vector<std::unique_ptr<Shard>> shards_;  // set in ctor, then const
  const std::uint64_t window_;
  const int traceRank_;
  std::atomic<std::uint64_t> rr_{0};       // round-robin for worker < 0
  std::atomic<std::size_t> count_{0};      // total tasks across shards
  mutable std::atomic<std::uint64_t> contentions_{0};
  // Shard index of the last popMin take, for trace attribution only (racy
  // between concurrent consumers; a trace label, not a protocol input).
  std::atomic<int> lastTakenShard_{0};
};

// Construction-time pool configuration beyond the policy choice. Only the
// sharded priority pool reads it today; other pools ignore it.
struct PoolConfig {
  int shards = 1;                          // ShardedPriorityPool shard count
  std::uint64_t seqWindow = kNoSeqWindow;  // sequence window (default: off)
  int traceRank = 0;  // locality id stamped on pool trace events
};

template <typename T>
std::unique_ptr<Workpool<T>> makeWorkpool(PoolPolicy p,
                                          const PoolConfig& cfg = {}) {
  switch (p) {
    case PoolPolicy::DequeLifo: return std::make_unique<DequePool<T>>(true);
    case PoolPolicy::DequeFifo: return std::make_unique<DequePool<T>>(false);
    case PoolPolicy::PrioritySharded:
      if constexpr (requires(T t) { t.seq; }) {
        return std::make_unique<ShardedPriorityPool<T>>(
            cfg.shards, cfg.seqWindow, cfg.traceRank);
      } else {
        // Deliberately a runtime error, not a static_assert: the policy is
        // a runtime switch, so every branch is instantiated for every task
        // type. Silently substituting a DepthPool here (the old behaviour)
        // hid misconfigurations that voided the ordering guarantee.
        throw std::invalid_argument(
            "PoolPolicy::PrioritySharded requires a task type with a .seq "
            "member");
      }
    case PoolPolicy::Depth: default: return std::make_unique<DepthPool<T>>();
  }
}

}  // namespace yewpar::rt
