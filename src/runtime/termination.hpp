#pragma once

// Distributed termination detection for the skeleton engine.
//
// Every unit of search work is a counted task (including the root task).
// Each locality keeps two monotone counters: tasks created and tasks
// completed. Locality 0 acts as leader and polls snapshots from all
// localities in rounds; when two consecutive rounds return identical
// counter sums with created == completed, no task can exist anywhere (in a
// pool, in a worker, or in flight as a message - an in-flight task has been
// counted created but not completed), so the leader broadcasts kTerminate.
// This is Mattern's four-counter/double-poll scheme specialised to monotone
// counters over a FIFO transport. The rounds run on locality 0's manager
// thread: its wake hook opens one while none is outstanding, kPacing has
// passed and locality 0 is idle (which global termination implies), and
// the kSnapshotReply handler closes it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>

#include "runtime/locality.hpp"
#include "util/archive.hpp"

namespace yewpar::rt {

// Wire payload of the termination protocol's kSnapshotRequest/kSnapshotReply
// messages: the poll round (stale replies are discarded by round number) and
// the replier's monotone counters.
struct TermSnapshot {
  std::uint64_t round = 0;
  std::uint64_t created = 0;
  std::uint64_t completed = 0;

  void save(OArchive& a) const { a << round << created << completed; }
  void load(IArchive& a) { a >> round >> created >> completed; }
};

class TerminationDetector {
 public:
  // Registers protocol handlers on `loc` (and, on locality 0, the leader's
  // wake hook). Construct before Locality::start(); stop the locality before
  // destroying the detector. `nLocalities` is the number of participants.
  TerminationDetector(Locality& loc, int nLocalities);

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  // Count a task creation on this locality. Call before the task becomes
  // visible to any other thread (push/send). This is the locality's one
  // count of spawned tasks (MetricsSnapshot::tasksSpawned).
  void taskCreated(std::uint64_t n = 1) {
    created_.fetch_add(n, std::memory_order_release);
  }

  // Count a task completion (after its execution fully finished).
  void taskCompleted() {
    completed_.fetch_add(1, std::memory_order_release);
  }

  // True once the leader has decided global termination.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // Abort the search from outside the protocol: mark it finished locally so
  // the workers exit and no round opens. Safe from any thread; the engine
  // calls it from its manager's tag::kPeerDead handler. Every surviving
  // rank hears of a dead peer from its own transport and aborts itself, so
  // no protocol message is needed (nor possible - the mesh just lost a
  // member).
  void abort() { finished_.store(true, std::memory_order_release); }

  // Leader only: arm the rounds. One opens only while `idle()` holds (it
  // runs on the manager thread; none = always idle). Call once, after at
  // least one task has been counted created (the root), otherwise the
  // initial 0 == 0 state would be indistinguishable from completion.
  void startLeader(std::function<bool()> idle = {});

  // Disarm the leader: no further round opens.
  void stop() { armed_.store(false, std::memory_order_release); }

  std::uint64_t createdLocal() const { return created_.load(); }

  // Leader only: steady-clock nanos of the last round closed or wake that
  // found locality 0 busy; 0 until then. The health rules' probe-liveness
  // check reads it through the telemetry Sample.
  std::uint64_t lastProbeNanos() const {
    return lastProbeNanos_.load(std::memory_order_relaxed);
  }

 private:
  // Minimum gap between one round closing and the next opening.
  static constexpr std::chrono::microseconds kPacing{200};

  std::chrono::microseconds onWake();
  void openRound();
  void closeRound();

  Locality& loc_;
  int nLoc_;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> finished_{false};
  std::atomic<std::uint64_t> lastProbeNanos_{0};
  std::function<bool()> idle_;  // published by the release store of armed_
  std::atomic<bool> armed_{false};

  // Leader rounds: only locality 0's manager thread touches these (the wake
  // hook and the kSnapshotReply handler), so they need no lock.
  std::uint64_t round_ = 0;
  bool roundOpen_ = false;
  int replies_ = 0;
  std::uint64_t sumCreated_ = 0;
  std::uint64_t sumCompleted_ = 0;
  std::uint64_t prevCreated_ = ~std::uint64_t{0};
  std::uint64_t prevCompleted_ = ~std::uint64_t{0};
  std::uint64_t nextRoundNanos_ = 0;
};

}  // namespace yewpar::rt
