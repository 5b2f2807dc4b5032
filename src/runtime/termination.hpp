#pragma once

// Distributed termination detection for the skeleton engine.
//
// Every unit of search work is a counted task (including the root task).
// Each locality keeps two monotone counters: tasks created and tasks
// completed. Locality 0 acts as leader and periodically polls snapshots from
// all localities; when two consecutive polls return identical counter sums
// with created == completed, no task can exist anywhere (in a pool, in a
// worker, or in flight as a message - an in-flight task has been counted
// created but not completed), so the leader broadcasts kTerminate. This is
// Mattern's four-counter/double-poll scheme specialised to monotone
// counters over a FIFO transport.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <thread>

#include "runtime/locality.hpp"
#include "util/archive.hpp"
#include "util/thread_annotations.hpp"

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
  // Registers protocol handlers on `loc`. Construct before Locality::start().
  // `nLocalities` is the number of participants; locality 0 is the leader.
  TerminationDetector(Locality& loc, int nLocalities);
  ~TerminationDetector();

  TerminationDetector(const TerminationDetector&) = delete;
  TerminationDetector& operator=(const TerminationDetector&) = delete;

  // Count a task creation on this locality. Call before the task becomes
  // visible to any other thread (push/send).
  void taskCreated(std::uint64_t n = 1) {
    created_.fetch_add(n, std::memory_order_release);
  }

  // Count a task completion (after its execution fully finished).
  void taskCompleted() {
    completed_.fetch_add(1, std::memory_order_release);
  }

  // True once the leader has decided global termination.
  bool finished() const { return finished_.load(std::memory_order_acquire); }

  // Abort the search from outside the protocol (a peer was declared dead):
  // mark it finished locally so the workers and the leader poll loop exit.
  // Safe from any thread, including transport callbacks; every surviving
  // rank aborts itself via its own failure detection, so no cross-rank
  // message is needed (nor possible - the mesh just lost a member).
  void abort() {
    finished_.store(true, std::memory_order_release);
    poll_.cv.notify_all();
  }

  // Leader only: start the polling thread. Call only after at least one task
  // has been counted created (the root), otherwise the initial 0 == 0 state
  // would be indistinguishable from completion.
  void startLeader();

  // Join the leader polling thread (leader) / no-op (others).
  void stop();

  std::uint64_t createdLocal() const { return created_.load(); }
  std::uint64_t completedLocal() const { return completed_.load(); }

  // Steady-clock nanos of the last termination-probe activity seen by this
  // locality (a completed leader poll round, or an answered/final probe
  // message on a non-leader). 0 until the first probe. The health rules'
  // probe-liveness check reads it through the telemetry Sample.
  std::uint64_t lastProbeNanos() const {
    return lastProbeNanos_.load(std::memory_order_relaxed);
  }

 private:
  void stampProbe();


  void leaderLoop();

  Locality& loc_;
  int nLoc_;
  std::atomic<std::uint64_t> created_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<bool> finished_{false};
  std::atomic<std::uint64_t> lastProbeNanos_{0};

  // Leader state: replies for the current poll round. Written by the
  // manager thread (the kSnapshotReply handler) and the leader polling
  // thread; everything but the cv is guarded by mtx.
  struct PollState {
    Mutex mtx;
    std::condition_variable cv;
    int round GUARDED_BY(mtx) = 0;
    int replies GUARDED_BY(mtx) = 0;
    std::uint64_t sumCreated GUARDED_BY(mtx) = 0;
    std::uint64_t sumCompleted GUARDED_BY(mtx) = 0;
  };
  PollState poll_;
  std::thread leaderThread_;
  std::atomic<bool> leaderRunning_{false};
};

}  // namespace yewpar::rt
