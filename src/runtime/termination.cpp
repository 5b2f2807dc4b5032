#include "runtime/termination.hpp"

#include <chrono>

#include "runtime/profile.hpp"
#include "runtime/trace.hpp"
#include "util/archive.hpp"

namespace yewpar::rt {

TerminationDetector::TerminationDetector(Locality& loc, int nLocalities)
    : loc_(loc), nLoc_(nLocalities) {
  // All localities: answer snapshot requests with current local counters.
  loc_.registerHandler(tag::kSnapshotRequest, [this](Message&& m) {
    stampProbe();
    TermSnapshot req = fromBytes<TermSnapshot>(std::move(m.payload));
    TermSnapshot reply;
    reply.round = req.round;
    // Read completed before created: if a task completes between the two
    // loads we may under-report completed, which is safe (delays
    // termination), whereas over-reporting could be unsafe.
    reply.completed = completed_.load(std::memory_order_acquire);
    reply.created = created_.load(std::memory_order_acquire);
    loc_.send(m.src, tag::kSnapshotReply, toBytes(reply));
  });

  // All localities: leader's decision.
  loc_.registerHandler(tag::kTerminate, [this](Message&&) {
    stampProbe();
    finished_.store(true, std::memory_order_release);
  });

  if (loc_.id() == 0) {
    loc_.registerHandler(tag::kSnapshotReply, [this](Message&& m) {
      TermSnapshot s = fromBytes<TermSnapshot>(std::move(m.payload));
      LockGuard lock(poll_.mtx);
      if (static_cast<int>(s.round) != poll_.round) return;  // stale round
      poll_.replies += 1;
      poll_.sumCreated += s.created;
      poll_.sumCompleted += s.completed;
      poll_.cv.notify_all();
    });
  }
}

TerminationDetector::~TerminationDetector() { stop(); }

void TerminationDetector::stampProbe() {
  lastProbeNanos_.store(prof::nowNanos(), std::memory_order_relaxed);
}

void TerminationDetector::startLeader() {
  if (loc_.id() != 0) return;
  leaderRunning_.store(true);
  leaderThread_ = std::thread([this] { leaderLoop(); });
}

void TerminationDetector::stop() {
  if (leaderThread_.joinable()) {
    leaderRunning_.store(false);
    leaderThread_.join();
  }
}

void TerminationDetector::leaderLoop() {
  using namespace std::chrono_literals;
  trace::nameThread("L0.term");
  std::uint64_t prevCreated = ~std::uint64_t{0};
  std::uint64_t prevCompleted = ~std::uint64_t{0};
  int round = 0;

  while (leaderRunning_.load() && !finished_.load()) {
    ++round;
    // Kick off a poll round: self-snapshot plus a request to every peer.
    std::uint64_t sumCreated;
    std::uint64_t sumCompleted;
    {
      LockGuard lock(poll_.mtx);
      poll_.round = round;
      poll_.replies = 0;
      poll_.sumCompleted = completed_.load(std::memory_order_acquire);
      poll_.sumCreated = created_.load(std::memory_order_acquire);
    }
    TermSnapshot req;
    req.round = static_cast<std::uint64_t>(round);
    for (int dst = 1; dst < nLoc_; ++dst) {
      loc_.send(dst, tag::kSnapshotRequest, toBytes(req));
    }
    bool complete;
    {
      UniqueLock lock(poll_.mtx);
      const auto deadline = std::chrono::steady_clock::now() + 50ms;
      while (poll_.replies != nLoc_ - 1) {
        if (poll_.cv.wait_until(lock.native(), deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      complete = poll_.replies == nLoc_ - 1;
      sumCreated = poll_.sumCreated;
      sumCompleted = poll_.sumCompleted;
    }
    if (!complete) {
      // Lost replies (should not happen on this transport); retry round.
      prevCreated = ~std::uint64_t{0};
      continue;
    }
    stampProbe();
    trace::record(trace::Ev::kTermProbe, loc_.id(),
                  static_cast<std::uint64_t>(round),
                  sumCreated - sumCompleted);

    if (sumCreated == sumCompleted && sumCreated > 0 &&
        sumCreated == prevCreated && sumCompleted == prevCompleted) {
      // Two identical, quiescent polls: declare global termination.
      finished_.store(true, std::memory_order_release);
      for (int dst = 1; dst < nLoc_; ++dst) {
        loc_.send(dst, tag::kTerminate, {});
      }
      return;
    }
    prevCreated = sumCreated;
    prevCompleted = sumCompleted;
    std::this_thread::sleep_for(200us);
  }
}

}  // namespace yewpar::rt
