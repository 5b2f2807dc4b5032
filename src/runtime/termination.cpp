#include "runtime/termination.hpp"

#include "runtime/profile.hpp"
#include "runtime/trace.hpp"
#include "util/archive.hpp"

namespace yewpar::rt {

TerminationDetector::TerminationDetector(Locality& loc, int nLocalities)
    : loc_(loc), nLoc_(nLocalities) {
  // All localities: answer snapshot requests with current local counters.
  loc_.registerHandler(tag::kSnapshotRequest, [this](Message&& m) {
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
    finished_.store(true, std::memory_order_release);
  });

  if (loc_.id() == 0) {
    loc_.registerHandler(tag::kSnapshotReply, [this](Message&& m) {
      TermSnapshot s = fromBytes<TermSnapshot>(std::move(m.payload));
      if (!roundOpen_ || s.round != round_) return;  // stale round
      sumCreated_ += s.created;
      sumCompleted_ += s.completed;
      if (++replies_ == nLoc_ - 1) closeRound();
    });
    loc_.addWakeHook([this] { return onWake(); });
  }
}

void TerminationDetector::startLeader(std::function<bool()> idle) {
  if (loc_.id() != 0) return;
  idle_ = std::move(idle);
  armed_.store(true, std::memory_order_release);
}

std::chrono::microseconds TerminationDetector::onWake() {
  if (!armed_.load(std::memory_order_acquire) || finished()) {
    return Locality::kMaxWait;
  }
  if (roundOpen_) return kPacing;  // its last reply wakes the manager
  const std::uint64_t now = prof::nowNanos();
  if (now < nextRoundNanos_) {
    return std::chrono::ceil<std::chrono::microseconds>(
        std::chrono::nanoseconds(nextRoundNanos_ - now));
  }
  if (idle_ && !idle_()) {
    // Termination cannot hold while locality 0 is busy, and a busy leader
    // is a live one.
    lastProbeNanos_.store(now, std::memory_order_relaxed);
  } else {
    openRound();
  }
  return kPacing;
}

void TerminationDetector::openRound() {
  // Self-snapshot (completed before created, as in the request handler)
  // plus a request to every peer.
  ++round_;
  roundOpen_ = true;
  replies_ = 0;
  sumCompleted_ = completed_.load(std::memory_order_acquire);
  sumCreated_ = created_.load(std::memory_order_acquire);
  if (nLoc_ == 1) return closeRound();
  TermSnapshot req;
  req.round = round_;
  for (int dst = 1; dst < nLoc_; ++dst) {
    loc_.send(dst, tag::kSnapshotRequest, toBytes(req));
  }
}

void TerminationDetector::closeRound() {
  roundOpen_ = false;
  const std::uint64_t now = prof::nowNanos();
  lastProbeNanos_.store(now, std::memory_order_relaxed);
  trace::record(trace::Ev::kTermProbe, loc_.id(), round_,
                sumCreated_ - sumCompleted_);
  if (sumCreated_ == sumCompleted_ && sumCreated_ > 0 &&
      sumCreated_ == prevCreated_ && sumCompleted_ == prevCompleted_) {
    // Two identical, quiescent rounds: declare global termination.
    finished_.store(true, std::memory_order_release);
    for (int dst = 1; dst < nLoc_; ++dst) {
      loc_.send(dst, tag::kTerminate, {});
    }
    return;
  }
  prevCreated_ = sumCreated_;
  prevCompleted_ = sumCompleted_;
  nextRoundNanos_ = now + std::chrono::nanoseconds(kPacing).count();
}

}  // namespace yewpar::rt
