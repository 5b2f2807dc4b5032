#pragma once

// Channel<T>: an unbounded MPMC queue used inside a locality. The engine's
// steal-request queue is one (core/skeletons/engine.hpp): local and remote
// thieves post to it, and busy Stack-Stealing workers poll it with
// tryPop() behind an atomic count, so the search loop skips the lock when
// nothing is queued.
//
// Lock discipline (compile-time checked, see util/thread_annotations.hpp):
// one mutex guards the queue.

#include <deque>
#include <optional>

#include "util/thread_annotations.hpp"

namespace yewpar::rt {

template <typename T>
class Channel {
 public:
  void push(T v) EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    q_.push_back(std::move(v));
  }

  std::optional<T> tryPop() EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    if (q_.empty()) return std::nullopt;
    T v = std::move(q_.front());
    q_.pop_front();
    return v;
  }

  std::size_t size() const EXCLUDES(mtx_) {
    LockGuard lock(mtx_);
    return q_.size();
  }

  bool empty() const { return size() == 0; }

 private:
  mutable Mutex mtx_;
  std::deque<T> q_ GUARDED_BY(mtx_);
};

}  // namespace yewpar::rt
