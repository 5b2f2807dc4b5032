#pragma once

// Single in-flight remote-steal slot with expiry (engine idle path, paper
// Section 4.3). A locality keeps at most one steal request outstanding; if
// the request looks lost (no reply within the timeout) the slot may be
// re-claimed, but only exactly one thief may win the expired slot, and a
// late reply to the superseded request must not free the slot while the
// renewed request is still outstanding.
//
// The send timestamp is both the slot state and the request token: kFree
// means no request in flight, any other value identifies the current
// request. Claiming - fresh or by expiry - is a single compare-exchange on
// that timestamp, so thieves racing for the same expired slot are
// arbitrated by the CAS and exactly one wins. The winner embeds the token
// in its request, the victim echoes it in the reply, and release(token)
// frees the slot only if that request still owns it: a stale reply's token
// no longer matches and leaves the slot alone. Tokens never collide while
// it matters - a monotonic clock and a strictly positive timeout make
// every superseding claim strictly newer than the claim it replaces.
//
// Concurrency discipline: the slot is a single atomic - no mutex, nothing
// for the thread-safety analysis to guard - because the whole point is that
// claim/release are lone CAS operations racing by design; the token scheme
// above, not a critical section, is what makes the races benign.
//
// Engine wiring (core/skeletons/engine.hpp): both remote steal protocols -
// pool steals (kPoolStealRequest/Reply) and stack steals
// (kStackStealRequest/Reply) - are sent by one function and share one slot
// per locality, so a locality never has more than one remote steal
// outstanding regardless of protocol. A stack-steal request between workers
// of one locality takes no slot: it waits on that locality's steal-request
// queue, at most one per worker, and its answer is a push into the pool.
// The token travels inside StealReply{token, tasks} next to the chunk;
// NACKs (empty chunks) release the slot the same way, so a refused steal
// frees the thief to try another victim immediately. Expiry covers lost
// replies on a congested fabric: the transport never drops messages, but a
// reply stuck behind a full link (see transport/shaping.hpp back-pressure)
// can arrive after the timeout, which is exactly the stale-reply case above.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <optional>

namespace yewpar::rt {

class StealSlot {
 public:
  explicit StealSlot(std::chrono::nanoseconds timeout)
      : timeoutNs_(timeout.count()) {}

  // Thief: claim the slot (fresh, or by expiring a request that looks
  // lost). On success returns the request token to send with the steal
  // request; the reply must hand it back to release().
  std::optional<std::int64_t> tryAcquire() { return tryAcquireAt(nowNs()); }

  // Clock-injectable form, used by the engine via tryAcquire() and directly
  // by tests that need a deterministic expiry.
  std::optional<std::int64_t> tryAcquireAt(std::int64_t now) {
    auto cur = state_.load(std::memory_order_acquire);
    for (;;) {
      if (cur != kFree && now - cur <= timeoutNs_) {
        return std::nullopt;  // a live request holds the slot
      }
      if (state_.compare_exchange_weak(cur, now, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        return now;
      }
      // CAS reloaded `cur`: another thief claimed first, or a reply freed
      // the slot; re-evaluate.
    }
  }

  // A reply (ACK or NACK) echoing `token` arrived. Frees the slot only if
  // the token's request still owns it; a reply to a request that was
  // expired and superseded misses and the renewed request keeps the slot.
  void release(std::int64_t token) {
    state_.compare_exchange_strong(token, kFree, std::memory_order_acq_rel,
                                   std::memory_order_relaxed);
  }

  bool inFlight() const {
    return state_.load(std::memory_order_acquire) != kFree;
  }

 private:
  static constexpr std::int64_t kFree =
      std::numeric_limits<std::int64_t>::min();

  static std::int64_t nowNs() {
    return std::chrono::steady_clock::now().time_since_epoch().count();
  }

  std::int64_t timeoutNs_;
  std::atomic<std::int64_t> state_{kFree};
};

}  // namespace yewpar::rt
