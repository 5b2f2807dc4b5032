#include "runtime/transport/inproc.hpp"

#include <algorithm>
#include <cassert>

#include "runtime/trace.hpp"

namespace yewpar::rt {

// ---- InProcFabric --------------------------------------------------------

InProcFabric::InProcFabric(int nLocalities, NetConfig cfg)
    : n_(nLocalities), cfg_(cfg) {
  assert(nLocalities >= 1);
  const auto n = static_cast<std::size_t>(n_);
  links_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    links_.push_back(std::make_unique<Link>());
    // Uncontended (no other thread can see the link yet); taken so the
    // guarded-field discipline holds even during construction.
    LockGuard lock(links_.back()->mtx);
    links_.back()->delayRng = Rng(mix64(cfg_.seed, i + 1));
  }
  inboxes_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    inboxes_.push_back(std::make_unique<Inbox>());
  }
}

void InProcFabric::enqueueLocked(Link& l, Message m, Clock::time_point now) {
  const auto delay = std::chrono::microseconds(
      static_cast<std::int64_t>(cfg_.delay.sampleMicros(l.delayRng)));
  auto deliverAt = now + delay;
  // FIFO per link: never deliver before a predecessor on the same link.
  if (deliverAt < l.fifoFloor) deliverAt = l.fifoFloor;
  l.fifoFloor = deliverAt;
  // Modelled latency: the sampled delay plus any FIFO clamp. Congestion
  // waits (shed-to-spill) are charged by the shaping layer, not here.
  const auto latencyUs = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(deliverAt - now)
          .count());
  l.latency[static_cast<std::size_t>(netLatencyBucketFor(latencyUs))] += 1;
  l.queue.push_back(Pending{deliverAt, std::move(m)});
}

void InProcFabric::send(Message m) {
  assert(m.src >= 0 && m.src < n_ && m.dst >= 0 && m.dst < n_);
  const int dst = m.dst;
  const auto now = Clock::now();
  Link& l = link(m.src, dst);
  {
    LockGuard lock(l.mtx);
    if (m.src == dst) {
      // Loopback: no modelled delay - it must arrive even on a slow fabric.
      l.queue.push_back(Pending{now, std::move(m)});
    } else {
      enqueueLocked(l, std::move(m), now);
    }
  }
  notifyInbox(dst);
}

void InProcFabric::sendFrame(std::vector<Message> frame) {
  if (frame.empty()) return;
  const int dst = frame.front().dst;
  const int src = frame.front().src;
  assert(src >= 0 && src < n_ && dst >= 0 && dst < n_);
  const auto now = Clock::now();
  Link& l = link(src, dst);
  {
    LockGuard lock(l.mtx);
    for (auto& m : frame) {
      assert(m.src == src && m.dst == dst);
      enqueueLocked(l, std::move(m), now);
    }
  }
  notifyInbox(dst);
}

std::optional<Message> InProcFabric::pollNow(int loc, Clock::time_point now) {
  Inbox& box = *inboxes_[static_cast<std::size_t>(loc)];
  int start;
  {
    LockGuard g(box.mtx);
    start = box.nextSrc;
    box.nextSrc = (box.nextSrc + 1) % n_;
  }
  for (int i = 0; i < n_; ++i) {
    const int src = (start + i) % n_;
    Link& l = link(src, loc);
    LockGuard lock(l.mtx);
    if (!l.queue.empty() && l.queue.front().deliverAt <= now) {
      Message m = std::move(l.queue.front().msg);
      l.queue.pop_front();
      trace::record(trace::Ev::kFrameRecv, loc,
                    static_cast<std::uint64_t>(src), m.payload.size());
      return m;
    }
  }
  return std::nullopt;
}

std::optional<Message> InProcFabric::tryRecv(int loc) {
  return pollNow(loc, Clock::now());
}

InProcFabric::Clock::time_point InProcFabric::nextEventTime(int loc) {
  auto next = Clock::time_point::max();
  for (int src = 0; src < n_; ++src) {
    Link& l = link(src, loc);
    LockGuard lock(l.mtx);
    if (!l.queue.empty() && l.queue.front().deliverAt < next) {
      next = l.queue.front().deliverAt;
    }
  }
  return next;
}

std::optional<Message> InProcFabric::recvWait(
    int loc, std::chrono::microseconds timeout) {
  Inbox& box = *inboxes_[static_cast<std::size_t>(loc)];
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    std::uint64_t ver;
    {
      LockGuard g(box.mtx);
      ver = box.version;
    }
    auto now = Clock::now();
    if (auto m = pollNow(loc, now)) return m;
    if (now >= deadline) return std::nullopt;
    // Sleep until a sender bumps the version, the next queued delivery
    // matures, or the caller's deadline. Explicit predicate loop (not a
    // wait lambda) so the thread-safety analysis sees box.version read with
    // box.mtx held.
    const auto wake = std::min(deadline, nextEventTime(loc));
    UniqueLock lk(box.mtx);
    while (box.version == ver) {
      if (box.cv.wait_until(lk.native(), wake) == std::cv_status::timeout) {
        break;
      }
    }
  }
}

void InProcFabric::notifyInbox(int dst) {
  Inbox& box = *inboxes_[static_cast<std::size_t>(dst)];
  {
    LockGuard g(box.mtx);
    ++box.version;
  }
  box.cv.notify_all();
}

std::uint64_t InProcFabric::queuedFrom(int src) const {
  std::uint64_t total = 0;
  const auto [lo, hi] = linksFrom(src);
  for (std::size_t i = lo; i < hi; ++i) {
    LockGuard lock(links_[i]->mtx);
    total += links_[i]->queue.size();
  }
  return total;
}

std::uint64_t InProcFabric::maxLinkQueueFrom(int src) const {
  std::uint64_t deepest = 0;
  const auto [lo, hi] = linksFrom(src);
  for (std::size_t i = lo; i < hi; ++i) {
    LockGuard lock(links_[i]->mtx);
    deepest = std::max<std::uint64_t>(deepest, links_[i]->queue.size());
  }
  return deepest;
}

std::uint64_t InProcFabric::linkBacklogNow(int src, int dst) const {
  const Link& l = link(src, dst);
  LockGuard lock(l.mtx);
  return l.queue.size();
}

MetricsSnapshot InProcFabric::trafficFrom(int src) const {
  MetricsSnapshot out;
  const auto [lo, hi] = linksFrom(src);
  for (std::size_t i = lo; i < hi; ++i) {
    LockGuard lock(links_[i]->mtx);
    for (std::size_t b = 0; b < out.netLatencyHist.size(); ++b) {
      out.netLatencyHist[b] += links_[i]->latency[b];
    }
  }
  return out;
}

void InProcFabric::declareDead(int rank, const std::string& why) {
  const auto now = Clock::now();
  for (int r = 0; r < n_; ++r) {
    if (r == rank) continue;
    {
      // Like a loopback message: no modelled delay, no FIFO floor, no
      // histogram sample; the link's queue still keeps it behind `rank`'s
      // earlier messages.
      Link& l = link(rank, r);
      LockGuard lock(l.mtx);
      l.queue.push_back(Pending{
          now, Message{rank, r, tag::kPeerDead, {why.begin(), why.end()}}});
    }
    trace::record(trace::Ev::kPeerDead, r, static_cast<std::uint64_t>(rank));
    notifyInbox(r);
  }
}

}  // namespace yewpar::rt
