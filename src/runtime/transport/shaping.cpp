#include "runtime/transport/shaping.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <stdexcept>

#include "runtime/trace.hpp"
#include "util/archive.hpp"

namespace yewpar::rt {

// ---- DelayModel ----------------------------------------------------------

double DelayModel::sampleMicros(Rng& rng) const {
  switch (kind) {
    case Kind::None:
      return 0.0;
    case Kind::Fixed:
      return std::min(a, kMaxDelayMicros);
    case Kind::Uniform:
      return std::min(a + (b - a) * rng.uniform(), kMaxDelayMicros);
    case Kind::Lognormal: {
      // Box-Muller from two uniforms; nudge u1 away from 0 so log() is
      // finite. exp(m + s*z) keeps the sample strictly positive with the
      // heavy right tail the model is for; the ceiling keeps an extreme
      // tail draw (or a silly log-mean) finite and castable.
      const double u1 = std::max(rng.uniform(), 1e-12);
      const double u2 = rng.uniform();
      const double z = std::sqrt(-2.0 * std::log(u1)) *
                       std::cos(2.0 * 3.141592653589793 * u2);
      return std::min(std::exp(a + b * z), kMaxDelayMicros);
    }
  }
  return 0.0;
}

namespace {

// Parse a double strictly: the whole of `s` must be consumed, and the
// value must be finite (strtod accepts "nan"/"inf", which would poison the
// delay arithmetic and the int64 cast at the sampling site).
double parseDouble(const std::string& s, const std::string& spec) {
  const char* begin = s.c_str();
  char* end = nullptr;
  const double v = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || !std::isfinite(v)) {
    throw std::invalid_argument("bad number '" + s + "' in delay model: " +
                                spec);
  }
  return v;
}

// Split "a,b" after the colon of "uniform:a,b" / "lognormal:m,s".
std::pair<double, double> parsePair(const std::string& args,
                                    const std::string& spec) {
  const auto comma = args.find(',');
  if (comma == std::string::npos) {
    throw std::invalid_argument("delay model needs two comma-separated "
                                "values: " + spec);
  }
  return {parseDouble(args.substr(0, comma), spec),
          parseDouble(args.substr(comma + 1), spec)};
}

}  // namespace

DelayModel DelayModel::parse(const std::string& spec) {
  DelayModel m;
  if (spec == "none") return m;
  if (spec.rfind("fixed:", 0) == 0) {
    m.kind = Kind::Fixed;
    m.a = parseDouble(spec.substr(6), spec);
    if (m.a < 0) {
      throw std::invalid_argument("fixed delay must be >= 0 us: " + spec);
    }
    return m;
  }
  if (spec.rfind("uniform:", 0) == 0) {
    m.kind = Kind::Uniform;
    std::tie(m.a, m.b) = parsePair(spec.substr(8), spec);
    if (m.a < 0 || m.b < m.a) {
      throw std::invalid_argument(
          "uniform delay needs 0 <= a <= b us: " + spec);
    }
    return m;
  }
  if (spec.rfind("lognormal:", 0) == 0) {
    m.kind = Kind::Lognormal;
    std::tie(m.a, m.b) = parsePair(spec.substr(10), spec);
    if (m.b < 0) {
      throw std::invalid_argument(
          "lognormal delay needs sigma >= 0: " + spec);
    }
    return m;
  }
  throw std::invalid_argument(
      "unknown delay model: " + spec +
      " (expected none|fixed:us|uniform:a,b|lognormal:m,s)");
}

namespace {

std::string trimmedDouble(double v) {
  std::string s = std::to_string(v);
  while (!s.empty() && s.back() == '0') s.pop_back();
  if (!s.empty() && s.back() == '.') s.pop_back();
  return s;
}

}  // namespace

std::string DelayModel::name() const {
  switch (kind) {
    case Kind::None: return "none";
    case Kind::Fixed: return "fixed:" + trimmedDouble(a);
    case Kind::Uniform:
      return "uniform:" + trimmedDouble(a) + "," + trimmedDouble(b);
    case Kind::Lognormal:
      return "lognormal:" + trimmedDouble(a) + "," + trimmedDouble(b);
  }
  return "?";
}

// ---- batched-frame container ---------------------------------------------

std::vector<std::uint8_t> encodeBatchedFrame(
    const std::vector<Message>& frame) {
  OArchive a;
  a << static_cast<std::uint64_t>(frame.size());
  for (const auto& m : frame) {
    a << static_cast<std::int32_t>(m.tag) << m.payload;
  }
  return std::move(a).takeBytes();
}

std::vector<Message> decodeBatchedFrame(int src, int dst,
                                        std::vector<std::uint8_t> payload) {
  IArchive a(std::move(payload));
  std::uint64_t n = 0;
  a >> n;
  if (n == 0) {
    throw ArchiveError("batched frame holds zero messages");
  }
  std::vector<Message> out;
  // A valid container needs >= 12 bytes per message (tag + length prefix);
  // bound the reservation and let the per-message reads throw the moment a
  // lying count runs the payload dry.
  out.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, 4096)));
  for (std::uint64_t i = 0; i < n; ++i) {
    std::int32_t t = 0;
    std::vector<std::uint8_t> p;
    a >> t >> p;
    out.push_back(Message{src, dst, static_cast<int>(t), std::move(p)});
  }
  if (!a.exhausted()) {
    throw ArchiveError("trailing bytes after batched frame");
  }
  return out;
}

// Default frame handoff for backends without per-message wire machinery:
// one message passes through unchanged, a real batch rides a single
// tag::kBatchedFrame container message (and therefore one wire frame on
// the TCP backend). Lives here rather than transport.hpp because the
// container format is the shaping layer's.
void Transport::sendFrame(std::vector<Message> frame) {
  if (frame.empty()) return;
  if (frame.size() == 1) {
    send(std::move(frame.front()));
    return;
  }
  const int src = frame.front().src;
  const int dst = frame.front().dst;
  send(Message{src, dst, tag::kBatchedFrame, encodeBatchedFrame(frame)});
}

// ---- ShapedTransport -----------------------------------------------------

ShapedTransport::ShapedTransport(Transport& inner, NetConfig cfg)
    : inner_(inner), n_(inner.size()), cfg_(cfg) {
  assert(n_ >= 1);
  if (cfg_.batchSize == 0) cfg_.batchSize = 1;
  const auto n = static_cast<std::size_t>(n_);
  links_.reserve(n * n);
  for (std::size_t i = 0; i < n * n; ++i) {
    links_.push_back(std::make_unique<Link>());
    links_.back()->src = static_cast<int>(i / n);
    links_.back()->dst = static_cast<int>(i % n);
  }
  pending_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pending_.push_back(std::make_unique<PendingBox>());
  }
}

void ShapedTransport::promoteLocked(Link& l, Clock::time_point now,
                                    bool force) {
  if (l.spill.empty()) return;
  std::uint64_t backlog = 0;
  std::size_t slots = l.spill.size();
  if (!force && cfg_.queueCap != 0) {
    backlog = inner_.linkBacklogNow(l.src, l.dst);
    slots = cfg_.queueCap > backlog
                ? cfg_.queueCap - static_cast<std::size_t>(backlog)
                : 0;
    if (slots > l.spill.size()) slots = l.spill.size();
  }
  if (slots == 0) return;
  std::vector<Message> out;
  out.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) {
    Shed s = std::move(l.spill.front());
    l.spill.pop_front();
    // Charge the congestion wait (shed -> promotion) to the histogram.
    const auto waitedUs = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(now - s.shedAt)
            .count());
    l.latency[static_cast<std::size_t>(netLatencyBucketFor(waitedUs))] += 1;
    out.push_back(std::move(s.msg));
  }
  if (!force && cfg_.queueCap != 0) {
    // What this handoff made the inner link hold; bounded by the cap since
    // the promoted count never exceeds the free slots.
    const std::size_t depth = static_cast<std::size_t>(backlog) + out.size();
    if (depth > l.queueHighWater) l.queueHighWater = depth;
  }
  // No frame counter here: the frame was counted when its batch flushed;
  // promotion is the same messages finally reaching the wire.
  inner_.sendFrame(std::move(out));
}

void ShapedTransport::flushLocked(Link& l, Clock::time_point now,
                                  bool force) {
  promoteLocked(l, now, force);
  if (l.buffer.empty()) return;
  // The frame and its batched/immediate split are counted at flush time,
  // whether the batch reaches the wire now or sheds to the spill list:
  // batched + immediate == messages holds exactly once every buffer has
  // flushed, independent of back-pressure still delaying delivery.
  l.frames.fetch_add(1, std::memory_order_relaxed);
  trace::record(trace::Ev::kFrameSend, l.src,
                static_cast<std::uint64_t>(l.dst), l.buffer.size());
  if (l.buffer.size() >= 2) {
    l.batched.fetch_add(l.buffer.size(), std::memory_order_relaxed);
  } else {
    l.immediate.fetch_add(1, std::memory_order_relaxed);
  }
  std::vector<Message> out;
  if (!force && !l.spill.empty()) {
    // Older sheds are still waiting for slots: FIFO puts the whole batch
    // behind them.
    for (auto& m : l.buffer) {
      l.spilled.fetch_add(1, std::memory_order_relaxed);
      l.spill.push_back(Shed{now, std::move(m)});
    }
  } else if (!force && cfg_.queueCap != 0) {
    const std::uint64_t backlog = inner_.linkBacklogNow(l.src, l.dst);
    const std::size_t slots =
        cfg_.queueCap > backlog
            ? cfg_.queueCap - static_cast<std::size_t>(backlog)
            : 0;
    if (slots >= l.buffer.size()) {
      out = std::move(l.buffer);
    } else {
      out.assign(
          std::make_move_iterator(l.buffer.begin()),
          std::make_move_iterator(l.buffer.begin() +
                                  static_cast<std::ptrdiff_t>(slots)));
      for (std::size_t i = slots; i < l.buffer.size(); ++i) {
        l.spilled.fetch_add(1, std::memory_order_relaxed);
        l.spill.push_back(Shed{now, std::move(l.buffer[i])});
      }
    }
    if (!out.empty()) {
      const std::size_t depth =
          static_cast<std::size_t>(backlog) + out.size();
      if (depth > l.queueHighWater) l.queueHighWater = depth;
    }
  } else {
    out = std::move(l.buffer);
  }
  l.buffer.clear();
  if (!out.empty()) inner_.sendFrame(std::move(out));
}

void ShapedTransport::send(Message m) {
  assert(m.src >= 0 && m.src < n_ && m.dst >= 0 && m.dst < n_);
  const int dst = m.dst;
  if (m.src == dst) {
    // Loopback (the manager shutdown nudge): no batching, no cap - it must
    // arrive even on a congested fabric - and no link to count or trace.
    inner_.send(std::move(m));
    return;
  }
  Link& l = link(m.src, dst);
  const auto now = Clock::now();
  LockGuard lock(l.mtx);
  l.messages.fetch_add(1, std::memory_order_relaxed);
  l.bytes.fetch_add(m.payload.size(), std::memory_order_relaxed);
  if (l.buffer.empty()) l.flushDue = now + cfg_.flushAfter;
  l.buffer.push_back(std::move(m));
  if (l.buffer.size() >= cfg_.batchSize) flushLocked(l, now, false);
}

void ShapedTransport::sendFrame(std::vector<Message> frame) {
  for (auto& m : frame) send(std::move(m));
}

void ShapedTransport::flushAll() {
  const auto now = Clock::now();
  for (auto& lp : links_) {
    LockGuard lock(lp->mtx);
    flushLocked(*lp, now, /*force=*/true);
  }
  inner_.flushAll();
}

void ShapedTransport::shutdown() {
  flushAll();
  inner_.shutdown();
}

void ShapedTransport::tick(int loc, Clock::time_point now) {
  for (int other = 0; other < n_; ++other) {
    if (other == loc) continue;
    // Both directions: outbound links so a rank's own poll loop flushes
    // what it buffered (its peers poll through their own shapers and
    // cannot), and inbound links so a receiver sharing this shaper with
    // its senders (the InProcTransport facade) flushes their overdue
    // batches.
    for (Link* lp : {&link(other, loc), &link(loc, other)}) {
      Link& l = *lp;
      LockGuard lock(l.mtx);
      if (!l.buffer.empty() && l.flushDue <= now) {
        flushLocked(l, now, false);
      } else {
        promoteLocked(l, now, false);
      }
    }
  }
}

ShapedTransport::Clock::time_point ShapedTransport::nextFlushDue(int loc) {
  auto next = Clock::time_point::max();
  for (int other = 0; other < n_; ++other) {
    if (other == loc) continue;
    for (Link* lp : {&link(other, loc), &link(loc, other)}) {
      Link& l = *lp;
      LockGuard lock(l.mtx);
      if (!l.buffer.empty() && l.flushDue < next) next = l.flushDue;
    }
  }
  return next;
}

std::optional<Message> ShapedTransport::takePending(int loc) {
  PendingBox& box = *pending_[static_cast<std::size_t>(loc)];
  LockGuard lock(box.mtx);
  if (box.q.empty()) return std::nullopt;
  Message m = std::move(box.q.front());
  box.q.pop_front();
  return m;
}

Message ShapedTransport::resolve(int loc, Message m) {
  if (m.tag != tag::kBatchedFrame) return m;
  // A shaped peer packed several messages into this frame; unpack and queue
  // the tail ahead of anything newer from the inner transport (per-link
  // FIFO). Malformed containers throw ArchiveError to the caller, exactly
  // like a malformed payload inside a message would.
  auto msgs = decodeBatchedFrame(m.src, m.dst, std::move(m.payload));
  Message first = std::move(msgs.front());
  PendingBox& box = *pending_[static_cast<std::size_t>(loc)];
  {
    LockGuard lock(box.mtx);
    for (std::size_t i = 1; i < msgs.size(); ++i) {
      box.q.push_back(std::move(msgs[i]));
    }
  }
  return first;
}

std::optional<Message> ShapedTransport::tryRecv(int loc) {
  tick(loc, Clock::now());
  if (auto m = takePending(loc)) return m;
  if (auto m = inner_.tryRecv(loc)) return resolve(loc, std::move(*m));
  return std::nullopt;
}

std::optional<Message> ShapedTransport::recvWait(
    int loc, std::chrono::microseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (;;) {
    const auto now = Clock::now();
    tick(loc, now);
    if (auto m = takePending(loc)) return m;
    if (auto m = inner_.tryRecv(loc)) return resolve(loc, std::move(*m));
    if (now >= deadline) return std::nullopt;
    // Sleep in the inner transport, but never past the next known batch
    // deadline; cap the slice so a batch buffered by a sender AFTER this
    // wake time was computed (which cannot wake a sleeping inner receiver
    // by itself) still flushes within ~flushAfter plus one poll, rather
    // than stranding until the caller's timeout.
    auto wake = std::min(deadline, nextFlushDue(loc));
    const auto cap =
        now + std::max(cfg_.flushAfter, std::chrono::microseconds(500));
    if (cap < wake) wake = cap;
    const auto slice =
        std::chrono::duration_cast<std::chrono::microseconds>(wake - now);
    if (auto m = inner_.recvWait(loc, slice)) {
      return resolve(loc, std::move(*m));
    }
  }
}

// ---- accounting ----------------------------------------------------------

MetricsSnapshot ShapedTransport::traffic() const {
  MetricsSnapshot s = inner_.traffic();
  for (const auto& l : links_) s += linkStats(l->src, l->dst);
  return s;
}

MetricsSnapshot ShapedTransport::linkStats(int src, int dst) const {
  const Link& l = link(src, dst);
  MetricsSnapshot s;
  s.networkMessages = l.messages.load(std::memory_order_relaxed);
  s.networkBytes = l.bytes.load(std::memory_order_relaxed);
  s.networkFrames = l.frames.load(std::memory_order_relaxed);
  s.networkBatched = l.batched.load(std::memory_order_relaxed);
  s.networkImmediate = l.immediate.load(std::memory_order_relaxed);
  s.networkSpills = l.spilled.load(std::memory_order_relaxed);
  LockGuard lock(l.mtx);
  s.linkQueueHighWater = l.queueHighWater;
  s.netLatencyHist = l.latency;
  return s;
}

std::uint64_t ShapedTransport::queuedMessagesNow() const {
  std::uint64_t total = inner_.queuedMessagesNow();
  for (const auto& l : links_) {
    LockGuard lock(l->mtx);
    total += l->buffer.size() + l->spill.size();
  }
  for (const auto& b : pending_) {
    LockGuard lock(b->mtx);
    total += b->q.size();
  }
  return total;
}

std::uint64_t ShapedTransport::maxLinkQueueNow() const {
  std::uint64_t deepest = 0;
  for (const auto& l : links_) {
    LockGuard lock(l->mtx);
    const std::uint64_t depth = l->buffer.size() + l->spill.size() +
                                inner_.linkBacklogNow(l->src, l->dst);
    if (depth > deepest) deepest = depth;
  }
  return deepest;
}

std::uint64_t ShapedTransport::linkBacklogNow(int src, int dst) const {
  const Link& l = link(src, dst);
  LockGuard lock(l.mtx);
  return l.buffer.size() + l.spill.size() + inner_.linkBacklogNow(src, dst);
}

}  // namespace yewpar::rt
