#include "runtime/locality.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "runtime/trace.hpp"
#include "util/archive.hpp"

namespace yewpar::rt {

void Locality::start() {
  if (running_.exchange(true)) return;
  manager_ = std::thread([this] { managerLoop(); });
}

void Locality::stop() {
  if (!running_.load()) return;
  // Wake the manager via a self-addressed shutdown message so it exits even
  // while blocked in recvWait.
  send(id_, tag::kShutdownManager, {});
  if (manager_.joinable()) manager_.join();
  running_.store(false);
}

void Locality::requireStopped(const char* setter) const {
  if (running_.load()) {
    throw std::logic_error(std::string("Locality::") + setter +
                           " after start(): handlers and wake hooks are "
                           "fixed while the manager runs");
  }
}

void Locality::managerLoop() {
  // Formatted in place: gcc 12's -Wrestrict misfires at -O3 on the
  // "L" + std::to_string(id_) concatenation.
  char name[32];
  std::snprintf(name, sizeof name, "L%d.mgr", id_);
  trace::nameThread(name);
  while (true) {
    auto timeout = kMaxWait;
    for (const auto& hook : wakeHooks_) timeout = std::min(timeout, hook());
    std::optional<Message> msg;
    try {
      msg = net_.recvWait(id_, timeout);
    } catch (const ArchiveError& e) {
      // The shaping layer decodes tag::kBatchedFrame containers inside
      // recvWait; a corrupt container must surface as a dropped frame,
      // never terminate the rank (same contract as the handler catch
      // below). Handshake guards make this unreachable for same-build
      // meshes.
      std::fprintf(stderr,
                   "yewpar: locality %d: dropping malformed batched frame: "
                   "%s\n",
                   id_, e.what());
      continue;
    }
    if (!msg) continue;
    if (msg->tag == tag::kShutdownManager) return;
    if (const auto it = handlers_.find(msg->tag); it != handlers_.end()) {
      const int tagId = msg->tag;
      const int from = msg->src;
      // Only handler dispatch counts as manager time: recvWait above is
      // the manager's idle loop, not work (runtime/profile.hpp).
      prof::ScopedPhase phase(managerProf_, prof::Phase::kManager);
      try {
        it->second(std::move(*msg));
      } catch (const ArchiveError& e) {
        // A malformed payload (truncated/overlong/trailing bytes) from a
        // peer must surface as a dropped message, never terminate the
        // rank: an exception escaping the manager thread would abort the
        // process. Handshake guards make this unreachable for same-build
        // meshes; it covers corrupted or replayed frames.
        std::fprintf(stderr,
                     "yewpar: locality %d: dropping malformed message "
                     "(tag %d from %d): %s\n",
                     id_, tagId, from, e.what());
      }
    }
    // Unhandled tags are dropped; this matches dropping messages that arrive
    // after the subsystem that owned them has been torn down.
  }
}

}  // namespace yewpar::rt
