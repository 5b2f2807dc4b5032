#pragma once

// A locality models one physical machine of the paper's cluster. Following
// YewPar's split of OS threads (Section 4.3), each locality runs:
//   * one *manager* thread, owned by this class, which drains the network
//     inbox and dispatches messages to registered handlers (bound updates,
//     steal requests, task transfers, termination protocol, ...), and
//   * several *worker* threads, owned by the skeleton engine, which
//     continuously seek and execute search tasks.

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <unordered_map>

#include "runtime/message.hpp"
#include "runtime/profile.hpp"
#include "runtime/transport/transport.hpp"
#include "util/thread_annotations.hpp"

namespace yewpar::rt {

class Locality {
 public:
  using Handler = std::function<void(Message&&)>;

  // `net` is any Transport backend: the simulated in-process fabric or a
  // real TCP mesh - the locality neither knows nor cares which.
  Locality(Transport& net, int id) : net_(net), id_(id) {}

  ~Locality() { stop(); }

  Locality(const Locality&) = delete;
  Locality& operator=(const Locality&) = delete;

  int id() const { return id_; }
  Transport& network() { return net_; }

  // Register a handler for a message tag. Handlers run on the manager
  // thread; they must not block for long. Normally called before start(),
  // but the map is mutex-guarded, so late registration (or re-registration)
  // is safe too - previously a registerHandler racing the manager's lookup
  // was a data race on the map.
  void registerHandler(int tagId, Handler h) EXCLUDES(handlersMtx_) {
    LockGuard lock(handlersMtx_);
    handlers_[tagId] = std::move(h);
  }

  // Account manager handler-dispatch time (phase kManager) into `p`.
  // Call before start(); nullptr (the default) records nothing.
  void setManagerProfile(prof::WorkerProfile* p) { managerProf_ = p; }

  // Runs on the manager thread before each wait for a message and returns
  // how long that wait may last (kMaxWait without one). Set before start();
  // locality 0's termination leader is the one user.
  using WakeHook = std::function<std::chrono::microseconds()>;
  void setWakeHook(WakeHook h) { wakeHook_ = std::move(h); }
  static constexpr std::chrono::microseconds kMaxWait{500};

  // Launch the manager thread.
  void start();

  // Stop and join the manager thread. Idempotent. Messages still queued are
  // left undelivered (the search has finished by the time this is called).
  void stop();

  // Send a message from this locality.
  void send(int dst, int tagId, std::vector<std::uint8_t> payload) {
    net_.send(Message{id_, dst, tagId, std::move(payload)});
  }

  void broadcast(int tagId, const std::vector<std::uint8_t>& payload) {
    net_.broadcast(id_, tagId, payload);
  }

 private:
  void managerLoop();

  // Look up the handler for `tagId`, copying it out so the manager never
  // holds handlersMtx_ across a handler invocation (a handler may call
  // registerHandler or block on its own locks).
  Handler findHandler(int tagId) EXCLUDES(handlersMtx_);

  Transport& net_;
  int id_;
  Mutex handlersMtx_;
  std::unordered_map<int, Handler> handlers_ GUARDED_BY(handlersMtx_);
  std::thread manager_;
  std::atomic<bool> running_{false};
  prof::WorkerProfile* managerProf_ = nullptr;  // set before start()
  WakeHook wakeHook_;                           // set before start()
};

}  // namespace yewpar::rt
