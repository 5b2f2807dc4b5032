#pragma once

// Parallel skeleton engine (paper Section 4.3).
//
// The engine instantiates, per locality: a manager thread (message handling),
// a team of worker threads, an order-preserving workpool, a knowledge
// registry, a termination detector and a steal-request queue. Each parallel
// coordination plugs a hook set on dfs.hpp's one search loop, and an idle
// policy unless the default (a remote pool steal) suits it, into the shared
// worker loop.
//
// Distributed-memory discipline: a locality touches another locality's state
// only through serialized messages (tasks, bounds, steals, termination
// snapshots) - see docs/ARCHITECTURE.md "Message lifecycle".

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/nodegen.hpp"
#include "core/outcome.hpp"
#include "core/params.hpp"
#include "core/search_ops.hpp"
#include "runtime/channel.hpp"
#include "runtime/health.hpp"
#include "runtime/locality.hpp"
#include "runtime/profile.hpp"
#include "runtime/statusd.hpp"
#include "runtime/steal_slot.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport/inproc.hpp"
#include "runtime/transport/shaping.hpp"
#include "runtime/transport/tcp.hpp"
#include "runtime/termination.hpp"
#include "runtime/worker_team.hpp"
#include "runtime/workpool.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace yewpar::detail {

using namespace std::chrono_literals;

// A search task: an unexplored subtree, identified by its root node and the
// depth of that root in the global tree (the depth keys the DepthPool).
template <typename Node>
struct EngineTask {
  Node node{};
  std::int32_t depth = 0;
  // Position in the Sequential skeleton's traversal order; only meaningful
  // (and only assigned) under the Ordered coordination's priority pool.
  std::uint64_t seq = 0;

  void save(OArchive& a) const { a << node << depth << seq; }
  void load(IArchive& a) { a >> node >> depth >> seq; }
};

// Per-locality engine state.
template <typename Gen, typename SearchType, typename Bound,
          bool PruneLvl = false>
class EngineCtx {
 public:
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Ops = SearchOps<Gen, SearchType, Bound>;
  using Reg = typename Ops::Reg;
  using Task = EngineTask<Node>;
  static constexpr bool kPruneLevel = PruneLvl;

  // Cache-line aligned: each worker bumps its own acc on every node, and two
  // workers' states sharing a line made a 3-worker UTS run ~1.5x slower.
  struct alignas(64) WorkerState {
    int id = 0;
    Rng rng;
    // This worker's stack-steal request is on the locality's queue; set by
    // the worker, cleared by whoever answers it.
    std::atomic<bool> stealRequested{false};
    typename Ops::WorkerAcc acc;
  };

  EngineCtx(rt::Transport& net, int id, const Params& params,
            const std::vector<std::uint8_t>& spaceBytes)
      : params_(params),
        locality_(net, id),
        term_(locality_, params.nLocalities),
        pool_(rt::makeWorkpool<Task>(
            params.pool,
            rt::PoolConfig{params.effectiveOrderedShards(),
                           params.orderedWindow, id})),
        profile_(params.workersPerLocality),
        space_(fromBytes<Space>(spaceBytes)),
        health_(rt::health::Config{.stallWarn = std::chrono::milliseconds(
                                       params.stallWarnMs)},
                id),
        tick_(params.sampleIntervalMs, params.healthIntervalMs, health_,
              [this] { return sample(); }) {
    reg_.loc = &locality_;
    reg_.decisionTarget = params.decisionTarget;
    reg_.maxNodes = params.maxNodes;
    locality_.setManagerProfile(&profile_.manager());
    locality_.addWakeHook(
        [this] { return tick_.poll(rt::prof::nowNanos()); });

    workers_.reserve(static_cast<std::size_t>(params.workersPerLocality));
    for (int w = 0; w < params.workersPerLocality; ++w) {
      auto ws = std::make_unique<WorkerState>();
      ws->id = w;
      ws->rng = Rng(0x9E3779B9ULL * static_cast<std::uint64_t>(id + 1) +
                    static_cast<std::uint64_t>(w));
      workers_.push_back(std::move(ws));
    }

    registerHandlers();
  }

  // The manager runs handlers and hooks that read every member below.
  ~EngineCtx() { locality_.stop(); }

  EngineCtx(const EngineCtx&) = delete;
  EngineCtx& operator=(const EngineCtx&) = delete;

  const Params& params() const { return params_; }
  rt::Locality& locality() { return locality_; }
  rt::TerminationDetector& term() { return term_; }
  rt::Workpool<Task>& pool() { return *pool_; }
  Reg& reg() { return reg_; }
  const Space& space() const { return space_; }
  std::vector<std::unique_ptr<WorkerState>>& workers() { return workers_; }
  int id() const { return locality_.id(); }
  rt::prof::Profile& profile() { return profile_; }
  const rt::health::Rules& health() const { return health_; }
  rt::telemetry::Tick& tick() { return tick_; }

  // The one builder of this rank's telemetry Sample: the tick's CSV rows and
  // health windows, every status scrape and, after quiesce, the final Sample
  // the gather ships all come from here. `teamWallNanos` stamps the profile
  // (0 for live Samples, taken while the team runs).
  rt::telemetry::Sample sample(std::uint64_t teamWallNanos = 0) {
    rt::telemetry::Sample s;
    s.tNanos = rt::prof::nowNanos();
    s.rank = id();
    s.searchActive = !term_.finished();
    s.poolDepth = pool_->size();
    const auto& net = locality_.network();
    s.netQueued = net.queuedMessagesNow();
    s.netQueuedMaxLink = net.maxLinkQueueNow();
    const std::int64_t bound = reg_.localBound.load(std::memory_order_relaxed);
    if (bound != kObjMin) s.objective = bound;
    s.lastProbeNanos = term_.lastProbeNanos();
    auto& m = s.metrics;
    m = reg_.metrics.snapshot();
    m.tasksSpawned = term_.createdLocal();
    m.poolLockContentions = pool_->lockContentions();
    m.healthWarnings = health_.totalFirings();
    m += net.traffic();
    s.profile = profile_.snapshot(id(), teamWallNanos);
    return s;
  }

  // ---- spawning ------------------------------------------------------

  // Spawn a task into the local workpool (all spawn rules push locally; work
  // moves between localities only by stealing). `worker` attributes the push
  // for shard routing in sharded pools; -1 = unattributed (round-robin),
  // which is deliberate for the Ordered prefix expansion - its entire
  // frontier is spawned by the one worker running the root task, and
  // spreading it across shards is what removes the contention point.
  void spawn(Task task, int worker = -1) {
    if (reg_.stop.load(std::memory_order_relaxed)) return;
    term_.taskCreated();
    push(std::move(task), worker);
  }

  // ---- knowledge -----------------------------------------------------

  void broadcastBound(std::int64_t b) {
    if (params_.nLocalities > 1) {
      locality_.broadcast(rt::tag::kBoundUpdate, toBytes(b));
    }
    reg_.metrics.boundBroadcasts.fetch_add(1, std::memory_order_relaxed);
    rt::trace::record(rt::trace::Ev::kBoundBroadcast, id(),
                      static_cast<std::uint64_t>(b));
  }

  // Raise the global stop flag (decision short-circuit / node cap).
  void raiseStop() {
    if (!reg_.stop.exchange(true)) {
      if (params_.nLocalities > 1) {
        locality_.broadcast(rt::tag::kStopSearch, {});
      }
    }
  }

  // Visit one node (SearchOps::visit), then broadcast an improved bound and
  // raise stop on a short-circuit.
  Action visit(typename Ops::WorkerAcc& acc, const Node& node) {
    const auto res = Ops::visit(reg_, acc, space_, node);
    if (res.broadcastBound) {
      rt::trace::record(rt::trace::Ev::kIncumbent, id(),
                        static_cast<std::uint64_t>(*res.broadcastBound));
      broadcastBound(*res.broadcastBound);
    }
    if (res.action == Action::Stop) raiseStop();
    return res.action;
  }

  bool stopped() const { return reg_.stop.load(std::memory_order_relaxed); }

  // ---- stealing ------------------------------------------------------

  int randomPeer(Rng& rng) {
    // Uniform over other localities.
    int n = params_.nLocalities;
    int r = static_cast<int>(rng.below(static_cast<std::uint64_t>(n - 1)));
    return r >= id() ? r + 1 : r;
  }

  // A steal reply: the echoed request token (so the thief's steal slot can
  // tell a current reply from a stale one) plus the stolen chunk - zero or
  // more tasks in one message (empty = NACK), sized by Params::chunk.
  struct StealReply {
    std::int64_t token = 0;
    std::vector<Task> tasks;

    void save(OArchive& a) const { a << token << tasks; }
    void load(IArchive& a) { a >> token >> tasks; }
  };

  // A stack-steal request awaiting a busy worker: a remote thief's rank and
  // steal-slot token, or this rank and a local thief's worker id.
  struct StealRequest {
    int origin = 0;
    std::int64_t token = 0;
  };

  // One rank's final results for rank 0's merge, shipped under
  // tag::kGatherReply by every other rank: its final telemetry Sample's
  // metrics (transport counters included) and phase profile, the
  // enumeration accumulator, the rank's best incumbent and, under --trace,
  // its trace batch (empty otherwise).
  struct GatherMsg {
    rt::MetricsSnapshot metrics;
    rt::prof::ProfileSnapshot profile;
    std::uint8_t truncated = 0;
    typename Ops::EnumValue sum{};
    std::uint8_t hasIncumbent = 0;
    Node incumbent{};
    std::int64_t objective = kObjMin;
    rt::trace::Batch trace;

    void save(OArchive& a) const {
      a << metrics << profile << truncated << sum << hasIncumbent
        << incumbent << objective << trace;
    }
    void load(IArchive& a) {
      a >> metrics >> profile >> truncated >> sum >> hasIncumbent >>
          incumbent >> objective >> trace;
    }
  };

  // Ask a random remote locality for work: `tag` is kPoolStealRequest (its
  // manager answers from the workpool) or kStackStealRequest (a busy worker
  // there answers from its stack). At most one request in flight per
  // locality; a stuck request expires after kStealTimeout.
  void requestRemoteSteal(Rng& rng, int tag) {
    if (params_.nLocalities < 2) return;
    auto token = stealSlot_.tryAcquire();
    if (!token) return;
    const int victim = randomPeer(rng);
    rt::trace::record(rt::trace::Ev::kStealRequest, id(),
                      static_cast<std::uint64_t>(victim),
                      static_cast<std::uint64_t>(*token));
    locality_.send(victim, tag, toBytes(*token));
  }

  // Post worker `ws`'s stack-steal request on this locality's queue, for the
  // first busy worker to reach an expansion step. At most one per worker is
  // outstanding.
  void requestLocalSteal(WorkerState& ws) {
    if (ws.stealRequested.exchange(true)) return;
    rt::trace::record(rt::trace::Ev::kLocalStealRequest, id(),
                      static_cast<std::uint64_t>(ws.id));
    postStealRequest({id(), ws.id});
  }

  // The one steal-request queue a Stack-Stealing victim answers, fed by
  // local and remote thieves alike. The atomic count lets the search loop
  // skip the channel lock when nothing is pending.
  bool hasStealRequest() const {
    return pendingSteals_.load(std::memory_order_relaxed) > 0;
  }

  std::optional<StealRequest> takeStealRequest() {
    auto req = stealRequests_.tryPop();
    if (req) pendingSteals_.fetch_sub(1, std::memory_order_relaxed);
    return req;
  }

  // Victim side: worker `victim` answers `req`, which it took off the queue.
  // `split()` yields the subtrees split off its generator stack (empty =
  // nothing to give), counted created before any thief can see them:
  //   * a remote thief gets them as a StealReply (empty = NACK);
  //   * a local thief's go into this locality's pool, and its flag clears;
  //   * a worker that took its own request splits nothing and only clears
  //     its flag.
  template <typename Split>
  void answerSteal(const StealRequest& req, int victim, Split&& split) {
    WorkerState* thief =
        req.origin == id()
            ? workers_[static_cast<std::size_t>(req.token)].get()
            : nullptr;
    if (thief != nullptr && thief->id == victim) {
      thief->stealRequested.store(false);
      return;
    }
    std::vector<Task> tasks = split();
    const auto n = tasks.size();
    auto& metrics = reg_.metrics;
    if (n > 0) term_.taskCreated(n);
    if (thief == nullptr) {
      rt::trace::record(rt::trace::Ev::kStealAnswer, id(),
                        static_cast<std::uint64_t>(req.origin),
                        static_cast<std::uint64_t>(req.token));
      locality_.send(req.origin, rt::tag::kStealReply,
                     toBytes(StealReply{req.token, std::move(tasks)}));
      return;
    }
    if (n == 0) {
      metrics.failedSteals.fetch_add(1, std::memory_order_relaxed);
      rt::trace::record(rt::trace::Ev::kLocalStealFail, id(),
                        static_cast<std::uint64_t>(victim));
    } else {
      metrics.localSteals.fetch_add(n, std::memory_order_relaxed);
      metrics.stealReplies.fetch_add(1, std::memory_order_relaxed);
      rt::trace::record(rt::trace::Ev::kLocalStealAnswer, id(),
                        static_cast<std::uint64_t>(victim), n);
      pushStolen(tasks);
    }
    thief->stealRequested.store(false);
  }

  std::atomic<int>& busyWorkers() { return busyWorkers_; }

 private:
  static constexpr auto kStealTimeout = 5ms;

  // Thief side: a steal reply arrived (from either steal protocol; both
  // share the one reply tag and the single in-flight slot). Expiry and
  // takeover semantics live in rt::StealSlot: exactly one thief wins an
  // expired slot, and a stale reply's token no longer matches, so it cannot
  // free the slot while the renewed request is outstanding.
  void onStealReply(rt::Message&& m) {
    const int victim = m.src;
    auto reply = fromBytes<StealReply>(std::move(m.payload));
    stealSlot_.release(reply.token);
    if (reply.tasks.empty()) {
      reg_.metrics.failedSteals.fetch_add(1, std::memory_order_relaxed);
      rt::trace::record(rt::trace::Ev::kStealFail, id(),
                        static_cast<std::uint64_t>(victim),
                        static_cast<std::uint64_t>(reply.token));
      return;
    }
    reg_.metrics.remoteSteals.fetch_add(reply.tasks.size(),
                                        std::memory_order_relaxed);
    reg_.metrics.stealReplies.fetch_add(1, std::memory_order_relaxed);
    rt::trace::record(rt::trace::Ev::kStealReply, id(), reply.tasks.size(),
                      static_cast<std::uint64_t>(reply.token));
    pushStolen(reply.tasks);
  }

  // Push one task into the pool under its depth, and trace it.
  void push(Task task, int worker = -1) {
    const int depth = task.depth;
    pool_->push(std::move(task), depth, worker);
    // pool_->size() takes the pool lock; only pay for it when tracing.
    if (rt::trace::enabled()) {
      rt::trace::record(rt::trace::Ev::kPoolPush, id(),
                        static_cast<std::uint64_t>(depth), pool_->size());
    }
  }

  // Stolen tasks enter this locality's pool here, from a remote victim's
  // reply or a local victim's split alike: the workpool is the transit
  // buffer of Section 3.6, and the idle workers' popWait picks them up. The
  // victim has already counted them created.
  void pushStolen(std::vector<Task>& tasks) {
    for (auto& t : tasks) push(std::move(t));
  }

  void postStealRequest(StealRequest req) {
    pendingSteals_.fetch_add(1, std::memory_order_relaxed);
    stealRequests_.push(req);
  }

  void registerHandlers() {
    // Knowledge: a remote locality found a better incumbent objective.
    locality_.registerHandler(rt::tag::kBoundUpdate, [this](rt::Message&& m) {
      auto b = fromBytes<std::int64_t>(std::move(m.payload));
      if (atomicMax(reg_.localBound, b)) {
        reg_.metrics.boundUpdatesApplied.fetch_add(1,
                                                   std::memory_order_relaxed);
        rt::trace::record(rt::trace::Ev::kBoundApply, id(),
                          static_cast<std::uint64_t>(b));
      }
    });

    // Decision short-circuit raised elsewhere.
    locality_.registerHandler(rt::tag::kStopSearch, [this](rt::Message&&) {
      reg_.stop.store(true, std::memory_order_relaxed);
    });

    // A remote idle locality asks our workpool for work. The manager
    // answers directly with a chunk sized by the chunk policy from the
    // pool's live occupancy; pools are thread-safe.
    locality_.registerHandler(
        rt::tag::kPoolStealRequest, [this](rt::Message&& m) {
          auto token = fromBytes<std::int64_t>(std::move(m.payload));
          StealReply reply{token,
                           pool_->stealChunk(params_.chunk)};
          rt::trace::record(rt::trace::Ev::kStealAnswer, id(),
                            static_cast<std::uint64_t>(m.src),
                            static_cast<std::uint64_t>(token));
          locality_.send(m.src, rt::tag::kStealReply, toBytes(reply));
        });

    // A remote thief wants a stack steal: if any worker here is busy, queue
    // the request for a victim worker to answer mid-search; otherwise NACK
    // immediately so the thief's steal slot frees up.
    locality_.registerHandler(
        rt::tag::kStackStealRequest, [this](rt::Message&& m) {
          auto token = fromBytes<std::int64_t>(std::move(m.payload));
          if (busyWorkers_.load(std::memory_order_relaxed) > 0) {
            postStealRequest({m.src, token});
          } else {
            // Immediate NACK: no busy worker to split a stack.
            rt::trace::record(rt::trace::Ev::kStealAnswer, id(),
                              static_cast<std::uint64_t>(m.src),
                              static_cast<std::uint64_t>(token));
            locality_.send(m.src, rt::tag::kStealReply,
                           toBytes(StealReply{token, {}}));
          }
        });

    // Stolen tasks (or a NACK) arriving from a remote victim, for either
    // steal protocol.
    locality_.registerHandler(rt::tag::kStealReply, [this](rt::Message&& m) {
      onStealReply(std::move(m));
    });
  }

  Params params_;
  rt::Locality locality_;
  rt::TerminationDetector term_;
  std::unique_ptr<rt::Workpool<Task>> pool_;
  rt::prof::Profile profile_;
  Reg reg_;
  Space space_;
  std::vector<std::unique_ptr<WorkerState>> workers_;
  rt::Channel<StealRequest> stealRequests_;
  std::atomic<int> pendingSteals_{0};
  std::atomic<int> busyWorkers_{0};
  rt::StealSlot stealSlot_{kStealTimeout};
  rt::health::Rules health_;
  rt::telemetry::Tick tick_;
};

// Generic engine, and every parallel skeleton's public type: Coordination
// supplies executeTask() (one runTask call with its hook set, see dfs.hpp),
// and optionally onIdle() and prepare(Params&). Without an onIdle(), an
// idle worker asks a random remote locality's workpool for work.
template <typename Coordination, typename Gen, typename SearchType,
          typename... Opts>
struct Engine {
  using Eng = Engine;
  using Space = typename Gen::Space;
  using Node = typename Gen::Node;
  using Bound = BoundOf<Opts...>;
  using Ctx = EngineCtx<Gen, SearchType, Bound, kPruneLevelOf<Opts...>>;
  using Ops = typename Ctx::Ops;
  using Task = typename Ctx::Task;
  using GatherMsg = typename Ctx::GatherMsg;
  using Out = Outcome<Node, typename Ops::EnumValue>;

  // Lets the coordination adjust the parameters, builds the transport and
  // runs the ranks this process hosts: one rank of a TCP mesh, or every
  // simulated rank over one shared InProcFabric. Each rank runs runRank()
  // over its own ShapedTransport, so both transports share one lifecycle and
  // differ only in the wire under the shaper.
  static Out search(Params params, const Space& space, const Node& root) {
    if constexpr (requires { Coordination::prepare(params); }) {
      Coordination::prepare(params);
    }
    // Zero workers would finish with an empty result and zero simulated
    // localities would index an empty fabric; neither is a search.
    if (params.workersPerLocality < 1) {
      throw std::invalid_argument(
          "Params::workersPerLocality must be >= 1, got " +
          std::to_string(params.workersPerLocality));
    }
    if (params.transport == TransportKind::Sim && params.nLocalities < 1) {
      throw std::invalid_argument("Params::nLocalities must be >= 1, got " +
                                  std::to_string(params.nLocalities));
    }
    Timer timer;
    // Armed before any transport exists, so every thread a transport or a
    // rank spawns registers its trace buffer inside this session. Phase
    // accounting is always on during a run; only the disarmed fast path
    // (Sequential skeleton, benches) skips the clock reads. Both are
    // refcounted, so ranks sharing this process share them.
    rt::trace::SessionScope traceScope(!params.traceFile.empty());
    rt::prof::ArmScope profScope;
    const auto spaceBytes = toBytes(space);

    if (params.transport == TransportKind::Tcp) {
      Params p = params;
      p.nLocalities = static_cast<int>(p.peers.size());
      rt::TcpConfig tc;
      tc.rank = p.rank;
      tc.peers = p.peers;
      tc.peerTimeout = std::chrono::milliseconds(p.peerTimeoutMs);
      // Constructing the transport establishes the full mesh (handshake
      // with every peer) before any search state exists: the start barrier.
      rt::TcpTransport tcpNet(tc);
      rt::ShapedTransport net(tcpNet, p.net);
      return runRank(net, p, spaceBytes, root, timer);
    }

    // Simulated: rank 0 runs on this thread, every other rank on its own.
    // A rank that throws is declared dead on the fabric, which aborts the
    // others exactly as a dead TCP peer would; rank 0's error (it names the
    // dead rank) is rethrown first, else the first failed peer's.
    const int world = params.nLocalities;
    rt::InProcFabric fabric(world, params.net);
    std::vector<std::exception_ptr> errors(static_cast<std::size_t>(world));
    const auto runSimRank = [&](int r) {
      Params p = params;
      p.rank = r;
      auto& error = errors[static_cast<std::size_t>(r)];
      try {
        rt::InProcPort port(fabric, r);
        rt::ShapedTransport net(port, p.net);
        return runRank(net, p, spaceBytes, root, timer);
      } catch (const std::exception& e) {
        error = std::current_exception();
        fabric.declareDead(r, e.what());
      } catch (...) {
        error = std::current_exception();
        fabric.declareDead(r, "unknown exception");
      }
      return Out{};
    };
    std::vector<std::thread> peers;
    peers.reserve(static_cast<std::size_t>(world));
    for (int r = 1; r < world; ++r) {
      peers.emplace_back([&runSimRank, r] { runSimRank(r); });
    }
    Out out = runSimRank(0);
    for (auto& t : peers) t.join();
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    return out;
  }

 private:
  static constexpr auto kGatherTimeout = std::chrono::seconds(120);

  // One locality's whole run, identical on both transports: status
  // endpoint, failure callback, manager (which polls the telemetry tick
  // and, on rank 0, the termination leader), root (rank 0), worker team,
  // quiesce, then the gather - every rank flushes its links and takes its
  // final Sample into a GatherMsg, and rank 0 merges all of them (its own
  // included) while the others ship theirs under kGatherReply and return
  // isRoot = false.
  static Out runRank(rt::Transport& net, const Params& p,
                     const std::vector<std::uint8_t>& spaceBytes,
                     const Node& root, const Timer& timer) {
    const int world = p.nLocalities;
    Ctx ctx(net, p.rank, p, spaceBytes);

    // Each rank serves its own status endpoint on --status-port + rank
    // (the same base + rank convention launch_local.sh uses for the mesh).
    // Declared after ctx: its listener thread reads ctx through the source
    // callback, so it must be destroyed first.
    rt::statusd::StatusServer statusServer;
    const std::uint64_t runStartNanos = rt::prof::nowNanos();
    if (p.statusPort >= 0) {
      const int port = p.statusPort + p.rank;
      if (port > 65535) {
        throw std::invalid_argument(
            "statusd: rank " + std::to_string(p.rank) + " would serve port " +
            std::to_string(port) + " (--status-port " +
            std::to_string(p.statusPort) + " + rank), past 65535");
      }
      statusServer.start(static_cast<std::uint16_t>(port),
                         [&ctx, &p, runStartNanos] {
                           return std::vector<rt::statusd::RankStatus>{
                               rankStatus(ctx, p, runStartNanos)};
                         });
    }

    // First peer declared dead, if any. The transport reports a death at
    // most once per peer from one of its own threads; we keep the first and
    // abort the local search - every surviving rank hears of the dead peer
    // through its own transport, so no cross-rank coordination is needed.
    rt::Mutex failMtx;
    int deadRank = -1;
    std::string deadWhy;

    // Rank 0 collects one GatherMsg per peer once the search terminates.
    // Registered before start() so a fast peer cannot race the handler.
    rt::Mutex gatherMtx;
    std::condition_variable gatherCv;
    std::vector<GatherMsg> gathered;
    if (p.rank == 0) {
      ctx.locality().registerHandler(
          rt::tag::kGatherReply, [&](rt::Message&& m) {
            auto g = fromBytes<GatherMsg>(std::move(m.payload));
            {
              rt::LockGuard lock(gatherMtx);
              gathered.push_back(std::move(g));
            }
            gatherCv.notify_all();
          });
    }

    // Fired from a transport thread (TCP: a peer went silent past
    // --peer-timeout-ms or its link broke) or a failing rank's thread
    // (simulated): record the first death, abort the local search - stop
    // the running tasks mid-search and the workers between tasks - and
    // wake a rank 0 blocked waiting for gather replies that will never
    // come.
    net.onPeerFailure([&](int peer, const std::string& why) {
      {
        rt::LockGuard lock(failMtx);
        if (deadRank < 0) {
          deadRank = peer;
          deadWhy = why;
        }
      }
      ctx.reg().stop.store(true, std::memory_order_relaxed);
      ctx.term().abort();
      gatherCv.notify_all();
    });
    // The callback reads this frame's locals: unhook it before they go.
    struct Unhook {
      rt::Transport& net;
      ~Unhook() { net.onPeerFailure(nullptr); }
    } unhook{net};

    ctx.locality().start();
    if (p.rank == 0) {
      // Root task: count it before the leader starts polling, so the
      // detector never observes the initial 0 == 0 state. Rounds open only
      // while this rank idles; a busy one never takes the pool lock.
      ctx.term().taskCreated();
      ctx.pool().push(Task{root, 0}, 0);
      ctx.term().startLeader([&ctx] {
        return ctx.busyWorkers().load(std::memory_order_relaxed) == 0 &&
               ctx.pool().size() == 0;
      });
    }

    const std::uint64_t teamStartNanos = rt::prof::nowNanos();
    {
      rt::WorkerTeam team(p.workersPerLocality,
                          [&ctx](int w) { workerLoop(ctx, w); });
      // Joins once the termination broadcast lands on this rank.
    }
    // The wall the phase table is measured against: the worker team's
    // lifetime, not the whole run (mesh setup/teardown is not worker time).
    const std::uint64_t teamWallNanos =
        rt::prof::nowNanos() - teamStartNanos;

    // A dead peer aborts the whole job: the failure callback already
    // drained the workers; fail naming the dead rank instead of exchanging
    // gather messages with a mesh that lost a member.
    {
      int dr = -1;
      std::string dw;
      {
        rt::LockGuard lock(failMtx);
        dr = deadRank;
        dw = deadWhy;
      }
      if (dr >= 0) {
        ctx.locality().stop();
        net.shutdown();
        throw rt::TransportError("aborting: rank " + std::to_string(dr) +
                                 " died (" + dw + ")");
      }
    }

    Out out;
    if (p.rank == 0) {
      {
        // Explicit predicate loop (not a wait lambda) so the thread-safety
        // analysis sees `gathered` read with gatherMtx held.
        rt::UniqueLock lock(gatherMtx);
        const auto deadline = std::chrono::steady_clock::now() + kGatherTimeout;
        while (static_cast<int>(gathered.size()) != world - 1) {
          {
            // A peer declared dead mid-gather will never reply; give up
            // now instead of sitting out the full gather timeout.
            rt::LockGuard fl(failMtx);
            if (deadRank >= 0) break;
          }
          if (gatherCv.wait_until(lock.native(), deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
        if (static_cast<int>(gathered.size()) != world - 1) {
          std::string msg = "gather: received " +
                            std::to_string(gathered.size()) + " of " +
                            std::to_string(world - 1) + " per-rank results";
          {
            rt::LockGuard fl(failMtx);
            if (deadRank >= 0) {
              msg += "; rank " + std::to_string(deadRank) + " died (" +
                     deadWhy + ")";
            } else {
              msg += " (peer died?)";
            }
          }
          ctx.locality().stop();  // its handlers read this frame and ctx
          throw rt::TransportError(msg);
        }
      }
      // Every reply is in: nothing on this rank sends any more once the
      // manager stops, so the snapshot below is final.
      ctx.locality().stop();
      gathered.push_back(finishRank(ctx, p, teamWallNanos));
      out = mergeGather(p, gathered, timer.elapsedSeconds());
      if (!p.traceFile.empty()) {
        // Combine each rank's handshake half-estimate (shipped in
        // clockDeltaNanos) with our own for that rank: the symmetric
        // one-way delays cancel, leaving the offset that maps its steady
        // clock onto ours (zero for this rank and for simulated ranks,
        // which share this process's clock).
        std::vector<rt::trace::Batch> batches;
        for (auto& g : gathered) {
          auto& b = batches.emplace_back(std::move(g.trace));
          b.clockDeltaNanos =
              (b.clockDeltaNanos - net.handshakeClockDeltaNanos(b.rank)) / 2;
        }
        rt::trace::writeChromeJson(p.traceFile, batches);
      }
    } else {
      // The search is over on every rank; stray steal traffic that still
      // arrives is left undelivered, as at any rank's teardown. With the
      // manager stopped nothing on this rank sends behind the snapshot.
      ctx.locality().stop();
      ctx.locality().send(0, rt::tag::kGatherReply,
                          toBytes(finishRank(ctx, p, teamWallNanos)));
      net.flushAll();
      out.elapsedSeconds = timer.elapsedSeconds();
      out.isRoot = false;
    }

    if (statusServer.running()) {
      // Every rank lingers, so a scraper can read each rank's final
      // counters before the endpoint disappears (--status-linger-ms).
      if (p.statusLingerMs > 0) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(p.statusLingerMs));
      }
      statusServer.stop();
    }
    // Graceful close: drains every queued frame (including the gather reply
    // just sent) before the sockets go down.
    net.shutdown();
    return out;
  }

  static void workerLoop(Ctx& ctx, int w) {
    auto& ws = *ctx.workers()[static_cast<std::size_t>(w)];
    rt::trace::nameThread("L" + std::to_string(ctx.id()) + ".w" +
                          std::to_string(w));
    // Phase accounting: one lap per loop boundary, attributed post-hoc (a
    // popWait span is kPopping if it yielded a task, kIdle if it timed
    // out), so the phases tile this thread's wall time exactly.
    auto& wp = ctx.profile().worker(w);
    rt::prof::PhaseClock pclock;
    const std::uint64_t loopStartNanos = pclock.start();
    std::uint64_t taskSeq = 0;
    while (!ctx.term().finished()) {
      if (auto task = ctx.pool().popWait(200us, w)) {
        pclock.lap(wp, rt::prof::Phase::kPopping);
        // The pop + span-open records are guarded as one: pool size is a
        // locking query, and an un-opened span must not be closed below.
        const bool traced = rt::trace::enabled();
        if (traced) {
          rt::trace::record(rt::trace::Ev::kPoolPop, ctx.id(),
                            static_cast<std::uint64_t>(task->depth),
                            ctx.pool().size());
          rt::trace::record(rt::trace::Ev::kTaskRunBegin, ctx.id(),
                            static_cast<std::uint64_t>(task->depth),
                            taskSeq++);
        }
        ctx.busyWorkers().fetch_add(1, std::memory_order_acq_rel);
        if (!ctx.stopped()) {
          Coordination::executeTask(ctx, ws, std::move(*task));
        }
        ctx.busyWorkers().fetch_sub(1, std::memory_order_acq_rel);
        if (traced) {
          rt::trace::record(rt::trace::Ev::kTaskRunEnd, ctx.id());
        }
        pclock.lap(wp, rt::prof::Phase::kWorking);
        ctx.term().taskCompleted();
        continue;
      }
      pclock.lap(wp, rt::prof::Phase::kIdle);
      if constexpr (requires { Coordination::onIdle(ctx, ws); }) {
        Coordination::onIdle(ctx, ws);
      } else {
        ctx.requestRemoteSteal(ws.rng, rt::tag::kPoolStealRequest);
      }
      pclock.lap(wp, rt::prof::Phase::kStealing);
    }
    // Close the tail interval (the final empty popWait / finish check), and
    // stamp this thread's wall between the clock's first and last reads:
    // the phase sum must tile it, whatever the OS did to the team's thread
    // start/exit skew.
    wp.setWall(pclock.lap(wp, rt::prof::Phase::kIdle) - loopStartNanos);
    Ops::mergeWorkerAcc(ctx.reg(), ws.acc);
  }

  // One status-endpoint row for this rank: a live Sample per scrape until
  // the rank publishes its final one, then that Sample - the one its gather
  // shipped - for good.
  static rt::statusd::RankStatus rankStatus(Ctx& ctx, const Params& params,
                                            std::uint64_t startNanos) {
    rt::statusd::RankStatus s;
    if (const auto* fin = ctx.tick().finalSample()) {
      s.sample = *fin;
    } else {
      // Counters still move until the final Sample (workers fold their node
      // counts in on exit), so the search reads as active until then.
      s.sample = ctx.sample();
      s.sample.searchActive = true;
    }
    s.world = params.nLocalities;
    s.uptimeSeconds =
        static_cast<double>(rt::prof::nowNanos() - startNanos) / 1e9;
    for (int r = 0; r < rt::health::kNumRules; ++r) {
      const auto rule = static_cast<rt::health::Rule>(r);
      rt::statusd::RankStatus::RuleStatus rs;
      rs.name = rt::health::ruleName(rule);
      rs.enabled = params.healthIntervalMs > 0 &&
                   (rule != rt::health::Rule::kStalledIncumbent ||
                    params.stallWarnMs > 0) &&
                   (rule != rt::health::Rule::kProbeLiveness ||
                    params.rank == 0);
      rs.firing = ctx.health().firing(rule);
      rs.firings = ctx.health().firings(rule);
      s.rules.push_back(std::move(rs));
    }
    return s;
  }

  // Take this rank's final Sample and package it, with the rank's results
  // and trace batch, for rank 0's merge. Call once the manager has stopped
  // (so the tick's polls, and its health counts, are over) and nothing on
  // this rank sends any more: the flush frames out whatever is still
  // buffered, so the transport counters split exactly (batched + immediate
  // == messages). The same Sample ends the CSV and is what the status
  // endpoint serves from now on.
  static GatherMsg finishRank(Ctx& ctx, const Params& p,
                              std::uint64_t teamWallNanos) {
    ctx.locality().network().flushAll();
    const auto& fin = ctx.tick().finish(ctx.sample(teamWallNanos));
    if (p.sampleIntervalMs > 0) {
      // One CSV per rank: non-zero ranks suffix theirs with the rank.
      std::string csv = p.effectiveSampleCsv();
      if (p.rank != 0) csv += ".rank" + std::to_string(p.rank);
      rt::telemetry::writeCsv(csv, ctx.tick().rows());
    }
    auto& reg = ctx.reg();
    GatherMsg g;
    g.metrics = fin.metrics;
    g.profile = fin.profile;
    if (!p.traceFile.empty()) {
      // Ranks sharing this process share one registry: collect only this
      // rank's events so the merged file has no duplicates. The batch
      // carries this rank's handshake half-estimate against rank 0 (zero
      // on rank 0 itself) for rank 0 to complete.
      g.trace = rt::trace::session().collect(p.rank);
      g.trace.clockDeltaNanos =
          ctx.locality().network().handshakeClockDeltaNanos(0);
    }
    g.truncated = reg.truncated.load() ? 1 : 0;
    // Workers have joined, but the guarded fields are read under their
    // locks anyway: the discipline is uniform, and the locks are free.
    if constexpr (SearchType::isEnumeration) {
      rt::LockGuard lock(reg.accMtx);
      g.sum = reg.acc;
    } else {
      rt::LockGuard lock(reg.incMtx);
      if (reg.incumbent.has_value()) {
        g.hasIncumbent = 1;
        g.incumbent = *reg.incumbent;
        g.objective = reg.incumbentObj;
      }
    }
    return g;
  }

  // Rank 0's merge of every rank's GatherMsg, in rank order: profiles come
  // out rank-sorted and, among equal objectives, the lowest rank's
  // incumbent wins whatever order the replies arrived in.
  static Out mergeGather(const Params& params, std::vector<GatherMsg>& ranks,
                         double elapsed) {
    std::sort(ranks.begin(), ranks.end(),
              [](const GatherMsg& a, const GatherMsg& b) {
                return a.profile.rank < b.profile.rank;
              });
    Out out;
    out.elapsedSeconds = elapsed;
    for (auto& g : ranks) {
      out.metrics += g.metrics;
      out.profiles.push_back(std::move(g.profile));
      if constexpr (SearchType::isEnumeration) {
        using M = typename SearchType::M;
        out.sum = M::plus(std::move(out.sum), std::move(g.sum));
      } else if (g.hasIncumbent && g.objective > out.objective) {
        out.objective = g.objective;
        out.incumbent = std::move(g.incumbent);
      }
      if (g.truncated) out.complete = false;
    }
    if constexpr (SearchType::isDecision) {
      out.decided = out.objective >= params.decisionTarget;
    }
    return out;
  }
};

}  // namespace yewpar::detail
