#pragma once

// Messages exchanged between (simulated) localities. Payloads are opaque
// bytes produced by util/archive.hpp; the network never shares object
// pointers between localities, mirroring a real distributed-memory system.

#include <cstdint>
#include <vector>

namespace yewpar::rt {

struct Message {
  int src = -1;
  int dst = -1;
  int tag = 0;
  std::vector<std::uint8_t> payload;
};

// Message tags. One flat space shared by all subsystems; the skeleton engine
// and the runtime services each claim a few.
namespace tag {
inline constexpr int kShutdownManager = 1;   // stop a locality's manager loop
inline constexpr int kSnapshotRequest = 2;   // termination: leader -> all
inline constexpr int kSnapshotReply = 3;     // termination: all -> leader
inline constexpr int kTerminate = 4;         // termination: leader -> all
inline constexpr int kBatchedFrame = 5;      // shaping: several messages as
                                             // one wire frame (container
                                             // decoded by ShapedTransport)
inline constexpr int kHeartbeat = 6;         // tcp: idle keep-alive, consumed
                                             // by the link itself
inline constexpr int kPeerDead = 7;          // transport -> own rank: src
                                             // died; payload is the reason's
                                             // bytes
inline constexpr int kBoundUpdate = 10;      // knowledge: broadcast bound
inline constexpr int kPoolStealRequest = 11; // workpool: idle loc -> victim
inline constexpr int kStealReply = 12;       // either steal: chunk or nack
inline constexpr int kStackStealRequest = 13;// stack-stealing: remote steal
// A steal reply carries a StealReply payload whose task vector holds the
// whole chunk (Params::chunk policy), so a steal moves several tasks per
// request/reply round-trip instead of one.
inline constexpr int kGatherReply = 21;      // per-rank results -> rank 0
inline constexpr int kStopSearch = 22;       // decision short-circuit
inline constexpr int kUser = 100;            // first tag free for tests/apps

// Every tag above, in order: the list wire::protocolVersion() hashes, so a
// tag added, removed or renumbered here fences off older builds.
inline constexpr int kAll[] = {
    kShutdownManager,  kSnapshotRequest, kSnapshotReply,     kTerminate,
    kBatchedFrame,     kHeartbeat,       kPeerDead,          kBoundUpdate,
    kPoolStealRequest, kStealReply,      kStackStealRequest, kGatherReply,
    kStopSearch,       kUser,
};
}  // namespace tag

}  // namespace yewpar::rt
