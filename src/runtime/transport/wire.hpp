#pragma once

// Wire format shared by the TCP transport's two ends: the connection
// handshake and the per-message frame header. Everything on the wire is
// little-endian and fixed-width, encoded/decoded explicitly (never memcpy'd
// structs), so two builds of this code interoperate regardless of compiler
// padding.
//
// Handshake (one per direction, once per connection):
//   u32 magic     'Y','E','W','P' - rejects connections from arbitrary
//                 services (or misdirected port numbers) immediately.
//   u32 version   protocolVersion(): a hash of rt::tag::kAll. Two
//                 binaries whose message-tag vocabularies differ would
//                 misparse each other's traffic; they must fail fast at
//                 connect time with a clear error instead.
//   u32 rank      the sender's locality id.
//   u32 world     the sender's locality count; both sides must agree on
//                 the size of the mesh they are joining.
//   u64 sendNanos the sender's steady clock when the handshake was written.
//                 Paired with the receiver's clock at read time this yields
//                 a per-peer clock-offset estimate used to align traces from
//                 different processes at export (docs/ARCHITECTURE.md
//                 "Observability").
//
// Frame (one per Message):
//   u32 payloadLen   length of the serialized payload that follows.
//   u32 tag          rt::tag message tag.
//   u8[payloadLen]   opaque archive bytes.
// The sender's rank is fixed per connection by the handshake, and the
// destination is whoever owns the receiving end, so neither travels per
// frame. Two tags are the link's own, never an application message:
//   tag::kBatchedFrame  the payload is a batched-frame container holding
//                       several logical messages (transport/shaping.hpp);
//                       both tags sit in tag::kAll, which
//                       protocolVersion() hashes, so a build without the
//                       container format is fenced off at handshake time
//                       rather than misparsing frames.
//   tag::kHeartbeat     payloadLen 0; idle keep-alive for rank-failure
//                       detection, consumed by the receiving link.

#include <array>
#include <cstdint>

#include "runtime/message.hpp"

namespace yewpar::rt::wire {

inline constexpr std::uint32_t kMagic = 0x50574559u;  // "YEWP", little-endian

// Frames above this are rejected as corruption before any allocation: no
// search payload (task chunk, space broadcast, gather) comes anywhere near
// 256 MiB, but a desynchronized or hostile stream could claim to.
inline constexpr std::uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

// Manually bumped when a wire payload's field layout changes without any
// tag-table change (e.g. a new MetricsSnapshot counter travelling inside
// GatherMsg). The tag hash below cannot see layout edits, so this constant
// is what keeps mixed-build meshes refused at handshake time in that case.
// History: 1 = pre-PR9 layouts; 2 = MetricsSnapshot.poolLockContentions;
// 3 = GatherMsg.profile (per-worker phase accounting) +
// MetricsSnapshot.healthWarnings; 4 = GatherMsg.trace (the rank's trace
// batch rides its gather reply).
inline constexpr std::uint32_t kPayloadLayoutVersion = 4;

// Protocol version: FNV-1a over every tag::kAll value in order, plus
// kPayloadLayoutVersion. Adding, removing or renumbering a message tag
// changes the version, so mixed-build meshes are refused at handshake time.
constexpr std::uint32_t protocolVersion() {
  std::uint32_t h = 2166136261u;
  for (int t : tag::kAll) {
    h = (h ^ static_cast<std::uint32_t>(t)) * 16777619u;
  }
  h = (h ^ kPayloadLayoutVersion) * 16777619u;
  return h;
}

// ---- little-endian u32 helpers ------------------------------------------

inline void putU32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline std::uint32_t getU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

inline void putU64(std::uint8_t* p, std::uint64_t v) {
  putU32(p, static_cast<std::uint32_t>(v));
  putU32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

inline std::uint64_t getU64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

// ---- handshake -----------------------------------------------------------

struct Handshake {
  std::uint32_t magic = kMagic;
  std::uint32_t version = protocolVersion();
  std::uint32_t rank = 0;
  std::uint32_t world = 0;
  std::uint64_t sendNanos = 0;  // sender's steady clock at encode time

  static constexpr std::size_t kBytes = 24;

  std::array<std::uint8_t, kBytes> encode() const {
    std::array<std::uint8_t, kBytes> b{};
    putU32(b.data(), magic);
    putU32(b.data() + 4, version);
    putU32(b.data() + 8, rank);
    putU32(b.data() + 12, world);
    putU64(b.data() + 16, sendNanos);
    return b;
  }

  static Handshake decode(const std::uint8_t* p) {
    Handshake h;
    h.magic = getU32(p);
    h.version = getU32(p + 4);
    h.rank = getU32(p + 8);
    h.world = getU32(p + 12);
    h.sendNanos = getU64(p + 16);
    return h;
  }
};

// ---- frame header --------------------------------------------------------

struct FrameHeader {
  std::uint32_t payloadLen = 0;
  std::uint32_t tag = 0;

  static constexpr std::size_t kBytes = 8;

  std::array<std::uint8_t, kBytes> encode() const {
    std::array<std::uint8_t, kBytes> b{};
    putU32(b.data(), payloadLen);
    putU32(b.data() + 4, tag);
    return b;
  }

  static FrameHeader decode(const std::uint8_t* p) {
    FrameHeader h;
    h.payloadLen = getU32(p);
    h.tag = getU32(p + 4);
    return h;
  }
};

}  // namespace yewpar::rt::wire
