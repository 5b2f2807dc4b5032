#pragma once

// Byte-level serialization used for every message that crosses a (simulated)
// locality boundary. This stands in for HPX's serialization layer: a task or
// knowledge update sent to a remote locality is flattened to bytes here and
// reconstructed on the other side, so no object identity or pointer ever
// crosses localities.

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>
#include <stdexcept>

#include "util/bitset.hpp"

namespace yewpar {

// Malformed serialized data: truncated reads, absurd element counts, or
// trailing bytes after a complete value. A typed error because wire frames
// arrive from other processes: a mismatched or corrupted peer must surface
// as a parse failure, never as an allocation blow-up or out-of-bounds read.
class ArchiveError : public std::runtime_error {
 public:
  explicit ArchiveError(const std::string& what)
      : std::runtime_error("archive: " + what) {}
};

class OArchive;
class IArchive;

namespace detail {
template <typename T>
concept TriviallySerializable =
    std::is_arithmetic_v<T> || std::is_enum_v<T>;

template <typename T>
concept HasSave = requires(const T& t, OArchive& a) { t.save(a); };

template <typename T>
concept HasLoad = requires(T& t, IArchive& a) { t.load(a); };
}  // namespace detail

class OArchive {
 public:
  template <detail::TriviallySerializable T>
  OArchive& operator<<(T v) {
    auto old = buf_.size();
    buf_.resize(old + sizeof(T));
    std::memcpy(buf_.data() + old, &v, sizeof(T));
    return *this;
  }

  OArchive& operator<<(const std::string& s) {
    *this << static_cast<std::uint64_t>(s.size());
    auto old = buf_.size();
    buf_.resize(old + s.size());
    std::memcpy(buf_.data() + old, s.data(), s.size());
    return *this;
  }

  template <typename T>
  OArchive& operator<<(const std::vector<T>& v) {
    *this << static_cast<std::uint64_t>(v.size());
    if constexpr (detail::TriviallySerializable<T>) {
      auto old = buf_.size();
      buf_.resize(old + v.size() * sizeof(T));
      // An empty vector's data() may be null, which memcpy must never see.
      if (!v.empty()) {
        std::memcpy(buf_.data() + old, v.data(), v.size() * sizeof(T));
      }
    } else {
      for (const auto& e : v) *this << e;
    }
    return *this;
  }

  template <typename A, typename B>
  OArchive& operator<<(const std::pair<A, B>& p) {
    return *this << p.first << p.second;
  }

  OArchive& operator<<(const DynBitset& b) {
    *this << static_cast<std::uint64_t>(b.size());
    auto old = buf_.size();
    buf_.resize(old + b.wordCount() * sizeof(DynBitset::Word));
    std::memcpy(buf_.data() + old, b.data(),
                b.wordCount() * sizeof(DynBitset::Word));
    return *this;
  }

  template <detail::HasSave T>
  OArchive& operator<<(const T& t) {
    t.save(*this);
    return *this;
  }

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> takeBytes() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Deserializer over untrusted bytes (wire frames arrive from other
// processes). Every read is bounds-checked BEFORE any allocation sized by
// the data itself, and all failures throw ArchiveError.
class IArchive {
 public:
  explicit IArchive(std::vector<std::uint8_t> bytes)
      : buf_(std::move(bytes)) {}

  template <detail::TriviallySerializable T>
  IArchive& operator>>(T& v) {
    need(sizeof(T));
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return *this;
  }

  IArchive& operator>>(std::string& s) {
    const std::uint64_t n = readCount(1);
    s.assign(reinterpret_cast<const char*>(buf_.data() + pos_),
             static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return *this;
  }

  template <typename T>
  IArchive& operator>>(std::vector<T>& v) {
    if constexpr (detail::TriviallySerializable<T>) {
      const std::uint64_t n = readCount(sizeof(T));
      v.resize(static_cast<std::size_t>(n));
      if (n != 0) {
        std::memcpy(v.data(), buf_.data() + pos_,
                    static_cast<std::size_t>(n) * sizeof(T));
      }
      pos_ += static_cast<std::size_t>(n) * sizeof(T);
    } else {
      // Element sizes vary, so the exact bound is unknowable upfront; cap
      // the reservation at one element per remaining byte and let the
      // per-element reads throw the moment the payload runs dry.
      const std::uint64_t n = readCount(0);
      v.clear();
      v.reserve(static_cast<std::size_t>(
          n < remaining() ? n : remaining()));
      for (std::uint64_t i = 0; i < n; ++i) {
        T e;
        *this >> e;
        v.push_back(std::move(e));
      }
    }
    return *this;
  }

  template <typename A, typename B>
  IArchive& operator>>(std::pair<A, B>& p) {
    return *this >> p.first >> p.second;
  }

  IArchive& operator>>(DynBitset& b) {
    std::uint64_t nbits = 0;
    *this >> nbits;
    // Bound the bit count before DynBitset allocates for it: the words that
    // hold `nbits` bits must actually be present in the payload.
    const std::uint64_t nwords =
        nbits / DynBitset::kWordBits + (nbits % DynBitset::kWordBits != 0);
    if (nwords > remaining() / sizeof(DynBitset::Word)) {
      throw ArchiveError("bitset larger than remaining payload");
    }
    b = DynBitset(static_cast<std::size_t>(nbits));
    const std::size_t nbytes = b.wordCount() * sizeof(DynBitset::Word);
    need(nbytes);
    std::memcpy(b.data(), buf_.data() + pos_, nbytes);
    pos_ += nbytes;
    return *this;
  }

  template <detail::HasLoad T>
  IArchive& operator>>(T& t) {
    t.load(*this);
    return *this;
  }

  bool exhausted() const { return pos_ == buf_.size(); }

 private:
  std::uint64_t remaining() const {
    return static_cast<std::uint64_t>(buf_.size() - pos_);
  }

  void need(std::uint64_t n) {
    if (n > remaining()) {
      throw ArchiveError("truncated payload");
    }
  }

  // Read a length prefix for `elemSize`-byte elements, rejecting counts the
  // remaining payload cannot possibly hold - overflow-safely, so a huge
  // count can neither wrap the size arithmetic nor drive an allocation.
  // elemSize 0 skips the capacity check (variable-size elements).
  std::uint64_t readCount(std::size_t elemSize) {
    std::uint64_t n = 0;
    *this >> n;
    if (elemSize != 0 && n > remaining() / elemSize) {
      throw ArchiveError("length prefix exceeds remaining payload");
    }
    return n;
  }

  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// Round-trip convenience used by the network layer: value -> bytes.
template <typename T>
std::vector<std::uint8_t> toBytes(const T& t) {
  OArchive a;
  a << t;
  return std::move(a).takeBytes();
}

// bytes -> value. T must be default-constructible. Rejects trailing bytes:
// a payload that decodes to a complete T with data left over was produced
// by a different (or corrupted) writer, and silently ignoring the tail
// would let mismatched message structs half-parse.
template <typename T>
T fromBytes(std::vector<std::uint8_t> bytes) {
  IArchive a(std::move(bytes));
  T t{};
  a >> t;
  if (!a.exhausted()) {
    throw ArchiveError("trailing bytes after complete value");
  }
  return t;
}

}  // namespace yewpar
