#pragma once

// Minimal command-line flag parser for the example and bench executables.
// Accepts "--key value", "--key=value" and bare boolean "--key" forms,
// mirroring the style of YewPar's application drivers
// (e.g. `maxclique --skeleton depthbounded -d 2 --hpx:threads 4`). No
// binary takes positional arguments: a word that is no flag's value is an
// error (see rejectUnread).

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace yewpar {

class Flags {
 public:
  Flags(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> raw(const std::string& key) const;

  std::string getString(const std::string& key, const std::string& dflt) const;
  // The numeric getters return `dflt` for an absent flag and throw
  // std::invalid_argument naming the flag unless its whole value parses.
  long getInt(const std::string& key, long dflt) const;
  // Full-range unsigned values (budgets, chunk sizes, node caps) that a
  // `long` would truncate on 32-bit longs.
  std::uint64_t getUint64(const std::string& key, std::uint64_t dflt) const;
  double getDouble(const std::string& key, double dflt) const;
  // A bare flag is true; a value must be true|false|1|0|yes|no, else this
  // throws std::invalid_argument naming the flag.
  bool getBool(const std::string& key, bool dflt = false) const;

  // Throws std::invalid_argument naming every flag given but never read by
  // has(), raw() or a getter (all go through raw()) and every stray word
  // that is no flag's value: a misspelt flag or a leftover argument must
  // not run a different search. Call once every flag has been read.
  void rejectUnread() const;

 private:
  std::map<std::string, std::string> kv_;
  std::vector<std::string> stray_;
  mutable std::set<std::string> read_;
};

}  // namespace yewpar
