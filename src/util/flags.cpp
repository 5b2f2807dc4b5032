#include "util/flags.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace yewpar {

namespace {
bool isFlag(const std::string& s) {
  return s.size() >= 2 && s[0] == '-' &&
         !(s.size() > 1 && (std::isdigit(static_cast<unsigned char>(s[1])) ||
                            s[1] == '.'));
}

std::string flagName(const std::string& key) {
  return (key.size() == 1 ? "-" : "--") + key;
}

std::string stripDashes(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && s[i] == '-') ++i;
  return s.substr(i);
}

// The whole of `value` as a T, or std::invalid_argument naming the flag: a
// typo such as "--workers 2x" or "-b abc" must not run a different search.
// Unsigned T rejects a leading '-' rather than wrapping it.
template <typename T>
T parseWhole(const std::string& key, const std::string& value,
             const char* what) {
  T out{};
  const char* last = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), last, out);
  if (ec != std::errc{} || ptr != last) {
    throw std::invalid_argument(flagName(key) + " needs " + what + ", got '" +
                                value + "'");
  }
  return out;
}
}  // namespace

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!isFlag(arg)) {
      stray_.push_back(arg);
      continue;
    }
    std::string key = stripDashes(arg);
    auto eq = key.find('=');
    if (eq != std::string::npos) {
      kv_[key.substr(0, eq)] = key.substr(eq + 1);
      continue;
    }
    // "--key value" when the next token is not itself a flag.
    if (i + 1 < argc && !isFlag(argv[i + 1])) {
      kv_[key] = argv[++i];
    } else {
      kv_[key] = "true";
    }
  }
}

bool Flags::has(const std::string& key) const { return raw(key).has_value(); }

std::optional<std::string> Flags::raw(const std::string& key) const {
  read_.insert(key);
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Flags::getString(const std::string& key,
                             const std::string& dflt) const {
  auto v = raw(key);
  return v ? *v : dflt;
}

long Flags::getInt(const std::string& key, long dflt) const {
  auto v = raw(key);
  return v ? parseWhole<long>(key, *v, "an integer") : dflt;
}

std::uint64_t Flags::getUint64(const std::string& key,
                               std::uint64_t dflt) const {
  auto v = raw(key);
  return v ? parseWhole<std::uint64_t>(key, *v, "an unsigned integer")
           : dflt;
}

double Flags::getDouble(const std::string& key, double dflt) const {
  auto v = raw(key);
  return v ? parseWhole<double>(key, *v, "a number") : dflt;
}

bool Flags::getBool(const std::string& key, bool dflt) const {
  auto v = raw(key);
  if (!v) return dflt;
  if (*v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw std::invalid_argument(flagName(key) +
                              " needs true|false|1|0|yes|no, got '" + *v +
                              "'");
}

void Flags::rejectUnread() const {
  std::string unread;
  for (const auto& [key, value] : kv_) {
    if (read_.count(key) != 0) continue;
    unread += (unread.empty() ? "" : ", ") + flagName(key);
  }
  std::string what = unread.empty() ? "" : "unknown flag " + unread;
  for (const auto& word : stray_) {
    if (!what.empty()) what += "; ";
    what += "unexpected argument '" + word + "'";
  }
  if (!what.empty()) throw std::invalid_argument(what);
}

}  // namespace yewpar
