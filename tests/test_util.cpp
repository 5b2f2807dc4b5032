// Unit tests for the util substrate: bitset, dsu, rng, archive, flags, stats.

#include <gtest/gtest.h>

#include "util/archive.hpp"
#include "util/bitset.hpp"
#include "util/dsu.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

#include <sstream>
#include <stdexcept>
#include <string>

using namespace yewpar;

TEST(Bitset, SetTestResetCount) {
  DynBitset b(130);
  EXPECT_EQ(b.count(), 0u);
  b.set(0);
  b.set(64);
  b.set(129);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(129));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 3u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 2u);
}

TEST(Bitset, SetAllRespectsSize) {
  DynBitset b(70);
  b.setAll();
  EXPECT_EQ(b.count(), 70u);
  EXPECT_EQ(b.findLast(), 69u);
}

TEST(Bitset, FindFirstNextLast) {
  DynBitset b(200);
  EXPECT_EQ(b.findFirst(), DynBitset::npos);
  b.set(5);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_EQ(b.findFirst(), 5u);
  EXPECT_EQ(b.findNext(5), 63u);
  EXPECT_EQ(b.findNext(63), 64u);
  EXPECT_EQ(b.findNext(64), 199u);
  EXPECT_EQ(b.findNext(199), DynBitset::npos);
  EXPECT_EQ(b.findLast(), 199u);
}

TEST(Bitset, AndOrAndNot) {
  DynBitset a(100), b(100);
  a.set(1);
  a.set(50);
  a.set(99);
  b.set(50);
  b.set(99);
  b.set(2);
  DynBitset i = a & b;
  EXPECT_EQ(i.count(), 2u);
  EXPECT_TRUE(i.test(50));
  EXPECT_TRUE(i.test(99));
  DynBitset u = a | b;
  EXPECT_EQ(u.count(), 4u);
  DynBitset d = a;
  d.andNot(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));
}

TEST(Bitset, SubsetAndIntersects) {
  DynBitset a(64), b(64);
  a.set(3);
  b.set(3);
  b.set(5);
  EXPECT_TRUE(a.isSubsetOf(b));
  EXPECT_FALSE(b.isSubsetOf(a));
  EXPECT_TRUE(a.intersects(b));
  DynBitset c(64);
  c.set(10);
  EXPECT_FALSE(a.intersects(c));
}

TEST(Bitset, ForEachAscending) {
  DynBitset b(150);
  b.set(149);
  b.set(0);
  b.set(77);
  std::vector<std::size_t> seen;
  b.forEach([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 77, 149}));
  EXPECT_EQ(b.toVector(), seen);
}

TEST(Dsu, SingletonsThenUnions) {
  Dsu d(5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.componentCount(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d.find(i), i);
    EXPECT_EQ(d.componentSize(i), 1u);
  }
  EXPECT_TRUE(d.unite(0, 1));
  EXPECT_TRUE(d.unite(2, 3));
  EXPECT_EQ(d.componentCount(), 3u);
  EXPECT_TRUE(d.connected(0, 1));
  EXPECT_FALSE(d.connected(1, 2));
  // Uniting two elements already in one set fails and changes nothing.
  EXPECT_FALSE(d.unite(1, 0));
  EXPECT_EQ(d.componentCount(), 3u);
  EXPECT_TRUE(d.unite(1, 3));
  EXPECT_EQ(d.componentCount(), 2u);
  EXPECT_EQ(d.componentSize(0), 4u);
  EXPECT_EQ(d.componentSize(4), 1u);
}

TEST(Dsu, PathCompressionKeepsFindsConsistent) {
  // Build a long chain; every element must resolve to one representative,
  // and repeated finds (now compressed) must agree.
  constexpr std::size_t n = 200;
  Dsu d(n);
  for (std::size_t i = 1; i < n; ++i) EXPECT_TRUE(d.unite(i - 1, i));
  EXPECT_EQ(d.componentCount(), 1u);
  const auto root = d.find(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(d.find(i), root);
    EXPECT_EQ(d.find(i), d.find(i));
    EXPECT_EQ(d.componentSize(i), n);
  }
}

TEST(Dsu, ResetRestoresSingletons) {
  Dsu d(4);
  d.unite(0, 1);
  d.unite(2, 3);
  d.reset(6);
  EXPECT_EQ(d.size(), 6u);
  EXPECT_EQ(d.componentCount(), 6u);
  EXPECT_FALSE(d.connected(0, 1));
}

TEST(Dsu, KruskalStyleCycleDetection) {
  // Triangle 0-1-2: the third edge closes a cycle, as unite reports.
  Dsu d(3);
  EXPECT_TRUE(d.unite(0, 1));
  EXPECT_TRUE(d.unite(1, 2));
  EXPECT_FALSE(d.unite(2, 0));
  EXPECT_EQ(d.componentCount(), 1u);
}

TEST(Rng, DeterministicAndSplittable) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  // mix64 is a pure function.
  EXPECT_EQ(mix64(1, 2), mix64(1, 2));
  EXPECT_NE(mix64(1, 2), mix64(2, 1));
}

TEST(Rng, UniformInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(r.below(17), 17u);
  }
}

TEST(Archive, RoundTripPrimitives) {
  OArchive oa;
  oa << std::int32_t{-42} << std::uint64_t{1234567890123ULL} << 3.5
     << std::string("hello world") << true;
  IArchive ia(std::move(oa).takeBytes());
  std::int32_t i;
  std::uint64_t u;
  double d;
  std::string s;
  bool b;
  ia >> i >> u >> d >> s >> b;
  EXPECT_EQ(i, -42);
  EXPECT_EQ(u, 1234567890123ULL);
  EXPECT_DOUBLE_EQ(d, 3.5);
  EXPECT_EQ(s, "hello world");
  EXPECT_TRUE(b);
  EXPECT_TRUE(ia.exhausted());
}

TEST(Archive, RoundTripContainersAndBitset) {
  std::vector<std::int64_t> v{1, -2, 3};
  std::vector<std::string> vs{"a", "", "long string here"};
  DynBitset bits(97);
  bits.set(0);
  bits.set(96);
  OArchive oa;
  oa << v << vs << bits << std::pair<std::int32_t, std::string>{9, "x"};
  IArchive ia(std::move(oa).takeBytes());
  std::vector<std::int64_t> v2;
  std::vector<std::string> vs2;
  DynBitset bits2;
  std::pair<std::int32_t, std::string> p2;
  ia >> v2 >> vs2 >> bits2 >> p2;
  EXPECT_EQ(v2, v);
  EXPECT_EQ(vs2, vs);
  EXPECT_TRUE(bits2 == bits);
  EXPECT_EQ(p2.first, 9);
  EXPECT_EQ(p2.second, "x");
}

TEST(Archive, TruncatedInputThrows) {
  OArchive oa;
  oa << std::int64_t{1};
  auto bytes = std::move(oa).takeBytes();
  bytes.pop_back();
  IArchive ia(std::move(bytes));
  std::int64_t x;
  EXPECT_THROW(ia >> x, std::runtime_error);
}

namespace {
// The std::invalid_argument message `get` throws, or "" if it returns.
template <typename Get>
std::string rejection(Get&& get) {
  try {
    get();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}
}  // namespace

TEST(Flags, ParsesAllForms) {
  // Note: a bare flag directly followed by a non-flag token ("--chunked
  // input.clq") would consume the token as its value, so a stray word after
  // a boolean flag fails in getBool instead.
  const char* argv[] = {"prog",           "--skeleton", "budget",
                        "--budget=100",   "input.clq",  "-d",
                        "2",              "--chunked"};
  Flags f(8, argv);
  EXPECT_EQ(f.getString("skeleton", ""), "budget");
  EXPECT_EQ(f.getInt("budget", 0), 100);
  EXPECT_TRUE(f.getBool("chunked"));
  EXPECT_EQ(f.getInt("d", 0), 2);
  EXPECT_EQ(f.getInt("missing", 7), 7);
  // No binary takes positional arguments: a stray word fails the run.
  EXPECT_EQ(rejection([&] { f.rejectUnread(); }),
            "unexpected argument 'input.clq'");
}

TEST(Flags, BoolEqualsForm) {
  const char* argv[] = {"prog", "--chunked=true", "pos"};
  Flags f(3, argv);
  EXPECT_TRUE(f.getBool("chunked"));
  EXPECT_EQ(rejection([&] { f.rejectUnread(); }),
            "unexpected argument 'pos'");
}

TEST(Flags, BoolTakesOnlyBooleanWords) {
  // "--random on" must not run as if the flag were absent: every value but
  // the six boolean words fails naming the flag.
  const char* argv[] = {"prog",    "--alpha", "yes", "--beta=no", "--gamma",
                        "0",       "--delta", "on",  "--eps"};
  Flags f(9, argv);
  EXPECT_TRUE(f.getBool("alpha"));
  EXPECT_FALSE(f.getBool("beta", true));
  EXPECT_FALSE(f.getBool("gamma", true));
  EXPECT_EQ(rejection([&] { f.getBool("delta"); }),
            "--delta needs true|false|1|0|yes|no, got 'on'");
  EXPECT_TRUE(f.getBool("eps"));
  EXPECT_TRUE(f.getBool("absent", true));
  // A stray word reported together with an unknown flag.
  const char* argv2[] = {"prog", "--wrokers", "2", "--tiny=yes", "x"};
  Flags g(5, argv2);
  EXPECT_TRUE(g.getBool("tiny"));
  EXPECT_EQ(rejection([&] { g.rejectUnread(); }),
            "unknown flag --wrokers; unexpected argument 'x'");
}

TEST(Flags, Uint64FullRange) {
  // Budgets / node caps / chunk sizes can exceed what a 32-bit long holds.
  const char* argv[] = {"prog", "--b", "18446744073709551615",
                        "--chunk-size", "8"};
  Flags f(5, argv);
  EXPECT_EQ(f.getUint64("b", 0), 18446744073709551615ull);
  EXPECT_EQ(f.getUint64("chunk-size", 1), 8u);
  EXPECT_EQ(f.getUint64("missing", 42), 42u);
}

TEST(Flags, NegativeNumberIsValue) {
  const char* argv[] = {"prog", "--offset", "-5"};
  Flags f(3, argv);
  EXPECT_EQ(f.getInt("offset", 0), -5);
}

TEST(Flags, MalformedNumbersThrowNamingTheFlag) {
  // A value that parses only in part must not run a different search
  // ("--workers abc" as zero workers, "-b abc" as no budget, "2x" as 2).
  const char* argv[] = {"prog",   "--workers", "abc",    "-b",
                        "abc",    "--w2",      "2x",     "--ratio",
                        "0.4.1",  "--seed",    "-1",     "--big",
                        "99999999999999999999",          "--bare"};
  Flags f(14, argv);
  EXPECT_NE(rejection([&] { f.getInt("workers", 1); }).find("--workers"),
            std::string::npos);
  EXPECT_NE(rejection([&] { f.getUint64("b", 1); }).find("-b needs"),
            std::string::npos);
  EXPECT_NE(rejection([&] { f.getInt("w2", 1); }).find("'2x'"),
            std::string::npos);
  EXPECT_NE(rejection([&] { f.getDouble("ratio", 0); }).find("--ratio"),
            std::string::npos);
  // getUint64 rejects a sign instead of wrapping it to 2^64-1; getInt
  // takes the same value.
  EXPECT_NE(rejection([&] { f.getUint64("seed", 1); }).find("--seed"),
            std::string::npos);
  EXPECT_EQ(f.getInt("seed", 0), -1);
  EXPECT_NE(rejection([&] { f.getInt("big", 0); }).find("--big"),
            std::string::npos);
  // A bare flag holds "true", which is not a number.
  EXPECT_NE(rejection([&] { f.getUint64("bare", 0); }).find("--bare"),
            std::string::npos);
}

TEST(Flags, RejectUnreadNamesEveryFlagNeverRead) {
  // A misspelt flag must fail instead of running a default search: every
  // flag given but never read through has(), raw() or a getter is named.
  const char* argv[] = {"prog", "--workers", "3",      "--wrokers", "2",
                        "--help", "-k",      "5",      "--tiny"};
  Flags f(9, argv);
  EXPECT_EQ(f.getInt("workers", 1), 3);
  EXPECT_TRUE(f.has("tiny"));
  EXPECT_FALSE(f.has("absent"));
  EXPECT_EQ(rejection([&] { f.rejectUnread(); }),
            "unknown flag --help, -k, --wrokers");
  f.raw("help");
  f.getInt("k", 0);
  f.getString("wrokers", "");
  EXPECT_EQ(rejection([&] { f.rejectUnread(); }), "");
}

TEST(Flags, WellFormedNumbersStillParse) {
  const char* argv[] = {"prog", "--q", "0.4", "--p", "1e-3", "--n", "0"};
  Flags f(7, argv);
  EXPECT_DOUBLE_EQ(f.getDouble("q", 0), 0.4);
  EXPECT_DOUBLE_EQ(f.getDouble("p", 0), 1e-3);
  EXPECT_EQ(f.getInt("n", 7), 0);
  EXPECT_EQ(f.getUint64("n", 7), 0u);
}

TEST(Stats, GeometricMean) {
  EXPECT_DOUBLE_EQ(geometricMean({1, 4}), 2.0);
  EXPECT_DOUBLE_EQ(geometricMean({2, 2, 2}), 2.0);
  EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 2, 3}), 2.5);
}

TEST(Stats, Summary) {
  auto s = summarize({1, 2, 3, 4});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.addRow({"x", TablePrinter::cell(1.23456, 2)});
  t.addRow({"longer-name", "42"});
  std::ostringstream os;
  t.print(os);
  auto out = os.str();
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_NE(out.find("longer-name"), std::string::npos);
}
