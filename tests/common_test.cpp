// Tests for the common substrate: Expected/Status, the deterministic RNG,
// string utilities, and id generation.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>
#include <thread>

#include "common/expected.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"

namespace nvo {
namespace {

// ---------------------------------------------------------------------------
// Expected / Status
// ---------------------------------------------------------------------------

TEST(Expected, HoldsValue) {
  Expected<int> e(42);
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.value_or(-1), 42);
}

TEST(Expected, HoldsError) {
  Expected<int> e(ErrorCode::kNotFound, "missing thing");
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(e.error().message, "missing thing");
  EXPECT_EQ(e.value_or(-1), -1);
}

TEST(Expected, ErrorToStringIncludesCodeAndMessage) {
  const Error err(ErrorCode::kTimeout, "slow service");
  EXPECT_EQ(err.to_string(), "kTimeout: slow service");
}

TEST(Expected, MoveOutValue) {
  Expected<std::string> e(std::string(1000, 'x'));
  std::string moved = std::move(e).value();
  EXPECT_EQ(moved.size(), 1000u);
}

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
}

TEST(Status, ErrorState) {
  Status s(ErrorCode::kIoError, "disk gone");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code, ErrorCode::kIoError);
}

TEST(Status, AllErrorCodesHaveNames) {
  for (ErrorCode c :
       {ErrorCode::kInvalidArgument, ErrorCode::kNotFound, ErrorCode::kParseError,
        ErrorCode::kIoError, ErrorCode::kServiceUnavailable, ErrorCode::kTimeout,
        ErrorCode::kComputeFailed, ErrorCode::kInfeasible, ErrorCode::kAlreadyExists,
        ErrorCode::kInternal}) {
    EXPECT_STRNE(to_string(c), "kUnknown");
  }
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(13);
  int counts[10] = {};
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) EXPECT_NEAR(c, n / 10, n / 10 * 0.15);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(Rng, NormalScaled) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, PoissonMeanMatchesLambdaSmall) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(3.5));
  EXPECT_NEAR(sum / n, 3.5, 0.1);
}

TEST(Rng, PoissonMeanMatchesLambdaLarge) {
  Rng rng(29);
  const int n = 20000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.poisson(200.0));
  EXPECT_NEAR(sum / n, 200.0, 2.0);
}

TEST(Rng, PoissonZeroLambda) {
  Rng rng(31);
  EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(37);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ExponentialMean) {
  Rng rng(41);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ParetoAboveMinimum) {
  Rng rng(43);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(55);
  Rng child = a.fork();
  // The child stream should not replay the parent's continuation.
  Rng b(55);
  (void)b.next_u64();  // consume what fork consumed
  int same = 0;
  for (int i = 0; i < 32; ++i) {
    if (child.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(59);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(original.begin(), original.end());
  EXPECT_EQ(a, b);
}

TEST(Rng, Hash64StableAndSensitive) {
  EXPECT_EQ(hash64("abc"), hash64("abc"));
  EXPECT_NE(hash64("abc"), hash64("abd"));
  EXPECT_NE(hash64(""), hash64("a"));
}

// ---------------------------------------------------------------------------
// strings
// ---------------------------------------------------------------------------

TEST(Strings, SplitPreservesEmptyFields) {
  const auto parts = split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Strings, SplitWsDropsEmpty) {
  const auto parts = split_ws("  alpha\t beta\n gamma  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "alpha");
  EXPECT_EQ(parts[2], "gamma");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("abc"), "abc");
}

TEST(Strings, CaseAndAffixes) {
  EXPECT_EQ(to_lower("AbC"), "abc");
  EXPECT_TRUE(starts_with("galMorph", "gal"));
  EXPECT_FALSE(starts_with("gal", "galMorph"));
  EXPECT_TRUE(ends_with("file.fits", ".fits"));
  EXPECT_FALSE(ends_with("fits", "file.fits"));
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("2.831933107035062E-4").value(),
                   2.831933107035062e-4);
  EXPECT_DOUBLE_EQ(parse_double(" 1.5 ").value(), 1.5);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("-42").value(), -42);
  EXPECT_FALSE(parse_int("42.5").has_value());
  EXPECT_FALSE(parse_int("abc").has_value());
}

TEST(Strings, FormatAndFixed) {
  EXPECT_EQ(format("%s=%d", "x", 5), "x=5");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
}

TEST(Strings, AppendFixedMatchesPrintfBytes) {
  // The cutout archive prints SIA access URLs with append_fixed, so every
  // byte must be printf's. Exact binary ties (0.0078125 = 2^-7) round to
  // even in both; 0.0000005 and 359.9999995 sit just off a tie.
  const std::vector<double> values = {
      0.0,        -0.0,         1.0,          -1.0,         0.0000005,
      -0.0000005, 0.0000015,    359.9999995,  -359.9999995, 359.9999994999,
      0.0078125,  -0.0078125,   0.0234375,    1.0078125,    0.01777777777777778,
      187.70593,  -89.9999999,  89.99999950,  1e-300,       -1e-300,
      1e15,       -1e15,        123456789012345678.0,       1e300,
      -1e300,     1.7976931348623157e308,     4.9e-324,     2.5e-7};
  Rng rng(43);
  std::vector<double> all = values;
  for (int i = 0; i < 2000; ++i) {
    all.push_back(rng.uniform(-360.0, 360.0));
    all.push_back(std::round(rng.uniform(-1e7, 1e7)) / 1e6 + 5e-7);
  }
  for (const double v : all) {
    for (const int digits : {6, 0, 2, 9}) {
      std::string appended = "x";
      append_fixed(appended, v, digits);
      EXPECT_EQ(appended, "x" + format("%.*f", digits, v)) << v << " digits " << digits;
    }
  }
  EXPECT_EQ(fixed(-0.0, 6), "-0.000000");
  EXPECT_EQ(fixed(0.0078125, 6), "0.007812");
  EXPECT_EQ(fixed(0.0234375, 6), "0.023438");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(replace_all("a'b'c", "'", "''"), "a''b''c");
  EXPECT_EQ(replace_all("aaa", "aa", "b"), "ba");
  EXPECT_EQ(replace_all("none", "x", "y"), "none");
}

// ---------------------------------------------------------------------------
// IdGenerator
// ---------------------------------------------------------------------------

TEST(IdGenerator, SequentialAndPrefixed) {
  IdGenerator gen("req");
  EXPECT_EQ(gen.next(), "req-000001");
  EXPECT_EQ(gen.next(), "req-000002");
  EXPECT_EQ(gen.count(), 2u);
}

TEST(IdGenerator, NumberedIdMatchesThePrintfForm) {
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{42},
                                std::uint64_t{999999}, std::uint64_t{1000000},
                                std::uint64_t{1234567890123}, UINT64_MAX}) {
    for (const char* prefix : {"req", "", "galMorph-MS0906"}) {
      char want[64];
      std::snprintf(want, sizeof want, "%s-%06llu", prefix, static_cast<unsigned long long>(n));
      EXPECT_EQ(numbered_id(prefix, n), want) << n;
    }
  }
}

TEST(IdGenerator, UniqueUnderConcurrency) {
  IdGenerator gen("t");
  std::vector<std::string> ids(400);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&gen, &ids, t] {
        for (int i = 0; i < 100; ++i) ids[static_cast<std::size_t>(t) * 100 + i] = gen.next();
      });
    }
  }
  std::set<std::string> unique(ids.begin(), ids.end());
  EXPECT_EQ(unique.size(), 400u);
}

}  // namespace
}  // namespace nvo
