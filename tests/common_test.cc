// Unit tests for src/common: Status/Result, Rng, primes, BitVector, flags,
// and the I/O cost model.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/check.h"

#include "common/bitvector.h"
#include "common/cpu.h"
#include "common/flags.h"
#include "common/io_stats.h"
#include "common/prime.h"
#include "common/rng.h"
#include "common/status.h"

namespace skydiver {
namespace {

// --------------------------------------------------------------------------
// Status / Result
// --------------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  const Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kNotSupported, StatusCode::kIoError,
        StatusCode::kInternal}) {
    EXPECT_FALSE(StatusCodeToString(code).empty());
    EXPECT_NE(StatusCodeToString(code), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(7);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 7);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(9), 7);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.ValueOr(9), 9);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = std::move(r).value();
  EXPECT_EQ(v.size(), 3u);
}

TEST(StatusTest, CodeNamesRoundTripThroughToString) {
  // Every factory's ToString must lead with exactly the name that
  // StatusCodeToString reports for its code, so log lines and
  // code-dispatching callers agree on spelling.
  const Status statuses[] = {
      Status::InvalidArgument("m"), Status::NotFound("m"),
      Status::OutOfRange("m"),      Status::NotSupported("m"),
      Status::IoError("m"),         Status::Internal("m"),
  };
  std::set<std::string> names;
  for (const Status& s : statuses) {
    const std::string name(StatusCodeToString(s.code()));
    EXPECT_EQ(s.ToString(), name + ": m");
    names.insert(name);
  }
  // Names must also be pairwise distinct or the round-trip is ambiguous.
  EXPECT_EQ(names.size(), std::size(statuses));
}

TEST(ResultTest, MoveOnlyPayload) {
  // Result<T> must work for move-only T end to end: construction,
  // ok-query, moving the payload out, and the error path.
  Result<std::unique_ptr<int>> r(std::make_unique<int>(42));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> owned = std::move(r).value();
  ASSERT_NE(owned, nullptr);
  EXPECT_EQ(*owned, 42);

  Result<std::unique_ptr<int>> err(Status::Internal("boom"));
  EXPECT_FALSE(err.ok());
  EXPECT_TRUE(err.status().IsInternal());

  // A Result moved through a function return keeps its payload.
  auto make = []() -> Result<std::unique_ptr<int>> {
    return Result<std::unique_ptr<int>>(std::make_unique<int>(7));
  };
  Result<std::unique_ptr<int>> chained = make();
  ASSERT_TRUE(chained.ok());
  EXPECT_EQ(**chained, 7);
}

// Discarding a Status is a compile-time error under -Werror thanks to
// [[nodiscard]] on the class, and tools/skylint flags it even in
// warnings-off builds — the golden fixture tests/skylint_fixtures/discard
// (exercised by the skylint_selftest ctest entry) pins that behaviour.
// Here we only assert the sanctioned opt-out stays available.
TEST(StatusTest, VoidCastIsTheSanctionedDiscard) {
  (void)Status::Internal("deliberately ignored");
  SUCCEED();
}

TEST(CheckTest, CheckFailureAbortsWithDiagnostic) {
  // SKYDIVER_CHECK must name the failed expression and the message in its
  // abort diagnostic — that is the whole point of using it over assert().
  EXPECT_DEATH(SKYDIVER_CHECK(1 == 2, "math broke"), "1 == 2.*math broke");
  EXPECT_DEATH(SKYDIVER_CHECK_EQ(3, 4), "3 vs. 4");
  EXPECT_DEATH(SKYDIVER_CHECK_OK(Status::IoError("disk gone")),
               "IoError: disk gone");
}

TEST(CheckTest, PassingChecksAreSilent) {
  SKYDIVER_CHECK(true);
  SKYDIVER_CHECK_EQ(2, 2, "equal");
  SKYDIVER_CHECK_LE(1, 2);
  SKYDIVER_CHECK_OK(Status::OK());
  SKYDIVER_DCHECK(true);
  SUCCEED();
}

// --------------------------------------------------------------------------
// Rng
// --------------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.Next() == b.Next());
  EXPECT_LT(equal, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBoundedRespectsBound) {
  Rng rng(5);
  std::set<uint64_t> seen;
  for (int i = 0; i < 3000; ++i) {
    const uint64_t v = rng.NextBounded(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all values hit
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(17);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.02);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(19);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(42);
  Rng child = a.Split();
  EXPECT_NE(a.Next(), child.Next());
}

// --------------------------------------------------------------------------
// Primes
// --------------------------------------------------------------------------

TEST(PrimeTest, SmallValues) {
  EXPECT_FALSE(IsPrime(0));
  EXPECT_FALSE(IsPrime(1));
  EXPECT_TRUE(IsPrime(2));
  EXPECT_TRUE(IsPrime(3));
  EXPECT_FALSE(IsPrime(4));
  EXPECT_TRUE(IsPrime(5));
  EXPECT_FALSE(IsPrime(1000000));
  EXPECT_TRUE(IsPrime(1000003));
}

TEST(PrimeTest, KnownLargePrimes) {
  EXPECT_TRUE(IsPrime(2147483647ULL));             // 2^31 - 1 (Mersenne)
  EXPECT_TRUE(IsPrime(67280421310721ULL));         // factor of 2^128+1
  EXPECT_FALSE(IsPrime(2147483647ULL * 3));
  // Strong pseudoprime to several small bases; composite.
  EXPECT_FALSE(IsPrime(3215031751ULL));
}

TEST(PrimeTest, NextPrimeIsStrictlyGreaterAndPrime) {
  for (uint64_t n : {0ULL, 1ULL, 2ULL, 10ULL, 1000ULL, 999983ULL, 5000000ULL}) {
    const uint64_t p = NextPrime(n);
    EXPECT_GT(p, n);
    EXPECT_TRUE(IsPrime(p));
    // No prime strictly between n and p.
    for (uint64_t q = n + 1; q < p; ++q) EXPECT_FALSE(IsPrime(q));
  }
}

// --------------------------------------------------------------------------
// BitVector
// --------------------------------------------------------------------------

TEST(BitVectorTest, SetTestClear) {
  BitVector v(130);
  EXPECT_EQ(v.Count(), 0u);
  v.Set(0);
  v.Set(63);
  v.Set(64);
  v.Set(129);
  EXPECT_TRUE(v.Test(0));
  EXPECT_TRUE(v.Test(63));
  EXPECT_TRUE(v.Test(64));
  EXPECT_TRUE(v.Test(129));
  EXPECT_FALSE(v.Test(1));
  EXPECT_EQ(v.Count(), 4u);
  v.Clear(63);
  EXPECT_FALSE(v.Test(63));
  EXPECT_EQ(v.Count(), 3u);
}

TEST(BitVectorTest, SetAlgebra) {
  BitVector a(100), b(100);
  for (size_t i = 0; i < 100; i += 2) a.Set(i);   // evens: 50 bits
  for (size_t i = 0; i < 100; i += 3) b.Set(i);   // multiples of 3: 34 bits
  // Multiples of 6 in [0,100): 17.
  EXPECT_EQ(a.AndCount(b), 17u);
  EXPECT_EQ(a.OrCount(b), 50u + 34u - 17u);
  EXPECT_EQ(a.HammingDistance(b), (50u - 17u) + (34u - 17u));
  EXPECT_EQ(a.NewCoverage(b), 34u - 17u);
}

TEST(BitVectorTest, UnionInPlace) {
  BitVector a(70), b(70);
  a.Set(1);
  b.Set(68);
  a |= b;
  EXPECT_TRUE(a.Test(1));
  EXPECT_TRUE(a.Test(68));
  EXPECT_EQ(a.Count(), 2u);
}

TEST(BitVectorTest, EqualityAndMemory) {
  BitVector a(128), b(128);
  EXPECT_EQ(a, b);
  a.Set(100);
  EXPECT_FALSE(a == b);
  EXPECT_EQ(a.MemoryBytes(), 2 * sizeof(uint64_t));
}

// --------------------------------------------------------------------------
// IoStats / CostModel
// --------------------------------------------------------------------------

TEST(IoStatsTest, AccumulateAndHitRate) {
  IoStats a{100, 20, 5};
  IoStats b{50, 10, 0};
  a += b;
  EXPECT_EQ(a.page_reads, 150u);
  EXPECT_EQ(a.page_faults, 30u);
  EXPECT_EQ(a.page_writes, 5u);
  EXPECT_DOUBLE_EQ(a.HitRate(), 1.0 - 30.0 / 150.0);
}

TEST(CostModelTest, PaperChargeIsEightMillisPerFault) {
  CostModel model;  // default
  IoStats io{1000, 125, 0};
  EXPECT_DOUBLE_EQ(model.IoSeconds(io), 1.0);  // 125 * 8 ms
  EXPECT_DOUBLE_EQ(model.TotalSeconds(2.5, io), 3.5);
}

// --------------------------------------------------------------------------
// Flags
// --------------------------------------------------------------------------

TEST(FlagsTest, ParsesAllKinds) {
  int64_t n = 5;
  double x = 1.5;
  bool verbose = false;
  std::string name = "def";
  Flags flags;
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("x", &x, "ratio");
  flags.AddBool("verbose", &verbose, "chatty");
  flags.AddString("name", &name, "label");
  const char* argv[] = {"prog", "--n=42", "--x", "2.25", "--verbose", "--name=abc"};
  ASSERT_TRUE(flags.Parse(6, const_cast<char**>(argv)).ok());
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(x, 2.25);
  EXPECT_TRUE(verbose);
  EXPECT_EQ(name, "abc");
}

TEST(FlagsTest, NegatedBool) {
  bool paper = true;
  Flags flags;
  flags.AddBool("paper", &paper, "full scale");
  const char* argv[] = {"prog", "--no-paper"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_FALSE(paper);
}

TEST(FlagsTest, RejectsUnknownFlag) {
  Flags flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_TRUE(flags.Parse(2, const_cast<char**>(argv)).IsInvalidArgument());
}

TEST(FlagsTest, RejectsMalformedNumbers) {
  int64_t n = 0;
  Flags flags;
  flags.AddInt64("n", &n, "count");
  const char* argv[] = {"prog", "--n=12abc"};
  EXPECT_FALSE(flags.Parse(2, const_cast<char**>(argv)).ok());
}

TEST(FlagsTest, HelpRequested) {
  Flags flags;
  const char* argv[] = {"prog", "--help"};
  ASSERT_TRUE(flags.Parse(2, const_cast<char**>(argv)).ok());
  EXPECT_TRUE(flags.help_requested());
  EXPECT_NE(flags.Usage("prog").find("Usage:"), std::string::npos);
}

// --- cpu.h -----------------------------------------------------------------

TEST(CpuTest, OverrideCanOnlyRestrict) {
  // "scalar"/"none" always force the probe result down to kNone.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, "scalar"), SimdIsa::kNone);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kNeon, "none"), SimdIsa::kNone);
  // "portable" keeps the simd kernel on the word-mask fallback sweep.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, "portable"), SimdIsa::kPortable);
  // Naming the probed ISA is a no-op; naming a different one restricts to
  // kNone — the override can never ENABLE an ISA the host lacks.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, "avx2"), SimdIsa::kAvx2);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kNone, "avx2"), SimdIsa::kNone);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, "neon"), SimdIsa::kNone);
  // "avx512" is kept only on an AVX-512 probe.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx512, "avx512"), SimdIsa::kAvx512);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, "avx512"), SimdIsa::kNone);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kNeon, "avx512"), SimdIsa::kNone);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kNone, "avx512"), SimdIsa::kNone);
  // An override only restricts: "avx2" on an AVX-512 probe gives AVX2,
  // and the lower levels stay reachable from the top one.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx512, "avx2"), SimdIsa::kAvx2);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx512, "portable"), SimdIsa::kPortable);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx512, "scalar"), SimdIsa::kNone);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx512, "neon"), SimdIsa::kNone);
  // Unset or unrecognized values leave the probe untouched.
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kAvx2, nullptr), SimdIsa::kAvx2);
  EXPECT_EQ(ApplyIsaOverride(SimdIsa::kNeon, "sse9"), SimdIsa::kNeon);
}

TEST(CpuTest, IsaNamesRoundTrip) {
  EXPECT_STREQ(ToString(SimdIsa::kNone), "none");
  EXPECT_STREQ(ToString(SimdIsa::kPortable), "portable");
  EXPECT_STREQ(ToString(SimdIsa::kAvx2), "avx2");
  EXPECT_STREQ(ToString(SimdIsa::kAvx512), "avx512");
  EXPECT_STREQ(ToString(SimdIsa::kNeon), "neon");
}

TEST(CpuTest, HostRunsFollowsTheProbeRanking) {
  EXPECT_TRUE(HostRuns(SimdIsa::kNone));
  EXPECT_TRUE(HostRuns(SimdIsa::kPortable));
  EXPECT_TRUE(HostRuns(ProbeSimdIsa()));
  // Every AVX-512 host runs AVX2 code too.
  if (HostRuns(SimdIsa::kAvx512)) {
    EXPECT_TRUE(HostRuns(SimdIsa::kAvx2));
  }
  EXPECT_TRUE(IncludesAvx2(SimdIsa::kAvx512));
  EXPECT_FALSE(IncludesAvx2(SimdIsa::kPortable));
}

TEST(CpuTest, DetectIsStableAndConsistentWithAvailability) {
  // The detection is cached; repeated calls must agree, and SimdAvailable
  // is defined as exactly "some sweep implementation will dispatch".
  const SimdIsa isa = DetectSimdIsa();
  EXPECT_EQ(DetectSimdIsa(), isa);
  EXPECT_EQ(SimdAvailable(), isa != SimdIsa::kNone);
}

}  // namespace
}  // namespace skydiver
