// Unit tests for src/minhash: hash family, signature matrix, estimator
// accuracy, and both signature generators (IF / IB) including their
// agreement with exact Jaccard distances.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/gamma.h"
#include "datagen/generators.h"
#include "minhash/minhash.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "poset/mixed.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"
#include "stream/streaming.h"

namespace skydiver {
namespace {

TEST(MinHashFamilyTest, PrimeExceedsUniverse) {
  const auto family = MinHashFamily::Create(16, 1000, 1);
  EXPECT_EQ(family.size(), 16u);
  EXPECT_GT(family.prime(), 1000u);
}

TEST(MinHashFamilyTest, HashesStayBelowPrime) {
  const auto family = MinHashFamily::Create(8, 500, 2);
  for (size_t i = 0; i < family.size(); ++i) {
    for (uint64_t x : {0ULL, 1ULL, 250ULL, 499ULL}) {
      EXPECT_LT(family.Apply(i, x), family.prime());
    }
  }
}

TEST(MinHashFamilyTest, LinearStepProperty) {
  // h(x+1) = h(x) + a (mod P) — the identity the IB range updates rely on.
  const auto family = MinHashFamily::Create(8, 500, 3);
  for (size_t i = 0; i < family.size(); ++i) {
    for (uint64_t x = 0; x < 100; ++x) {
      const uint64_t expected = (family.Apply(i, x) + family.StepOf(i)) % family.prime();
      EXPECT_EQ(family.Apply(i, x + 1), expected);
    }
  }
}

TEST(MinHashFamilyTest, IsPermutationOnSmallDomain) {
  const auto family = MinHashFamily::Create(4, 50, 4);
  for (size_t i = 0; i < family.size(); ++i) {
    std::vector<bool> seen(family.prime(), false);
    for (uint64_t x = 0; x < family.prime(); ++x) {
      const uint64_t h = family.Apply(i, x);
      EXPECT_FALSE(seen[h]) << "collision in hash " << i;
      seen[h] = true;
    }
  }
}

TEST(SignatureMatrixTest, UpdateMinAndEstimate) {
  SignatureMatrix sig(4, 2);
  EXPECT_EQ(sig.at(0, 0), kEmptySlot);
  sig.UpdateMin(0, 0, 10);
  sig.UpdateMin(0, 0, 20);  // no-op, larger
  EXPECT_EQ(sig.at(0, 0), 10u);
  sig.UpdateMin(0, 0, 5);
  EXPECT_EQ(sig.at(0, 0), 5u);
  // Columns: [5,∞,∞,∞] vs [5,∞,∞,7] -> 3 of 4 slots agree.
  sig.UpdateMin(1, 0, 5);
  sig.UpdateMin(1, 3, 7);
  EXPECT_DOUBLE_EQ(sig.EstimatedSimilarity(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(sig.EstimatedDistance(0, 1), 0.25);
}

TEST(SignatureMatrixTest, MemoryBytes) {
  SignatureMatrix sig(100, 50);
  EXPECT_EQ(sig.MemoryBytes(), 100u * 50u * sizeof(uint32_t));
}

TEST(SignatureMatrixTest, AccessorsWidenTheEmptyMarker) {
  SignatureMatrix sig(3, 2);
  EXPECT_EQ(sig.at(1, 2), kEmptySlot);
  EXPECT_EQ(sig.column(1)[2], kEmptySlot32);
  sig.UpdateMin(1, 2, kEmptySlot);  // min with "empty" changes nothing
  EXPECT_EQ(sig.at(1, 2), kEmptySlot);
  sig.UpdateMin(1, 2, kMaxSignaturePrime - 1);  // the largest hash value
  EXPECT_EQ(sig.at(1, 2), kMaxSignaturePrime - 1);
  const uint32_t row[3] = {7, kEmptySlot32, 9};
  sig.MergeMin(0, row);
  EXPECT_EQ(sig.at(0, 0), 7u);
  EXPECT_EQ(sig.at(0, 1), kEmptySlot);
  EXPECT_EQ(sig.at(0, 2), 9u);
}

TEST(SignatureMatrixTest, StoreRejectsValuesWithoutA32BitForm) {
  SignatureMatrix sig(2, 1);
  EXPECT_TRUE(sig.Store(0, 0, 0));
  EXPECT_TRUE(sig.Store(0, 1, uint64_t{kEmptySlot32} - 1));
  EXPECT_EQ(sig.at(0, 1), uint64_t{kEmptySlot32} - 1);
  EXPECT_TRUE(sig.Store(0, 1, kEmptySlot));
  EXPECT_EQ(sig.at(0, 1), kEmptySlot);
  for (uint64_t bad : {uint64_t{kEmptySlot32}, uint64_t{1} << 32, kEmptySlot - 1}) {
    EXPECT_FALSE(sig.Store(0, 0, bad)) << bad;
    EXPECT_EQ(sig.at(0, 0), 0u) << "a rejected value must not be stored";
  }
}

TEST(SignatureMatrixTest, WholeMatrixMergeIsSlotwiseMin) {
  SignatureMatrix a(4, 3), b(4, 3);
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < 4; ++i) {
      if ((i + j) % 3 != 0) a.UpdateMin(j, i, 10 * j + i);
      if ((i + j) % 2 != 0) b.UpdateMin(j, i, 10 * j + 5 - i);
    }
  }
  SignatureMatrix merged = a;
  merged.MergeMin(b);
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(merged.at(j, i), std::min(a.at(j, i), b.at(j, i))) << j << "," << i;
    }
  }
}

// --------------------------------------------------------------------------
// The 64-bit reduction in MinHashFamily::Apply against a 128-bit reference.
// --------------------------------------------------------------------------

uint64_t ReferenceHash(const MinHashFamily& family, size_t i, uint64_t x) {
  const __uint128_t v = static_cast<__uint128_t>(family.StepOf(i)) * x + family.OffsetOf(i);
  return static_cast<uint64_t>(v % family.prime());
}

void ExpectMatchesReference(const MinHashFamily& family, const std::vector<uint64_t>& xs) {
  for (size_t i = 0; i < family.size(); ++i) {
    ASSERT_LT(family.StepOf(i), family.prime());
    ASSERT_LT(family.OffsetOf(i), family.prime());
    for (uint64_t x : xs) {
      ASSERT_EQ(family.Apply(i, x), ReferenceHash(family, i, x))
          << "P = " << family.prime() << ", i = " << i << ", x = " << x;
    }
  }
}

TEST(MinHashFamilyTest, SixtyFourBitPathMatches128BitReferenceBelow2To32) {
  // universe 4294967000: P is one of the primes just below 2^32, where
  // a·x + b comes closest to overflowing 64 bits.
  for (uint64_t seed : {1, 2, 3}) {
    const auto family = MinHashFamily::Create(64, 4294967000u, seed);
    ASSERT_TRUE(family.fits_slots());
    ASSERT_GT(family.prime(), 4294967000u);
    ASSERT_LE(family.prime(), kMaxSignaturePrime);
    const uint64_t p = family.prime();
    std::vector<uint64_t> xs = {0, 1, p - 2, p - 1};
    Rng rng(seed * 17);
    for (int k = 0; k < 200; ++k) xs.push_back(rng.NextBounded(p));
    ExpectMatchesReference(family, xs);
    // HashRow / StepRow walk the same values as Apply.
    std::vector<uint32_t> row(family.size());
    family.HashRow(p - 3, row.data());
    for (uint64_t x = p - 3; x < p; ++x) {
      for (size_t i = 0; i < family.size(); ++i) ASSERT_EQ(row[i], family.Apply(i, x));
      family.StepRow(row.data());
    }
    // Past P - 1 the row wraps to h(P) = h(0) = b.
    for (size_t i = 0; i < family.size(); ++i) ASSERT_EQ(row[i], family.OffsetOf(i));
  }
}

TEST(MinHashFamilyTest, WideFallbackMatches128BitReferenceAbove2To32) {
  const auto family = MinHashFamily::Create(32, uint64_t{1} << 40, 7);
  ASSERT_FALSE(family.fits_slots());
  ASSERT_GT(family.prime(), uint64_t{1} << 40);
  const uint64_t p = family.prime();
  std::vector<uint64_t> xs = {0, 1, (uint64_t{1} << 32) - 1, uint64_t{1} << 32, p - 2, p - 1};
  Rng rng(11);
  for (int k = 0; k < 200; ++k) xs.push_back(rng.NextBounded(p));
  ExpectMatchesReference(family, xs);
  EXPECT_TRUE(ValidateSignatureFamily(family).IsInvalidArgument());
}

TEST(MinHashFamilyTest, SmallPrimeWithWideRowIdsUsesTheExactPath) {
  // x >= 2^32 with a small P must not take the 64-bit product.
  const auto family = MinHashFamily::Create(16, 1000, 5);
  ExpectMatchesReference(family, {uint64_t{1} << 32, (uint64_t{1} << 40) + 3, kEmptySlot});
  std::vector<uint32_t> row(family.size());
  family.HashRow(uint64_t{1} << 33, row.data());
  for (size_t i = 0; i < family.size(); ++i) {
    EXPECT_EQ(row[i], ReferenceHash(family, i, uint64_t{1} << 33));
  }
}

TEST(SignatureMatrixTest, RecommendedSizeGrowsWithTighterError) {
  EXPECT_GT(RecommendedSignatureSize(0.05, 0.1, 0.01),
            RecommendedSignatureSize(0.1, 0.1, 0.01));
  EXPECT_GT(RecommendedSignatureSize(0.1, 0.1, 0.001),
            RecommendedSignatureSize(0.1, 0.1, 0.01));
}

// --------------------------------------------------------------------------
// MinHash estimator accuracy on synthetic sets with known Jaccard.
// --------------------------------------------------------------------------

TEST(MinHashEstimatorTest, ConcentratesAroundTrueJaccard) {
  // Two sets over universe [0, 3000): A = [0,2000), B = [1000,3000).
  // |A∩B| = 1000, |A∪B| = 3000 -> Js = 1/3.
  const size_t t = 400;
  const auto family = MinHashFamily::Create(t, 3000, 5);
  SignatureMatrix sig(t, 2);
  for (uint64_t x = 0; x < 3000; ++x) {
    for (size_t i = 0; i < t; ++i) {
      const uint64_t h = family.Apply(i, x);
      if (x < 2000) sig.UpdateMin(0, i, h);
      if (x >= 1000) sig.UpdateMin(1, i, h);
    }
  }
  EXPECT_NEAR(sig.EstimatedSimilarity(0, 1), 1.0 / 3.0, 0.08);
}

// --------------------------------------------------------------------------
// Signature generators.
// --------------------------------------------------------------------------

struct SigGenFixture {
  DataSet data = DataSet(1);
  std::vector<RowId> skyline;
  GammaSets gammas;

  static SigGenFixture Make(WorkloadKind kind, RowId n, Dim d, uint64_t seed) {
    SigGenFixture f;
    f.data = GenerateWorkload(kind, n, d, seed).value();
    f.skyline = SkylineSFS(f.data).rows;
    f.gammas = GammaSets::Compute(f.data, f.skyline);
    return f;
  }
};

TEST(SigGenTest, ValidatesInputs) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 200, 3, 7);
  const auto family = MinHashFamily::Create(10, f.data.size(), 1);
  EXPECT_TRUE(SigGenIF(f.data, {}, family).status().IsInvalidArgument());
  EXPECT_TRUE(SigGenIF(f.data, {9999}, family).status().IsInvalidArgument());
  const auto tiny_family = MinHashFamily::Create(10, 1, 1);
  // Prime (= 3) does not exceed the dataset size: rejected.
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, tiny_family).status().IsInvalidArgument());
}

TEST(SigGenTest, IfDominationScoresAreExact) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 1500, 3, 11);
  const auto family = MinHashFamily::Create(20, f.data.size(), 2);
  auto result = SigGenIF(f.data, f.skyline, family);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->domination_scores.size(), f.skyline.size());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    EXPECT_EQ(result->domination_scores[j], f.gammas.DominationScore(j)) << j;
  }
}

TEST(SigGenTest, IbDominationScoresAreExact) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 1500, 3, 11);
  const auto family = MinHashFamily::Create(20, f.data.size(), 2);
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  auto result = SigGenIB(f.data, f.skyline, family, *tree);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    EXPECT_EQ(result->domination_scores[j], f.gammas.DominationScore(j)) << j;
  }
}

TEST(SigGenTest, IfSignatureMatchesDirectMinHashOfGamma) {
  // SigGen-IF must produce exactly min over Γ(s) of h_i(row).
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 800, 3, 13);
  const auto family = MinHashFamily::Create(16, f.data.size(), 3);
  auto result = SigGenIF(f.data, f.skyline, family);
  ASSERT_TRUE(result.ok());
  for (size_t j = 0; j < f.skyline.size(); ++j) {
    for (size_t i = 0; i < family.size(); ++i) {
      uint64_t expected = kEmptySlot;
      for (RowId r = 0; r < f.data.size(); ++r) {
        if (f.gammas.gamma(j).Test(r)) {
          expected = std::min(expected, family.Apply(i, r));
        }
      }
      EXPECT_EQ(result->signatures.at(j, i), expected) << "col " << j << " slot " << i;
    }
  }
}

using SigGenEstimatePair = std::tuple<WorkloadKind, bool>;  // workload, use index

class SigGenEstimateTest : public testing::TestWithParam<SigGenEstimatePair> {};

TEST_P(SigGenEstimateTest, EstimatedDistancesTrackExactJaccard) {
  const auto [kind, use_index] = GetParam();
  const auto f = SigGenFixture::Make(kind, 3000, 4, 17);
  const size_t t = 256;
  const auto family = MinHashFamily::Create(t, f.data.size(), 4);
  SignatureMatrix sig;
  if (use_index) {
    auto tree = RTree::BulkLoad(f.data);
    ASSERT_TRUE(tree.ok());
    auto result = SigGenIB(f.data, f.skyline, family, *tree);
    ASSERT_TRUE(result.ok());
    sig = std::move(result->signatures);
  } else {
    auto result = SigGenIF(f.data, f.skyline, family);
    ASSERT_TRUE(result.ok());
    sig = std::move(result->signatures);
  }
  const size_t m = f.skyline.size();
  ASSERT_GE(m, 3u);
  double max_err = 0.0;
  double sum_err = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      const double err =
          std::fabs(sig.EstimatedSimilarity(a, b) - f.gammas.JaccardSimilarity(a, b));
      max_err = std::max(max_err, err);
      sum_err += err;
      ++pairs;
    }
  }
  // Standard error of a t=256 Bernoulli mean is <= 0.5/16 ~ 0.031; allow a
  // generous band for the worst pair and a tight one for the mean.
  EXPECT_LT(sum_err / static_cast<double>(pairs), 0.035);
  EXPECT_LT(max_err, 0.20);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SigGenEstimateTest,
    testing::Combine(testing::Values(WorkloadKind::kIndependent,
                                     WorkloadKind::kAnticorrelated,
                                     WorkloadKind::kForestCoverLike,
                                     WorkloadKind::kRecipesLike),
                     testing::Values(false, true)),
    [](const testing::TestParamInfo<SigGenEstimatePair>& info) {
      return WorkloadKindName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_IB" : "_IF");
    });

TEST(SigGenTest, IbReadsFewerPagesThanLinearScanOnClusteredData) {
  const auto f = SigGenFixture::Make(WorkloadKind::kForestCoverLike, 20000, 4, 19);
  const auto family = MinHashFamily::Create(50, f.data.size(), 5);
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  auto ib = SigGenIB(f.data, f.skyline, family, *tree);
  ASSERT_TRUE(ib.ok());
  // IB skips fully-dominated subtrees, so it must perform far fewer
  // dominance checks than the naive per-point scan's (n - m) * m. (SigGen-IF
  // itself now prunes by tile corners, so it is no longer that baseline.)
  const uint64_t naive = uint64_t{f.data.size() - f.skyline.size()} * f.skyline.size();
  EXPECT_LT(ib->dominance_checks, naive / 2);
}

TEST(SigGenTest, SequentialScanPageMath) {
  // 4 doubles + 4-byte id = 36 bytes/record; 4096/36 = 113 records/page.
  EXPECT_EQ(SequentialScanPages(113, 4, 4096), 1u);
  EXPECT_EQ(SequentialScanPages(114, 4, 4096), 2u);
  EXPECT_EQ(SequentialScanPages(0, 4, 4096), 0u);
}

TEST(SigGenTest, IbRejectsForeignTree) {
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 300, 3, 23);
  const DataSet other = GenerateIndependent(200, 3, 24);
  auto tree = RTree::BulkLoad(other);
  ASSERT_TRUE(tree.ok());
  const auto family = MinHashFamily::Create(10, f.data.size(), 6);
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, family, *tree).status().IsInvalidArgument());
}

TEST(SigGenTest, EveryProducerRejectsAFamilyWiderThanASlot) {
  // A huge universe over tiny data: P > 2^32, so some hash values have no
  // 32-bit slot form. Every SignatureMatrix producer refuses the family
  // up front instead of narrowing its values.
  const auto f = SigGenFixture::Make(WorkloadKind::kIndependent, 300, 3, 29);
  const auto wide = MinHashFamily::Create(8, uint64_t{1} << 33, 31);
  ASSERT_GT(wide.prime(), uint64_t{1} << 32);
  EXPECT_TRUE(ValidateSignatureFamily(wide).IsInvalidArgument());

  EXPECT_TRUE(SigGenIF(f.data, f.skyline, wide).status().IsInvalidArgument());
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, wide, DomKernel::kSimd).status().IsInvalidArgument());
  auto tree = RTree::BulkLoad(f.data);
  ASSERT_TRUE(tree.ok());
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, wide, *tree).status().IsInvalidArgument());
  const std::string path = testing::TempDir() + "/wide_family.pages";
  ASSERT_TRUE(DiskRTree::Write(*tree, path).ok());
  auto disk = DiskRTree::Open(path);
  ASSERT_TRUE(disk.ok());
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, wide, *disk).status().IsInvalidArgument());
  std::remove(path.c_str());

  ThreadPool pool(2);
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, wide, DomKernel::kSimd, &pool)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SigGenIB(f.data, f.skyline, wide, *tree, DomKernel::kSimd, &pool)
                  .status()
                  .IsInvalidArgument());

  const MixedSchema schema(f.data.dims());  // all numeric
  EXPECT_TRUE(MixedSigGenIF(f.data, schema, f.skyline, wide).status().IsInvalidArgument());

  StreamingSkyDiver stream(3, 8, 31, uint64_t{1} << 33);
  ASSERT_TRUE(stream.Insert({0.5, 0.5, 0.5}).ok());
  ASSERT_TRUE(stream.Insert({0.7, 0.6, 0.9}).ok());
  EXPECT_TRUE(stream.ExportFingerprints().status().IsInvalidArgument());

  // The largest prime that fits is accepted.
  const auto widest = MinHashFamily::Create(8, kMaxSignaturePrime - 1, 31);
  EXPECT_EQ(widest.prime(), kMaxSignaturePrime);
  EXPECT_TRUE(ValidateSignatureFamily(widest).ok());
  EXPECT_TRUE(SigGenIF(f.data, f.skyline, widest).ok());
}

}  // namespace
}  // namespace skydiver
