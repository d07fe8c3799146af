// Kernel parity for Phase 2: the lane-agreement row kernel's backends
// against a scalar loop, the agreement distances against the per-pair
// distances they replace, and the row greedy against the per-pair greedy.
// MinHash and LSH picks, objectives and distance-evaluation counts must be
// identical, bit for bit, at every thread count and morsel size.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "kernels/agree_row.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

// ---------------------------------------------------------------------------
// AgreeRow backends.

uint32_t RandomLane(Rng& rng) {
  // Small values (chance agreements), empty slots, and large values (the
  // compare must not care about sign).
  switch (rng.NextBounded(4)) {
    case 0: return static_cast<uint32_t>(rng.NextBounded(4));
    case 1: return kEmptySlot32;
    case 2: return kEmptySlot32 - 1 - static_cast<uint32_t>(rng.NextBounded(4));
    default: return static_cast<uint32_t>(rng.Next());
  }
}

void ExpectRowMatchesScalarLoop(kernel_internal::AgreeRowFn fn, const char* name) {
  Rng rng(0x726f77);
  constexpr uint32_t kUnwritten = 0xdeadbeef;
  for (size_t width : {1, 7, 8, 9, 15, 16, 17, 25, 50, 100, 257}) {
    for (int trial = 0; trial < 10; ++trial) {
      const size_t n = 1 + rng.NextBounded(40);
      std::vector<uint32_t> pivot(width);
      for (auto& v : pivot) v = RandomLane(rng);
      // Columns copy a random share of the pivot's lanes, so agreement
      // counts span 0..width.
      std::vector<uint32_t> columns(n * width);
      const double share = rng.NextDouble();
      for (size_t j = 0; j < n; ++j) {
        for (size_t l = 0; l < width; ++l) {
          columns[j * width + l] = rng.NextDouble() < share ? pivot[l] : RandomLane(rng);
        }
      }
      std::vector<uint8_t> skip(n);
      for (auto& s : skip) s = rng.NextBounded(3) == 0 ? 1 : 0;

      std::vector<uint32_t> want(n, kUnwritten);
      for (size_t j = 0; j < n; ++j) {
        if (skip[j] != 0) continue;
        uint32_t agree = 0;
        for (size_t l = 0; l < width; ++l) agree += columns[j * width + l] == pivot[l];
        want[j] = agree;
      }
      std::vector<uint32_t> got(n, kUnwritten);
      fn(pivot.data(), columns.data(), width, n, skip.data(), got.data());
      ASSERT_EQ(got, want) << name << " width = " << width << " n = " << n;

      // A null mask skips nothing.
      std::vector<uint32_t> all(n, kUnwritten);
      fn(pivot.data(), columns.data(), width, n, nullptr, all.data());
      for (size_t j = 0; j < n; ++j) {
        if (skip[j] == 0) {
          ASSERT_EQ(all[j], want[j]) << name << " width = " << width;
        }
      }
    }
  }
}

TEST(AgreeRowTest, PortableBackendMatchesScalarLoop) {
  ExpectRowMatchesScalarLoop(kernel_internal::PortableAgreeRow(), "portable");
}

// An AVX-512 host runs the AVX2 backend too (it is what
// SKYDIVER_FORCE_ISA=avx2 resolves to there), so the case runs on both.
TEST(AgreeRowTest, Avx2BackendMatchesScalarLoop) {
  const auto avx2 = kernel_internal::Avx2AgreeRow();
  if (avx2 == nullptr || !HostRuns(SimdIsa::kAvx2)) {
    GTEST_SKIP() << "no AVX2 backend on this build or host";
  }
  ExpectRowMatchesScalarLoop(avx2, "avx2");
}

TEST(AgreeRowTest, Avx512BackendMatchesScalarLoop) {
  const auto avx512 = kernel_internal::Avx512AgreeRow();
  if (avx512 == nullptr || !HostRuns(SimdIsa::kAvx512)) {
    GTEST_SKIP() << "no AVX-512 backend on this build or host";
  }
  ExpectRowMatchesScalarLoop(avx512, "avx512");
}

TEST(AgreeRowTest, ResolvedBackendMatchesScalarLoop) {
  ExpectRowMatchesScalarLoop(&AgreeRow, AgreeRowBackend());
  // The best backend the resolved level allows: forcing avx2 on an
  // AVX-512 host runs the AVX2 backend.
  const SimdIsa isa = DetectSimdIsa();
  std::string want = "portable";
  if (isa == SimdIsa::kAvx512 && kernel_internal::Avx512AgreeRow() != nullptr) {
    want = "avx512";
  } else if (IncludesAvx2(isa) && kernel_internal::Avx2AgreeRow() != nullptr) {
    want = "avx2";
  }
  EXPECT_EQ(AgreeRowBackend(), want);
}

// ---------------------------------------------------------------------------
// Agreement distances and the row greedy against their per-pair forms.

struct Fingerprints {
  std::vector<RowId> skyline;
  SigGenResult sig;
  LshIndex lsh;
};

Fingerprints Fingerprint(WorkloadKind kind, uint64_t seed) {
  const DataSet data = GenerateWorkload(kind, 3000, 4, seed).value();
  Fingerprints f{SkylineSFS(data).rows, {}, {}};
  const auto family = MinHashFamily::Create(100, data.size(), seed + 1);
  f.sig = SigGenIF(data, f.skyline, family).value();
  f.lsh = LshIndex::Build(f.sig.signatures, ChooseZones(100, 0.2, 20).value(), seed + 2)
              .value();
  return f;
}

constexpr WorkloadKind kWorkloads[] = {WorkloadKind::kIndependent,
                                       WorkloadKind::kCorrelated,
                                       WorkloadKind::kAnticorrelated};

TEST(AgreementDistanceTest, EqualsThePerPairDistancesBitForBit) {
  for (const WorkloadKind kind : kWorkloads) {
    const Fingerprints f = Fingerprint(kind, 41);
    const SignatureMatrix& sig = f.sig.signatures;
    const AgreementDistance minhash = sig.Distances();
    const AgreementDistance lsh = f.lsh.Distances();
    const size_t m = f.skyline.size();
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; j += 1 + m / 50) {
        ASSERT_EQ(minhash(i, j), sig.EstimatedDistance(i, j)) << i << "," << j;
        ASSERT_EQ(lsh(i, j), f.lsh.Distance(i, j)) << i << "," << j;
        ASSERT_EQ(lsh(i, j), static_cast<double>(
                                 f.lsh.vector(i).HammingDistance(f.lsh.vector(j))));
      }
    }
  }
}

// The Fig. 6 loop written out serially, pair by pair, apart from the
// library's greedy body: the oracle both greedy forms must reproduce.
DispersionResult ReferenceGreedy(size_t m, size_t k, const DistanceFn& distance,
                                 const std::vector<uint64_t>& scores) {
  DispersionResult out;
  std::vector<bool> taken(m, false);
  std::vector<double> min_dist(m, std::numeric_limits<double>::infinity());
  size_t seed = 0;
  for (size_t i = 1; i < m; ++i) {
    if (scores[i] > scores[seed]) seed = i;
  }
  out.selected.push_back(seed);
  taken[seed] = true;
  out.min_pairwise = std::numeric_limits<double>::infinity();
  while (out.selected.size() < k) {
    const size_t newest = out.selected.back();
    size_t best = m;
    double best_dist = -std::numeric_limits<double>::infinity();
    double best_score = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < m; ++i) {
      if (taken[i]) continue;
      min_dist[i] = std::min(min_dist[i], distance(i, newest));
      ++out.distance_evaluations;
      const auto s = static_cast<double>(scores[i]);
      if (min_dist[i] > best_dist || (min_dist[i] == best_dist && s > best_score)) {
        best = i;
        best_dist = min_dist[i];
        best_score = s;
      }
    }
    out.selected.push_back(best);
    taken[best] = true;
    out.min_pairwise = std::min(out.min_pairwise, best_dist);
  }
  if (k < 2) out.min_pairwise = 0.0;
  return out;
}

void ExpectSameSelection(const DispersionResult& got, const DispersionResult& want,
                         const std::string& where) {
  EXPECT_EQ(got.selected, want.selected) << where;
  EXPECT_EQ(got.min_pairwise, want.min_pairwise) << where;
  EXPECT_EQ(got.distance_evaluations, want.distance_evaluations) << where;
}

TEST(RowGreedyTest, MatchesPerPairGreedyAtEveryThreadCountAndMorselSize) {
  ThreadPool one(1), two(2), four(4);
  ThreadPool* const pools[] = {&one, &two, &four};
  for (const WorkloadKind kind : kWorkloads) {
    const Fingerprints f = Fingerprint(kind, 53);
    const size_t m = f.skyline.size();
    const auto& scores = f.sig.domination_scores;
    struct Space {
      const char* name;
      AgreementDistance row;
      DistanceFn pair;
    };
    const SignatureMatrix& sig = f.sig.signatures;
    const Space spaces[] = {
        {"minhash", sig.Distances(),
         [&sig](size_t a, size_t b) { return sig.EstimatedDistance(a, b); }},
        {"lsh", f.lsh.Distances(),
         [&f](size_t a, size_t b) { return f.lsh.Distance(a, b); }},
    };
    for (const Space& space : spaces) {
      for (const size_t k : {size_t{1}, size_t{2}, std::min<size_t>(12, m), m}) {
        const DispersionResult want = ReferenceGreedy(m, k, space.pair, scores);
        const std::string base = std::string(WorkloadKindName(kind)) + " " + space.name +
                                 " m=" + std::to_string(m) + " k=" + std::to_string(k);
        ExpectSameSelection(SelectDiverseSet(m, k, space.pair, scores).value(), want,
                            base + " per-pair");
        ExpectSameSelection(SelectDiverseSet(m, k, space.row, scores, nullptr).value(), want,
                            base + " inline");
        for (ThreadPool* pool : pools) {
          for (const size_t morsel_rows : {size_t{1}, size_t{3}, size_t{7}, size_t{0}}) {
            const std::string where = base + " threads=" + std::to_string(pool->size()) +
                                      " morsel_rows=" + std::to_string(morsel_rows);
            ExpectSameSelection(
                SelectDiverseSet(m, k, space.row, scores, pool, morsel_rows).value(), want,
                where + " row");
            ExpectSameSelection(
                SelectDiverseSet(m, k, space.pair, scores, pool, morsel_rows).value(),
                want, where + " pair");
          }
        }
      }
    }
  }
}

TEST(RowGreedyTest, ValidatesLikeThePerPairGreedy) {
  SignatureMatrix sig(4, 5);
  const std::vector<uint64_t> scores(5, 1);
  EXPECT_TRUE(SelectDiverseSet(5, 0, sig.Distances(), scores, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SelectDiverseSet(5, 6, sig.Distances(), scores, nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SelectDiverseSet(5, 2, sig.Distances(), std::vector<uint64_t>(3, 1), nullptr)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skydiver
