// Corner-pruned skyline blocks (kernels/skyline_blocks.h) against an
// exhaustive scalar scan, and the passes built on them: SigGen-IF serial
// against pooled, the Γ-set builder, and SigGen-IB's per-node candidate
// split. Every kernel, thread count and morsel size must give the same
// dominators, signatures, scores AND dominance counts.
//
// ctest also runs this binary with SKYDIVER_FORCE_ISA=portable, so the
// simd flavour is checked on the portable word-mask backend as well.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu.h"
#include "core/dominance.h"
#include "core/gamma.h"
#include "datagen/generators.h"
#include "kernels/dominance_kernel.h"
#include "kernels/skyline_blocks.h"
#include "minhash/ib_accumulator.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

constexpr DomKernel kAllKernels[] = {DomKernel::kScalar, DomKernel::kTiled,
                                     DomKernel::kSimd};
constexpr Coord kNaN = std::numeric_limits<Coord>::quiet_NaN();

// Strict dominance with the kernels' reading of NaN (a comparison with NaN
// is a tie), written apart from the library.
bool RefDominates(std::span<const Coord> a, std::span<const Coord> b) {
  bool strict = false;
  for (size_t d = 0; d < a.size(); ++d) {
    if (a[d] > b[d]) return false;
    if (a[d] < b[d]) strict = true;
  }
  return strict;
}

std::vector<std::span<const Coord>> Spans(const std::vector<std::vector<Coord>>& points) {
  return {points.begin(), points.end()};
}

std::vector<size_t> Dominators(const SkylineBlocks& blocks, std::span<const Coord> p,
                               const DominanceKernel& kernel) {
  std::vector<size_t> out;
  blocks.ForEachDominator(p, kernel, [&](size_t j) { out.push_back(j); });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Coord> CornerOf(const Tile& corners, size_t k) {
  std::vector<Coord> c(corners.dims());
  for (size_t d = 0; d < c.size(); ++d) c[d] = corners.view().at(k, d);
  return c;
}

// ---------------------------------------------------------------------------
// SkylineBlocks against an exhaustive scan.

using BlockParam = std::tuple<WorkloadKind, Dim, size_t>;

class SkylineBlocksTest : public testing::TestWithParam<BlockParam> {};

TEST_P(SkylineBlocksTest, DominatorsMatchExhaustiveScan) {
  const auto [kind, dims, m] = GetParam();
  constexpr size_t kProbes = 160;
  const DataSet data =
      GenerateWorkload(kind, static_cast<RowId>(m + kProbes), dims, 0xb10c + dims).value();
  // Columns on a 1/8 grid, so that ties on single dimensions and on every
  // dimension are common; then a duplicate column and one NaN coordinate.
  auto snapped = [&](RowId r) {
    std::vector<Coord> p(data.row(r).begin(), data.row(r).end());
    for (Coord& v : p) v = std::round(v * 8.0) / 8.0;
    return p;
  };
  std::vector<std::vector<Coord>> columns;
  for (size_t j = 0; j < m; ++j) columns.push_back(snapped(static_cast<RowId>(j)));
  if (m >= 2) columns[m - 1] = columns[0];
  if (m >= 3) columns[1][dims - 1] = kNaN;
  const SkylineBlocks blocks(dims, Spans(columns));

  // Structure: the tiles hold every column once, all but the last full,
  // with one corner per tile (none for a lone tile) equal to the tile's
  // per-dimension minimum, or -inf over a NaN.
  ASSERT_EQ(blocks.size(), m);
  const size_t tile_count = (m + kTileRows - 1) / kTileRows;
  ASSERT_EQ(blocks.tiles().size(), tile_count);
  std::vector<int> seen(m, 0);
  for (size_t i = 0; i < tile_count; ++i) {
    const Tile& tile = blocks.tiles()[i];
    EXPECT_EQ(tile.rows(), i + 1 < tile_count ? kTileRows : m - i * kTileRows);
    for (size_t r = 0; r < tile.rows(); ++r) ++seen[tile.id(r)];
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 1), static_cast<ptrdiff_t>(m));
  if (tile_count == 1) {
    EXPECT_TRUE(blocks.corners().empty());
  } else {
    ASSERT_EQ(blocks.corners().size(), (tile_count + kTileRows - 1) / kTileRows);
    for (const Tile& corners : blocks.corners()) {
      for (size_t k = 0; k < corners.rows(); ++k) {
        const Tile& tile = blocks.tiles()[corners.id(k)];
        for (Dim d = 0; d < dims; ++d) {
          Coord want = std::numeric_limits<Coord>::infinity();
          for (size_t r = 0; r < tile.rows(); ++r) {
            const Coord v = columns[tile.id(r)][d];
            want = std::isnan(v) ? -std::numeric_limits<Coord>::infinity()
                                 : std::min(want, v);
            if (std::isinf(want) && want < 0) break;
          }
          ASSERT_EQ(corners.view().at(k, d), want) << "tile " << corners.id(k);
        }
      }
    }
  }

  // Probes: fresh data rows, every column (duplicates and ties), every
  // tile corner, and a row with a NaN coordinate.
  std::vector<std::vector<Coord>> probes;
  for (size_t k = 0; k < kProbes; ++k) probes.push_back(snapped(static_cast<RowId>(m + k)));
  const size_t stride = std::max<size_t>(1, m / 256);
  for (size_t j = 0; j < m; j += stride) probes.push_back(columns[j]);
  if (m >= 2) probes.push_back(columns[m - 1]);
  for (const Tile& corners : blocks.corners()) {
    for (size_t k = 0; k < corners.rows(); ++k) probes.push_back(CornerOf(corners, k));
  }
  probes.push_back(snapped(static_cast<RowId>(m)));
  probes.back()[0] = kNaN;

  for (const auto& p : probes) {
    std::vector<size_t> want;
    for (size_t j = 0; j < m; ++j) {
      if (RefDominates(columns[j], p)) want.push_back(j);
    }
    uint64_t checks = 0;
    for (const DomKernel flavour : kAllKernels) {
      const DominanceKernel kernel(flavour);
      const uint64_t before = DominanceCounter::Count();
      ASSERT_EQ(Dominators(blocks, p, kernel), want) << ToString(flavour);
      const uint64_t charged = DominanceCounter::Count() - before;
      if (flavour == DomKernel::kScalar) checks = charged;
      EXPECT_EQ(charged, checks) << ToString(flavour);
      EXPECT_LE(charged, m + blocks.tiles().size());
    }
  }
}

TEST(SkylineBlocksOrderTest, CornersPruneMostTilesOnAnticorrelatedData) {
  // The STR order keeps each tile's corner tight, so on a large
  // anticorrelated skyline most rows reach only a minority of the tiles.
  const DataSet data = GenerateWorkload(WorkloadKind::kAnticorrelated, 20000, 6, 3).value();
  const auto skyline = SkylineSFS(data).rows;
  ASSERT_GE(skyline.size(), 8 * kTileRows);
  const auto family = MinHashFamily::Create(8, data.size(), 0x7b);
  const SigGenResult result = SigGenIF(data, skyline, family, DomKernel::kSimd).value();
  const uint64_t exhaustive = uint64_t{data.size() - skyline.size()} * skyline.size();
  EXPECT_LT(result.dominance_checks, exhaustive / 2)
      << "m = " << skyline.size() << ", exhaustive = " << exhaustive;
}

TEST(SkylineBlocksOrderTest, EmptyInputHasNoTiles) {
  const SkylineBlocks blocks(3, std::span<const std::span<const Coord>>());
  EXPECT_EQ(blocks.size(), 0u);
  EXPECT_TRUE(blocks.tiles().empty());
  EXPECT_TRUE(blocks.corners().empty());
  const std::vector<Coord> p = {1, 2, 3};
  EXPECT_TRUE(Dominators(blocks, p, DominanceKernel(DomKernel::kSimd)).empty());
}

std::string BlockName(const testing::TestParamInfo<BlockParam>& info) {
  static const char* const kNames[] = {"IND", "CORR", "ANT"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_d" +
         std::to_string(std::get<1>(info.param)) + "_m" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SkylineBlocksTest,
    testing::Combine(testing::Values(WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
                                     WorkloadKind::kAnticorrelated),
                     testing::Values(Dim{2}, Dim{3}, Dim{6}, Dim{8}, Dim{12}),
                     testing::Values(size_t{1}, size_t{63}, size_t{64}, size_t{65},
                                     size_t{4097})),
    BlockName);

// ---------------------------------------------------------------------------
// SigGen-IF serial against pooled, and against the Γ sets.

void ExpectSameSigGen(const SigGenResult& got, const SigGenResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.domination_scores, want.domination_scores) << what;
  EXPECT_EQ(got.dominance_checks, want.dominance_checks) << what;
  ASSERT_EQ(got.signatures.columns(), want.signatures.columns()) << what;
  const size_t t = want.signatures.signature_size();
  for (size_t j = 0; j < want.signatures.columns(); ++j) {
    for (size_t i = 0; i < t; ++i) {
      ASSERT_EQ(got.signatures.at(j, i), want.signatures.at(j, i))
          << what << ": col " << j << " slot " << i;
    }
  }
}

class SigGenIfBlocksTest : public testing::TestWithParam<WorkloadKind> {};

TEST_P(SigGenIfBlocksTest, SerialPooledAndKernelsAgreeBitForBit) {
  const DataSet data = GenerateWorkload(GetParam(), 3001, 5, 0x1f).value();
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(24, data.size(), 0x5a);
  const SigGenResult reference = SigGenIF(data, skyline, family, DomKernel::kScalar).value();
  EXPECT_LE(reference.dominance_checks,
            uint64_t{data.size() - skyline.size()} * (skyline.size() + skyline.size() / 64 + 1));

  // Scores are the exact |Γ(s_j)|.
  const GammaSets gammas = GammaSets::Compute(data, skyline);
  for (size_t j = 0; j < skyline.size(); ++j) {
    ASSERT_EQ(reference.domination_scores[j], gammas.DominationScore(j)) << j;
  }

  for (const DomKernel kernel : kAllKernels) {
    const std::string name = ToString(kernel);
    ExpectSameSigGen(SigGenIF(data, skyline, family, kernel).value(), reference,
                     "serial " + name);
    for (const size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      for (const size_t morsel : {size_t{1}, size_t{7}, size_t{64}, size_t{0}}) {
        ExpectSameSigGen(
            SigGenIF(data, skyline, family, kernel, &pool, morsel).value(), reference,
            name + " threads=" + std::to_string(threads) +
                " morsel=" + std::to_string(morsel));
      }
    }
  }
}

TEST_P(SigGenIfBlocksTest, SignaturesMatchPerRowHashing) {
  // SigGen-IF steps each dominated row's hashes from the previous one
  // (RowHasher); the reference hashes every dominated row afresh with
  // HashRow over an exhaustive scan. Inline and pooled runs must match it
  // bit for bit.
  const DataSet data = GenerateWorkload(GetParam(), 2500, 4, 0x3f).value();
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(40, data.size(), 0x6b);
  SignatureMatrix want(family.size(), skyline.size());
  std::vector<uint64_t> want_scores(skyline.size(), 0);
  std::vector<uint32_t> row(family.size());
  for (RowId r = 0; r < data.size(); ++r) {
    for (size_t j = 0; j < skyline.size(); ++j) {
      if (!RefDominates(data.row(skyline[j]), data.row(r))) continue;
      family.HashRow(r, row.data());
      want.MergeMin(j, row.data());
      ++want_scores[j];
    }
  }
  ThreadPool pool(3);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    for (const size_t morsel : {size_t{1}, size_t{64}}) {
      const SigGenResult got =
          SigGenIF(data, skyline, family, DomKernel::kSimd, p, morsel).value();
      const std::string what = (p == nullptr ? "inline" : "pooled") +
                               std::string(" morsel=") + std::to_string(morsel);
      EXPECT_EQ(got.domination_scores, want_scores) << what;
      for (size_t j = 0; j < skyline.size(); ++j) {
        for (size_t i = 0; i < family.size(); ++i) {
          ASSERT_EQ(got.signatures.at(j, i), want.at(j, i))
              << what << ": col " << j << " slot " << i;
        }
      }
    }
  }
}

TEST_P(SigGenIfBlocksTest, GammaSetsMatchExhaustiveScan) {
  const DataSet data = GenerateWorkload(GetParam(), 1500, 4, 0x2f).value();
  const auto skyline = SkylineSFS(data).rows;
  uint64_t checks = 0;
  for (const DomKernel kernel : kAllKernels) {
    const uint64_t before = DominanceCounter::Count();
    const GammaSets gammas = GammaSets::Compute(data, skyline, kernel);
    const uint64_t charged = DominanceCounter::Count() - before;
    if (kernel == DomKernel::kScalar) checks = charged;
    EXPECT_EQ(charged, checks) << ToString(kernel);
    for (size_t j = 0; j < skyline.size(); ++j) {
      BitVector want(data.size());
      for (RowId r = 0; r < data.size(); ++r) {
        if (RefDominates(data.row(skyline[j]), data.row(r))) want.Set(r);
      }
      ASSERT_EQ(gammas.gamma(j), want) << ToString(kernel) << " column " << j;
      EXPECT_EQ(gammas.DominationScore(j), want.Count());
    }
  }
}

std::string WorkloadName(const testing::TestParamInfo<WorkloadKind>& info) {
  static const char* const kNames[] = {"IND", "CORR", "ANT"};
  return kNames[static_cast<int>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(Workloads, SigGenIfBlocksTest,
                         testing::Values(WorkloadKind::kIndependent,
                                         WorkloadKind::kCorrelated,
                                         WorkloadKind::kAnticorrelated),
                         WorkloadName);

// ---------------------------------------------------------------------------
// SigGen-IB: the per-node candidate split and its counts.

TEST(SigGenIbSplitTest, SplitNodeMatchesTheMbrDefinitions) {
  const DataSet data = GenerateWorkload(WorkloadKind::kAnticorrelated, 6000, 4, 0x3f).value();
  const auto skyline = SkylineSFS(data).rows;
  ASSERT_GE(skyline.size(), kTileRows);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const RTreeNode& root = tree->PeekNode(tree->root());
  ASSERT_FALSE(root.is_leaf);
  std::vector<std::span<const Coord>> sky;
  for (RowId s : skyline) sky.push_back(data.row(s));
  // Every other column, so candidate order is not column order's identity.
  std::vector<size_t> candidates;
  for (size_t j = skyline.size(); j-- > 0;) {
    if (j % 2 == 0) candidates.push_back(j);
  }
  for (const size_t count : {candidates.size(), size_t{5}}) {
    const std::span<const size_t> list(candidates.data(), count);
    for (const DomKernel kernel : kAllKernels) {
      CandidateTiles tiles(sky, kernel);
      tiles.Load(list);
      NodeSplit split;
      const uint64_t before = DominanceCounter::Count();
      tiles.SplitNode(root, &split);
      EXPECT_EQ(DominanceCounter::Count() - before, 2 * count * root.entries.size());
      // Reloading the tiles must not disturb the split.
      tiles.Load(std::span<const size_t>(candidates.data(), 1));
      const std::vector<size_t> inherited = {1, 3};
      for (size_t i = 0; i < root.entries.size(); ++i) {
        const Mbr& mbr = root.entries[i].mbr;
        std::vector<size_t> full, partial;
        for (size_t j : list) {
          if (RefDominates(sky[j], mbr.lo())) {
            full.push_back(j);
          } else if (RefDominates(sky[j], mbr.hi())) {
            partial.push_back(j);
          }
        }
        std::vector<size_t> full_scratch, got_partial;
        const auto bare = split.Expand(i, list, {}, &full_scratch, &got_partial);
        EXPECT_EQ(std::vector<size_t>(bare.begin(), bare.end()), full)
            << ToString(kernel) << " entry " << i;
        EXPECT_EQ(got_partial, partial) << ToString(kernel) << " entry " << i;
        // Inherited columns come first; with nothing new they are returned
        // as they are, without a copy.
        std::vector<size_t> want = inherited;
        want.insert(want.end(), full.begin(), full.end());
        const auto joined = split.Expand(i, list, inherited, &full_scratch, &got_partial);
        EXPECT_EQ(std::vector<size_t>(joined.begin(), joined.end()), want);
        if (full.empty()) {
          EXPECT_EQ(joined.data(), inherited.data());
        }
      }
    }
  }
}

TEST(SigGenIbSplitTest, PooledDescentChargesTheSerialCount) {
  // The inline and the pooled descent classify each node against the same
  // candidates, so the dominance counts agree at every thread count and
  // kernel.
  const DataSet data = GenerateWorkload(WorkloadKind::kIndependent, 8000, 4, 0x4f).value();
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(16, data.size(), 0x6a);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const SigGenResult serial =
      SigGenIB(data, skyline, family, *tree, DomKernel::kScalar).value();
  for (const DomKernel kernel : kAllKernels) {
    for (const size_t threads : {1u, 2u, 4u}) {
      ThreadPool pool(threads);
      const SigGenResult pooled =
          SigGenIB(data, skyline, family, *tree, kernel, &pool).value();
      EXPECT_EQ(pooled.dominance_checks, serial.dominance_checks)
          << ToString(kernel) << " threads=" << threads;
      EXPECT_EQ(pooled.domination_scores, serial.domination_scores)
          << ToString(kernel) << " threads=" << threads;
    }
  }
}

TEST(SigGenBlocksIsaTest, ForcedPortableBackendIsInEffect) {
  // Under the portable ctest entry the simd flavour must run the portable
  // word-mask sweep; every other entry keeps the probed ISA.
  const char* force = std::getenv("SKYDIVER_FORCE_ISA");
  if (force == nullptr || std::strcmp(force, "portable") != 0) {
    GTEST_SKIP() << "SKYDIVER_FORCE_ISA is not 'portable' in this run";
  }
  EXPECT_EQ(DetectSimdIsa(), SimdIsa::kPortable);
}

}  // namespace
}  // namespace skydiver
