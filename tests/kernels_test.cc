// Tests for the batched dominance kernels: tile-level property tests
// against the scalar reference, the batched counting rule, and end-to-end
// parity — every rewired consumer (skyline algorithms, SigGen-IF, Γ sets,
// streaming, the pooled backends, whole engine plans) must produce
// bit-identical outputs under kScalar, kTiled, and kSimd. The simd tests
// run on every host: without a vector ISA the kernel dispatches to the
// portable word-mask sweep, which must satisfy the same contracts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "core/gamma.h"
#include "datagen/generators.h"
#include "engine/engine.h"
#include "engine/query_context.h"
#include "engine/planner.h"
#include "kernels/dominance_kernel.h"
#include "kernels/skyline_blocks.h"
#include "kernels/tile_view.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "rtree/rtree.h"
#include "stream/streaming.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

constexpr DomKernel kAllKernels[] = {DomKernel::kScalar, DomKernel::kTiled,
                                     DomKernel::kSimd};

// ---------------------------------------------------------------------------
// Tile-level property tests: batched masks == per-pair core dominance.

// Builds a tile of `rows` random points over a tiny value alphabet (heavy
// duplication → plenty of dominated / equal / incomparable pairs).
Tile RandomTile(Rng& rng, Dim dims, size_t rows) {
  Tile tile(dims);
  std::vector<Coord> point(dims);
  for (size_t r = 0; r < rows; ++r) {
    for (Dim d = 0; d < dims; ++d) point[d] = static_cast<Coord>(rng.NextInt(0, 3));
    tile.PushRow(static_cast<RowId>(r), point);
  }
  return tile;
}

void ExpectKernelAgreesWithCore(std::span<const Coord> p, const Tile& tile) {
  const TileView view = tile.view();

  uint64_t want_dominated = 0, want_dominators = 0, want_weak = 0;
  for (size_t r = 0; r < view.rows; ++r) {
    std::vector<Coord> row(view.dims);
    for (size_t d = 0; d < view.dims; ++d) row[d] = view.at(r, d);
    if (Dominates(p, row)) want_dominated |= uint64_t{1} << r;
    if (Dominates(row, p)) want_dominators |= uint64_t{1} << r;
    if (WeaklyDominates(p, row)) want_weak |= uint64_t{1} << r;
  }

  for (const DomKernel kind : kAllKernels) {
    const DominanceKernel kernel(kind);
    EXPECT_EQ(kernel.FilterDominated(p, view), want_dominated);
    EXPECT_EQ(kernel.FilterDominators(p, view), want_dominators);
    EXPECT_EQ(kernel.FilterWeaklyDominated(p, view), want_weak);
    EXPECT_EQ(kernel.AnyDominator(p, view), want_dominators != 0);
    const BlockClassification cls = kernel.ClassifyBlock(p, view);
    EXPECT_EQ(cls.dominated, want_dominated);
    EXPECT_EQ(cls.dominators, want_dominators);
  }
}

TEST(DominanceKernelTest, RandomTilesMatchScalarReference) {
  Rng rng(7);
  for (const Dim dims : {Dim{1}, Dim{2}, Dim{4}, Dim{7}}) {
    for (const size_t rows : {size_t{1}, size_t{5}, size_t{63}, size_t{64}}) {
      for (int iter = 0; iter < 20; ++iter) {
        const Tile tile = RandomTile(rng, dims, rows);
        std::vector<Coord> probe(dims);
        for (Dim d = 0; d < dims; ++d) probe[d] = static_cast<Coord>(rng.NextInt(0, 3));
        ExpectKernelAgreesWithCore(probe, tile);
      }
    }
  }
}

TEST(DominanceKernelTest, AllEqualRowsAreNeitherDominatedNorDominators) {
  const Dim dims = 3;
  Tile tile(dims);
  const std::vector<Coord> point{1.0, 2.0, 3.0};
  for (size_t r = 0; r < 10; ++r) tile.PushRow(static_cast<RowId>(r), point);

  for (const DomKernel kind : kAllKernels) {
    const DominanceKernel kernel(kind);
    const BlockClassification cls = kernel.ClassifyBlock(point, tile.view());
    EXPECT_EQ(cls.dominated, 0u);
    EXPECT_EQ(cls.dominators, 0u);
    // Equal rows ARE weakly dominated.
    EXPECT_EQ(kernel.FilterWeaklyDominated(point, tile.view()),
              tile.view().FullMask());
    EXPECT_FALSE(kernel.AnyDominator(point, tile.view()));
  }
}

TEST(DominanceKernelTest, RaggedAndSingleDimensionTiles) {
  Rng rng(11);
  // d = 1: dominance degenerates to strict less-than.
  for (int iter = 0; iter < 10; ++iter) {
    const Tile tile = RandomTile(rng, 1, 37);  // ragged: 37 < kTileRows
    for (Coord v : {0.0, 1.0, 2.0, 3.0}) {
      const std::vector<Coord> probe{v};
      ExpectKernelAgreesWithCore(probe, tile);
    }
  }
}

TEST(DominanceKernelTest, CountingRuleChargesTileRowsPerCall) {
  Rng rng(13);
  const Tile tile = RandomTile(rng, 4, 29);
  const std::vector<Coord> probe{1.0, 1.0, 1.0, 1.0};

  // Both batched flavours charge exactly tile.rows to BOTH counters per
  // call — early exits are never discounted, so the accounting is
  // flavour-independent by construction.
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    const DominanceKernel batched(kind);
    const uint64_t total_before = DominanceCounter::Count();
    const uint64_t tiled_before = DominanceCounter::TiledCount();
    (void)batched.ClassifyBlock(probe, tile.view());
    EXPECT_EQ(DominanceCounter::Count() - total_before, tile.rows());
    EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before, tile.rows());
  }

  // The scalar kernel never touches the tiled counter.
  const DominanceKernel scalar(DomKernel::kScalar);
  const uint64_t total_before = DominanceCounter::Count();
  const uint64_t tiled_before = DominanceCounter::TiledCount();
  (void)scalar.FilterDominated(probe, tile.view());
  EXPECT_EQ(DominanceCounter::Count() - total_before, tile.rows());
  EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before, 0u);
}

// ---------------------------------------------------------------------------
// PruneCorners: tile-of-probes against tile-of-candidates (the BBS node
// prune). Reference is the per-pair core relation: a corner is pruned iff
// some skyline row strictly dominates it.

TEST(DominanceKernelTest, PruneCornersMatchesPerPairReference) {
  Rng rng(31);
  for (const Dim dims : {Dim{1}, Dim{2}, Dim{4}, Dim{7}}) {
    for (const size_t corner_rows : {size_t{1}, size_t{13}, size_t{64}}) {
      for (const size_t sky_rows : {size_t{1}, size_t{40}, size_t{64}}) {
        for (int iter = 0; iter < 10; ++iter) {
          const Tile corners = RandomTile(rng, dims, corner_rows);
          const Tile skyline = RandomTile(rng, dims, sky_rows);
          uint64_t want = 0;
          std::vector<Coord> corner(dims), row(dims);
          for (size_t c = 0; c < corner_rows; ++c) {
            for (Dim d = 0; d < dims; ++d) corner[d] = corners.view().at(c, d);
            for (size_t s = 0; s < sky_rows; ++s) {
              for (Dim d = 0; d < dims; ++d) row[d] = skyline.view().at(s, d);
              if (Dominates(row, corner)) {
                want |= uint64_t{1} << c;
                break;
              }
            }
          }
          for (const DomKernel kind : kAllKernels) {
            const DominanceKernel kernel(kind);
            ASSERT_EQ(kernel.PruneCorners(corners.view(), skyline.view()), want)
                << ToString(kind) << " dims=" << dims << " corners=" << corner_rows
                << " sky=" << sky_rows;
          }
        }
      }
    }
  }
}

TEST(DominanceKernelTest, PruneCornersBatchedCountingRule) {
  constexpr Dim kDims = 4;
  constexpr size_t kCorners = 23;
  constexpr size_t kSky = 59;

  // Corners trade dim 0 against dim 1, so their ceiling is (2.22, 3.00,
  // 2.5, 2.5). Three skylines probe the batched counting rule:
  //   high       — every row above the ceiling: the screen rejects all of
  //                them, no candidate is ever swept.
  //   trap       — every row under the ceiling but dominating nothing
  //                (needs r >= 21 on dim 0 and r <= 1 on dim 1 at once):
  //                all rows swept, nothing pruned.
  //   saturating — the origin first (dominates every corner in one
  //                sweep), trap rows after it that saturation skips.
  Tile corners(kDims);
  for (size_t r = 0; r < kCorners; ++r) {
    const Coord rc = static_cast<Coord>(r) * 0.01;
    const std::vector<Coord> row = {2.0 + rc, 3.0 - rc, 2.5, 2.5};
    corners.PushRow(static_cast<RowId>(r), row);
  }
  const std::vector<Coord> trap_row = {2.21, 2.99, 2.5, 2.5};
  const std::vector<Coord> origin(kDims, 0.0);
  Tile high(kDims);
  Tile trap(kDims);
  Tile saturating(kDims);
  for (size_t s = 0; s < kSky; ++s) {
    const std::vector<Coord> high_row(kDims, 5.0 + static_cast<Coord>(s) * 0.01);
    high.PushRow(static_cast<RowId>(s), high_row);
    trap.PushRow(static_cast<RowId>(s), trap_row);
    saturating.PushRow(static_cast<RowId>(s), s == 0 ? origin : trap_row);
  }

  // Batched flavours charge skyline.rows for the ceiling screen plus
  // corners.rows per candidate row swept, to BOTH counters.
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    const DominanceKernel batched(kind);
    uint64_t total_before = DominanceCounter::Count();
    uint64_t tiled_before = DominanceCounter::TiledCount();
    EXPECT_EQ(batched.PruneCorners(corners.view(), high.view()), 0u);
    EXPECT_EQ(DominanceCounter::Count() - total_before, kSky);
    EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before, kSky);

    total_before = DominanceCounter::Count();
    tiled_before = DominanceCounter::TiledCount();
    EXPECT_EQ(batched.PruneCorners(corners.view(), trap.view()), 0u);
    EXPECT_EQ(DominanceCounter::Count() - total_before, kSky + kSky * kCorners);
    EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before,
              kSky + kSky * kCorners);

    total_before = DominanceCounter::Count();
    tiled_before = DominanceCounter::TiledCount();
    EXPECT_EQ(batched.PruneCorners(corners.view(), saturating.view()),
              corners.view().FullMask());
    EXPECT_EQ(DominanceCounter::Count() - total_before, kSky + kCorners);
    EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before, kSky + kCorners);
  }

  // The scalar kernel counts per visited (corner, skyline) pair with an
  // early exit on the first dominator, and never touches the tiled
  // counter: the full rectangle when nothing dominates, one pair per
  // corner against the saturating skyline's leading origin.
  const DominanceKernel scalar(DomKernel::kScalar);
  uint64_t total_before = DominanceCounter::Count();
  uint64_t tiled_before = DominanceCounter::TiledCount();
  EXPECT_EQ(scalar.PruneCorners(corners.view(), high.view()), 0u);
  EXPECT_EQ(DominanceCounter::Count() - total_before, kCorners * kSky);

  total_before = DominanceCounter::Count();
  EXPECT_EQ(scalar.PruneCorners(corners.view(), trap.view()), 0u);
  EXPECT_EQ(DominanceCounter::Count() - total_before, kCorners * kSky);

  total_before = DominanceCounter::Count();
  EXPECT_EQ(scalar.PruneCorners(corners.view(), saturating.view()),
            corners.view().FullMask());
  EXPECT_EQ(DominanceCounter::Count() - total_before, kCorners);
  EXPECT_EQ(DominanceCounter::TiledCount() - tiled_before, 0u);
}

// ---------------------------------------------------------------------------
// Randomized differential test: the three flavours must produce identical
// masks bit for bit, across every tile occupancy, a spread of dims, and a
// value palette that forces ties, full-row equality, and extreme
// magnitudes (the simd sweeps compare lanes of padded columns, so the
// ragged cases and the +-max coordinates are the interesting ones).

TEST(DominanceKernelTest, FlavoursProduceIdenticalMasks) {
  constexpr Coord kMax = std::numeric_limits<double>::max();
  constexpr Coord kPalette[] = {-kMax, -2.0, 0.0, 0.5, 1.0, 1.5, 2.0, kMax};
  constexpr size_t kPaletteSize = sizeof(kPalette) / sizeof(kPalette[0]);
  Rng rng(20260806);

  const DominanceKernel scalar(DomKernel::kScalar);
  const DominanceKernel tiled(DomKernel::kTiled);
  const DominanceKernel simd(DomKernel::kSimd);

  for (const Dim dims : {Dim{2}, Dim{4}, Dim{8}, Dim{12}}) {
    std::vector<Coord> probe(dims);
    std::vector<Coord> point(dims);
    for (size_t rows = 1; rows <= kTileRows; ++rows) {
      for (Dim d = 0; d < dims; ++d) {
        probe[d] = kPalette[rng.NextInt(0, kPaletteSize - 1)];
      }
      Tile tile(dims);
      for (size_t r = 0; r < rows; ++r) {
        if (r % 7 == 3) {
          // Exact duplicate of the probe: ties on every dimension.
          tile.PushRow(static_cast<RowId>(r), probe);
          continue;
        }
        for (Dim d = 0; d < dims; ++d) {
          // Mostly probe-adjacent values so single-dimension ties are
          // common, with occasional fresh palette draws.
          point[d] = rng.NextInt(0, 3) == 0
                         ? kPalette[rng.NextInt(0, kPaletteSize - 1)]
                         : probe[d] + static_cast<Coord>(rng.NextInt(0, 2)) - 1.0;
        }
        tile.PushRow(static_cast<RowId>(r), point);
      }

      const TileView view = tile.view();
      const uint64_t want_dominated = scalar.FilterDominated(probe, view);
      const uint64_t want_dominators = scalar.FilterDominators(probe, view);
      const uint64_t want_weak = scalar.FilterWeaklyDominated(probe, view);
      for (const DominanceKernel* kernel : {&tiled, &simd}) {
        ASSERT_EQ(kernel->FilterDominated(probe, view), want_dominated)
            << "dims=" << dims << " rows=" << rows;
        ASSERT_EQ(kernel->FilterDominators(probe, view), want_dominators)
            << "dims=" << dims << " rows=" << rows;
        ASSERT_EQ(kernel->FilterWeaklyDominated(probe, view), want_weak)
            << "dims=" << dims << " rows=" << rows;
        ASSERT_EQ(kernel->AnyDominator(probe, view), want_dominators != 0)
            << "dims=" << dims << " rows=" << rows;
        const BlockClassification cls = kernel->ClassifyBlock(probe, view);
        ASSERT_EQ(cls.dominated, want_dominated)
            << "dims=" << dims << " rows=" << rows;
        ASSERT_EQ(cls.dominators, want_dominators)
            << "dims=" << dims << " rows=" << rows;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Tile containers.

TEST(TileSetTest, AppendCompactAndDropPreserveOrder) {
  TileSet tiles(2);
  const std::vector<Coord> p{1.0, 2.0};
  for (RowId r = 0; r < 100; ++r) tiles.Append(r, p);
  ASSERT_EQ(tiles.size(), 100u);
  ASSERT_EQ(tiles.tiles().size(), 2u);
  EXPECT_EQ(tiles.tiles()[0].rows(), kTileRows);
  EXPECT_EQ(tiles.tiles()[1].rows(), 100u - kTileRows);

  // Keep only even rows of tile 0; ids must survive compaction in order.
  uint64_t keep = 0;
  for (size_t r = 0; r < kTileRows; r += 2) keep |= uint64_t{1} << r;
  tiles.CompactTile(0, keep);
  EXPECT_EQ(tiles.tiles()[0].rows(), kTileRows / 2);
  for (size_t r = 0; r < kTileRows / 2; ++r) {
    EXPECT_EQ(tiles.tiles()[0].id(r), static_cast<RowId>(2 * r));
  }

  tiles.CompactTile(1, 0);  // empty it out
  tiles.DropEmptyTiles();
  ASSERT_EQ(tiles.tiles().size(), 1u);
  EXPECT_EQ(tiles.size(), kTileRows / 2);
}

// ---------------------------------------------------------------------------
// Algorithm parity: every skyline algorithm, scalar vs tiled vs simd.

class KernelParityTest : public ::testing::TestWithParam<WorkloadKind> {};

TEST_P(KernelParityTest, SkylineAlgorithmsMatchScalar) {
  const DataSet data = GenerateWorkload(GetParam(), 3000, 4, 99).value();

  const auto tree = RTree::BulkLoad(data).value();
  const auto bnl = SkylineBNL(data, DomKernel::kScalar).rows;
  const auto sfs = SkylineSFS(data, DomKernel::kScalar).rows;
  const auto dc = SkylineDC(data, 256, DomKernel::kScalar).rows;
  const auto bbs = SkylineBBS(data, tree, DomKernel::kScalar).value().rows;
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    EXPECT_EQ(SkylineBNL(data, kind).rows, bnl);
    EXPECT_EQ(SkylineSFS(data, kind).rows, sfs);
    EXPECT_EQ(SkylineDC(data, 256, kind).rows, dc);
    EXPECT_EQ(SkylineBBS(data, tree, kind).value().rows, bbs);
  }
}

// SigGen-IF's charge recomputed from its blocks: per non-skyline row,
// every corner row, plus the rows of each tile whose corner dominates the
// row (every tile's rows when the blocks have no corner layer).
uint64_t BlockWalkChecks(const DataSet& data, const std::vector<RowId>& skyline) {
  const SkylineBlocks blocks = SkylineBlocks::Build(data, skyline);
  std::vector<bool> is_skyline(data.size(), false);
  for (RowId s : skyline) is_skyline[s] = true;
  auto corner_dominates = [&](const TileView& corners, size_t k,
                              std::span<const Coord> p) {
    bool strict = false;
    for (size_t d = 0; d < corners.dims; ++d) {
      if (corners.at(k, d) > p[d]) return false;
      if (corners.at(k, d) < p[d]) strict = true;
    }
    return strict;
  };
  uint64_t checks = 0;
  for (RowId r = 0; r < data.size(); ++r) {
    if (is_skyline[r]) continue;
    if (blocks.corners().empty()) {
      for (const Tile& tile : blocks.tiles()) checks += tile.rows();
      continue;
    }
    for (const Tile& corners : blocks.corners()) {
      checks += corners.rows();
      for (size_t k = 0; k < corners.rows(); ++k) {
        if (corner_dominates(corners.view(), k, data.row(r))) {
          checks += blocks.tiles()[corners.id(k)].rows();
        }
      }
    }
  }
  return checks;
}

TEST_P(KernelParityTest, SigGenIfMatchesScalarExactly) {
  const DataSet data = GenerateWorkload(GetParam(), 2000, 4, 17).value();
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(32, data.size(), 5);

  const auto scalar = SigGenIF(data, skyline, family, DomKernel::kScalar).value();
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    const auto batched = SigGenIF(data, skyline, family, kind).value();
    EXPECT_EQ(batched.domination_scores, scalar.domination_scores);
    for (size_t j = 0; j < skyline.size(); ++j) {
      for (size_t i = 0; i < 32; ++i) {
        ASSERT_EQ(batched.signatures.at(j, i), scalar.signatures.at(j, i));
      }
    }
    // Every kernel walks the same blocks with no early exits for batching
    // to forgo, so even the dominance counts agree exactly.
    EXPECT_EQ(batched.dominance_checks, scalar.dominance_checks);
  }
  EXPECT_EQ(scalar.dominance_checks, BlockWalkChecks(data, skyline));
  // Corner pruning never costs more than the exhaustive scan here.
  EXPECT_LE(scalar.dominance_checks,
            uint64_t{data.size() - skyline.size()} * skyline.size());
}

TEST_P(KernelParityTest, GammaSetsMatchScalar) {
  const DataSet data = GenerateWorkload(GetParam(), 1500, 4, 23).value();
  const auto skyline = SkylineSFS(data).rows;

  const GammaSets scalar = GammaSets::Compute(data, skyline, DomKernel::kScalar);
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    const GammaSets batched = GammaSets::Compute(data, skyline, kind);
    ASSERT_EQ(batched.size(), scalar.size());
    for (size_t j = 0; j < scalar.size(); ++j) {
      EXPECT_EQ(batched.DominationScore(j), scalar.DominationScore(j));
      EXPECT_EQ(batched.gamma(j), scalar.gamma(j));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, KernelParityTest,
                         ::testing::Values(WorkloadKind::kIndependent,
                                           WorkloadKind::kCorrelated,
                                           WorkloadKind::kAnticorrelated),
                         [](const auto& info) {
                           switch (info.param) {
                             case WorkloadKind::kIndependent: return "IND";
                             case WorkloadKind::kCorrelated: return "CORR";
                             case WorkloadKind::kAnticorrelated: return "ANT";
                             default: return "other";
                           }
                         });

TEST(KernelFallbackTest, TinyInputsFallBackToScalarCounts) {
  // Below one tile every batched request runs the scalar reference, so
  // even the dominance counts match.
  const DataSet data = GenerateIndependent(40, 3, 3);
  const auto scalar = SkylineSFS(data, DomKernel::kScalar);
  for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
    const auto batched = SkylineSFS(data, kind);
    EXPECT_EQ(batched.rows, scalar.rows);
    EXPECT_EQ(batched.dominance_checks, scalar.dominance_checks);
  }
}

TEST(KernelFallbackTest, EffectiveKernelAppliesBothDowngrades) {
  // Small-input downgrade: any batched flavour below one tile of
  // candidates runs the scalar reference.
  EXPECT_EQ(EffectiveKernel(DomKernel::kTiled, kTileRows - 1), DomKernel::kScalar);
  EXPECT_EQ(EffectiveKernel(DomKernel::kSimd, kTileRows - 1), DomKernel::kScalar);
  EXPECT_EQ(EffectiveKernel(DomKernel::kScalar, 1u << 20), DomKernel::kScalar);
  EXPECT_EQ(EffectiveKernel(DomKernel::kTiled, kTileRows), DomKernel::kTiled);

  // Missing-ISA downgrade: kSimd survives only when the runtime probe
  // found a vector unit; otherwise it degrades to kTiled (and then to
  // kScalar if the input is also small — the small-input rule wins).
  const DomKernel simd_large = EffectiveKernel(DomKernel::kSimd, kTileRows);
  EXPECT_EQ(simd_large, SimdAvailable() ? DomKernel::kSimd : DomKernel::kTiled);
}

TEST(KernelParseTest, ParseAndPrint) {
  EXPECT_EQ(ParseDomKernel("scalar").value(), DomKernel::kScalar);
  EXPECT_EQ(ParseDomKernel("tiled").value(), DomKernel::kTiled);
  EXPECT_EQ(ParseDomKernel("simd").value(), DomKernel::kSimd);
  EXPECT_FALSE(ParseDomKernel("avx2").ok());  // ISA names are not flavours
  EXPECT_STREQ(ToString(DomKernel::kScalar), "scalar");
  EXPECT_STREQ(ToString(DomKernel::kTiled), "tiled");
  EXPECT_STREQ(ToString(DomKernel::kSimd), "simd");
}

// ---------------------------------------------------------------------------
// Streaming parity.

TEST(KernelStreamingTest, BatchedStreamsMatchScalarStream) {
  const DataSet data = GenerateWorkload(WorkloadKind::kAnticorrelated, 800, 3, 31).value();
  StreamingSkyDiver scalar(3, 24, 77, 1 << 12, DomKernel::kScalar);
  StreamingSkyDiver tiled(3, 24, 77, 1 << 12, DomKernel::kTiled);
  StreamingSkyDiver simd(3, 24, 77, 1 << 12, DomKernel::kSimd);
  for (RowId r = 0; r < data.size(); ++r) {
    ASSERT_TRUE(scalar.Insert(data.row(r)).ok());
    ASSERT_TRUE(tiled.Insert(data.row(r)).ok());
    ASSERT_TRUE(simd.Insert(data.row(r)).ok());
  }
  const auto rows = scalar.SkylineRows();
  for (const StreamingSkyDiver* batched : {&tiled, &simd}) {
    ASSERT_EQ(batched->SkylineRows(), rows);
    for (RowId r : rows) {
      EXPECT_EQ(batched->Signature(r).value(), scalar.Signature(r).value());
      EXPECT_EQ(batched->DominationScore(r).value(),
                scalar.DominationScore(r).value());
    }
    EXPECT_EQ(batched->stats().demotions, scalar.stats().demotions);
    EXPECT_EQ(batched->stats().signature_updates,
              scalar.stats().signature_updates);
  }
}

// ---------------------------------------------------------------------------
// Pooled dominance-check accounting (the thread_local undercount fix).

TEST(PooledCountingTest, ParallelSigGenIfReportsSerialCounts) {
  const DataSet data = GenerateWorkload(WorkloadKind::kIndependent, 3000, 4, 43).value();
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(16, data.size(), 3);
  ThreadPool pool(4);

  for (const DomKernel kernel : kAllKernels) {
    const auto serial = SigGenIF(data, skyline, family, kernel).value();
    const auto pooled = SigGenIF(data, skyline, family, kernel, &pool).value();
    // The IF pass walks the same blocks however it is sharded.
    EXPECT_GT(pooled.dominance_checks, 0u);
    EXPECT_EQ(pooled.dominance_checks, serial.dominance_checks);
    EXPECT_EQ(pooled.domination_scores, serial.domination_scores);
  }
}

TEST(PooledCountingTest, ParallelSkylineReportsNonZeroCounts) {
  const DataSet data = GenerateWorkload(WorkloadKind::kIndependent, 3000, 4, 47).value();
  ThreadPool pool(4);
  const SkylineResult pooled = SkylineSFS(data, DomKernel::kSimd, &pool);
  EXPECT_EQ(pooled.rows, SkylineSFS(data).rows);
  EXPECT_GT(pooled.dominance_checks, 0u);
}

TEST(PooledCountingTest, HarvestFoldsIntoCallerCounters) {
  const DataSet data = GenerateWorkload(WorkloadKind::kIndependent, 2000, 4, 53).value();
  ThreadPool pool(4);
  const uint64_t before = DominanceCounter::Count();
  (void)SkylineSFS(data, DomKernel::kSimd, &pool);
  // Pool-side work must be visible to the calling thread's counter (this
  // is what stage-level accounting relies on).
  EXPECT_GT(DominanceCounter::Count() - before, 0u);
}

// ---------------------------------------------------------------------------
// Engine-level parity: whole plans, scalar vs tiled, serial and pooled.

TEST(KernelPlanTest, PlanCarriesKernelAndExplainPrintsIt) {
  SkyDiverConfig config;
  EXPECT_EQ(config.kernel, DomKernel::kSimd);  // planner default
  auto plan = Planner::Resolve(config, PlanResources{});
  ASSERT_TRUE(plan.ok());
  if (SimdAvailable()) {
    // The plan keeps simd and the explain line names the dispatched ISA.
    EXPECT_EQ(plan->kernel, DomKernel::kSimd);
    EXPECT_NE(ExplainPlan(*plan, config).find("kernel=simd("), std::string::npos);
  } else {
    // Missing-ISA downgrade happens at plan time, not execution time.
    EXPECT_EQ(plan->kernel, DomKernel::kTiled);
    EXPECT_NE(ExplainPlan(*plan, config).find("kernel=tiled"), std::string::npos);
  }

  config.kernel = DomKernel::kTiled;
  plan = Planner::Resolve(config, PlanResources{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->kernel, DomKernel::kTiled);
  EXPECT_NE(ExplainPlan(*plan, config).find("kernel=tiled"), std::string::npos);

  config.kernel = DomKernel::kScalar;
  plan = Planner::Resolve(config, PlanResources{});
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(ExplainPlan(*plan, config).find("kernel=scalar"), std::string::npos);
}

TEST(KernelPlanTest, EnginePlansMatchAcrossKernelsSerialAndPooled) {
  const DataSet data = GenerateWorkload(WorkloadKind::kAnticorrelated, 2500, 4, 61).value();

  for (const size_t threads : {size_t{0}, size_t{3}}) {
    SkyDiverConfig scalar_config;
    scalar_config.k = 5;
    scalar_config.signature_size = 32;
    scalar_config.threads = threads;
    scalar_config.kernel = DomKernel::kScalar;

    auto run = [&](const SkyDiverConfig& config) {
      const PlanResources resources;
      const Plan plan = Planner::Resolve(config, resources).value();
      QueryContext ctx(config);
      return Engine::Execute(ctx, plan, config, data, resources).value();
    };
    const EngineOutput scalar_out = run(scalar_config);

    for (const DomKernel kind : {DomKernel::kTiled, DomKernel::kSimd}) {
      SkyDiverConfig batched_config = scalar_config;
      batched_config.kernel = kind;
      const EngineOutput batched_out = run(batched_config);

      EXPECT_EQ(batched_out.report.skyline, scalar_out.report.skyline);
      EXPECT_EQ(batched_out.report.selected_rows, scalar_out.report.selected_rows);
      EXPECT_EQ(batched_out.domination_scores, scalar_out.domination_scores);
      ASSERT_EQ(batched_out.signatures.columns(), scalar_out.signatures.columns());
      for (size_t j = 0; j < scalar_out.signatures.columns(); ++j) {
        for (size_t i = 0; i < 32; ++i) {
          ASSERT_EQ(batched_out.signatures.at(j, i), scalar_out.signatures.at(j, i));
        }
      }
    }
  }
}

TEST(KernelPlanTest, PooledStagesReportSerialMatchingDominanceChecks) {
  // Anticorrelated so the skyline comfortably exceeds one 64-row tile.
  const DataSet data =
      GenerateWorkload(WorkloadKind::kAnticorrelated, 2500, 4, 71).value();

  auto run = [&](size_t threads) {
    SkyDiverConfig config;
    config.k = 5;
    config.signature_size = 16;
    config.threads = threads;
    const PlanResources resources;
    const Plan plan = Planner::Resolve(config, resources).value();
    QueryContext ctx(config);
    return Engine::Execute(ctx, plan, config, data, resources).value();
  };
  const EngineOutput serial = run(0);
  const EngineOutput pooled = run(2);

  // Before the harvest fix, pooled fingerprint stages reported 0 checks.
  EXPECT_GT(pooled.report.skyline_phase.dominance_checks, 0u);
  EXPECT_GT(pooled.report.fingerprint_phase.dominance_checks, 0u);
  // The IF fingerprint pass walks the same blocks: pooled == serial exactly.
  EXPECT_EQ(pooled.report.fingerprint_phase.dominance_checks,
            serial.report.fingerprint_phase.dominance_checks);
  // Default plans are batched (simd, or tiled without a vector ISA); with
  // m >= one tile every fingerprint check lands on both counters.
  EXPECT_EQ(pooled.report.fingerprint_phase.dominance_checks_tiled,
            pooled.report.fingerprint_phase.dominance_checks);
}

}  // namespace
}  // namespace skydiver
