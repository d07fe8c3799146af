// Query-shaped skylines: SkyQuery normalization, DataView semantics, and
// the correctness story of the view-based backends.
//
//   * Identity bit-parity — the identity query on every backend (BNL, SFS,
//     D&C, sharded, BBS) and every kernel flavour hashes to goldens
//     captured from the pre-refactor code paths (n=2000, seed 42), so the
//     refactor provably changed nothing for the paper's pipeline.
//   * Randomized differential — constrained / projected / sharded queries
//     across IND/CORR/ANT and d = 2..12 match an independent brute-force
//     oracle that filters and projects a copy of the data.
//   * Shape plumbing — NormalizeQuery / QueryKey / DataView / the
//     view-scoped validators / the engine's plan.query surface.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "core/data_view.h"
#include "core/dataset.h"
#include "core/sky_query.h"
#include "datagen/generators.h"
#include "parallel/thread_pool.h"
#include "rtree/rtree.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr DomKernel kFlavours[] = {DomKernel::kScalar, DomKernel::kTiled,
                                   DomKernel::kSimd};

// ---------------------------------------------------------------------------
// Brute-force oracle, written independently of the library's dominance
// helpers: filter to the in-box rows, then O(n^2) strict dominance over the
// projected dimension list.
std::vector<RowId> OracleSkyline(const DataSet& data, const SkyQuery& q) {
  std::vector<Dim> dims(q.project.begin(), q.project.end());
  if (dims.empty()) {
    dims.resize(data.dims());
    std::iota(dims.begin(), dims.end(), Dim{0});
  }
  std::vector<RowId> inbox;
  for (RowId r = 0; r < data.size(); ++r) {
    bool in = true;
    for (size_t d = 0; d < q.lo.size(); ++d) {
      if (data.at(r, static_cast<Dim>(d)) < q.lo[d] ||
          data.at(r, static_cast<Dim>(d)) > q.hi[d]) {
        in = false;
        break;
      }
    }
    if (in) inbox.push_back(r);
  }
  std::vector<RowId> sky;
  for (RowId r : inbox) {
    bool dominated = false;
    for (RowId s : inbox) {
      if (s == r) continue;
      bool all_le = true, one_lt = false;
      for (Dim d : dims) {
        if (data.at(s, d) > data.at(r, d)) {
          all_le = false;
          break;
        }
        if (data.at(s, d) < data.at(r, d)) one_lt = true;
      }
      if (all_le && one_lt) {
        dominated = true;
        break;
      }
    }
    if (!dominated) sky.push_back(r);
  }
  return sky;
}

// FNV-1a over the row ids, 4 little-endian bytes each — the same digest the
// goldens below were captured with on the pre-refactor tree.
uint64_t FnvRows(const std::vector<RowId>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (RowId r : rows) {
    for (int b = 0; b < 4; ++b) {
      h ^= (r >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  return h;
}

DataView MakeView(const DataSet& data, const SkyQuery& q) {
  auto normalized = NormalizeQuery(q, data.dims());
  EXPECT_TRUE(normalized.ok()) << normalized.status().ToString();
  return DataView(data, *normalized);
}

// ---------------------------------------------------------------------------
// SkyQuery shape algebra.

TEST(SkyQueryTest, ValidateQueryShapeRejectsMalformedQueries) {
  SkyQuery mismatched;
  mismatched.lo = {0.0, 0.0};
  mismatched.hi = {1.0};
  EXPECT_FALSE(ValidateQueryShape(mismatched).ok());

  SkyQuery inverted;
  inverted.lo = {1.0};
  inverted.hi = {0.0};
  EXPECT_FALSE(ValidateQueryShape(inverted).ok());

  SkyQuery nan_box;
  nan_box.lo = {std::nan("")};
  nan_box.hi = {1.0};
  EXPECT_FALSE(ValidateQueryShape(nan_box).ok());

  SkyQuery dup_proj;
  dup_proj.project = {2, 2};
  EXPECT_FALSE(ValidateQueryShape(dup_proj).ok());

  SkyQuery too_many_shards;
  too_many_shards.shards = kMaxQueryShards + 1;
  EXPECT_FALSE(ValidateQueryShape(too_many_shards).ok());

  SkyQuery fine;
  fine.lo = {-kInf, 0.25};
  fine.hi = {0.75, kInf};
  fine.project = {1, 0};
  fine.shards = 8;
  EXPECT_TRUE(ValidateQueryShape(fine).ok());
}

TEST(SkyQueryTest, CanonicalShapeNormalizesWithoutData) {
  SkyQuery q;
  q.lo = {-kInf, -kInf};
  q.hi = {kInf, kInf};
  q.project = {3, 1, 3};
  q.shards = 0;
  const SkyQuery c = CanonicalShape(q);
  EXPECT_FALSE(c.constrained());  // everywhere-unbounded box is dropped
  EXPECT_EQ(c.project, (std::vector<Dim>{1, 3}));
  EXPECT_EQ(c.shards, 1u);
  EXPECT_TRUE(CanonicalShape(SkyQuery{}).identity());
}

TEST(SkyQueryTest, NormalizeQueryChecksArityAndCollapsesFullSpace) {
  SkyQuery wrong_arity;
  wrong_arity.lo = {0.0};
  wrong_arity.hi = {1.0};
  EXPECT_FALSE(NormalizeQuery(wrong_arity, 3).ok());

  SkyQuery out_of_range;
  out_of_range.project = {5};
  EXPECT_FALSE(NormalizeQuery(out_of_range, 3).ok());

  SkyQuery full_space;
  full_space.project = {2, 0, 1};
  const auto normalized = NormalizeQuery(full_space, 3);
  ASSERT_TRUE(normalized.ok());
  EXPECT_TRUE(normalized->identity());  // full-space list == identity mask
}

TEST(SkyQueryTest, QueryKeyIsStableAndInjectiveOnShape) {
  EXPECT_EQ(QueryKey(SkyQuery{}), "id");

  SkyQuery a, b;
  a.lo = {0.0};
  a.hi = {0.5};
  b.lo = {0.0};
  b.hi = {0.5000000001};
  EXPECT_NE(QueryKey(a), QueryKey(b));
  EXPECT_EQ(QueryKey(a), QueryKey(a));

  SkyQuery sharded;
  sharded.shards = 4;
  EXPECT_NE(QueryKey(sharded), "id");
}

// ---------------------------------------------------------------------------
// DataView semantics.

TEST(DataViewTest, IdentityViewIsTheWholeDataset) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kIndependent, 50, 3, 7).value();
  const DataView view(data);
  EXPECT_TRUE(view.identity());
  EXPECT_TRUE(view.full_space());
  EXPECT_EQ(view.size(), data.size());
  EXPECT_EQ(view.dims(), data.dims());
  std::vector<Coord> scratch;
  // Full space: ProjectedRow is the raw row span (zero copy).
  EXPECT_EQ(view.ProjectedRow(3, scratch).data(), data.row(3).data());
}

TEST(DataViewTest, ConstrainedProjectedViewFiltersAndGathers) {
  DataSet data(3);
  data.Append({0.1, 0.9, 0.5});
  data.Append({0.7, 0.2, 0.4});
  data.Append({0.3, 0.3, 0.9});
  SkyQuery q;
  q.lo = {0.0, 0.0, 0.0};
  q.hi = {0.5, 1.0, 1.0};
  q.project = {0, 2};
  const DataView view = MakeView(data, q);
  EXPECT_EQ(view.rows(), (std::vector<RowId>{0, 2}));  // row 1 fails d0 <= 0.5
  EXPECT_EQ(view.dims(), 2u);
  EXPECT_TRUE(view.InBox(data.row(0)));
  EXPECT_FALSE(view.InBox(data.row(1)));
  std::vector<Coord> scratch;
  const auto p = view.ProjectedRow(2, scratch);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 0.3);
  EXPECT_EQ(p[1], 0.9);
  EXPECT_EQ(view.at(2, 1), 0.9);  // view dim 1 == data dim 2
}

// ---------------------------------------------------------------------------
// Identity bit-parity: goldens captured from the pre-refactor code paths.

struct Golden {
  WorkloadKind kind;
  Dim dims;
  size_t size;
  uint64_t hash;
};

constexpr Golden kGoldens[] = {
    {WorkloadKind::kIndependent, 2, 5, 0xfbcf1485aea78f25ull},
    {WorkloadKind::kIndependent, 4, 102, 0x6fcdcc3ef27155eeull},
    {WorkloadKind::kIndependent, 8, 923, 0x877715367b75fcd9ull},
    {WorkloadKind::kCorrelated, 2, 2, 0x65e7cb0b1618da29ull},
    {WorkloadKind::kCorrelated, 4, 3, 0x6d4dd942a256aaebull},
    {WorkloadKind::kCorrelated, 8, 11, 0x07674cc7b35af9e9ull},
    {WorkloadKind::kAnticorrelated, 2, 17, 0x3070258d589168c2ull},
    {WorkloadKind::kAnticorrelated, 4, 336, 0xfeee9961a8fc8930ull},
    {WorkloadKind::kAnticorrelated, 8, 1420, 0x02941f0a0a2b3a62ull},
};

TEST(QueryGoldenTest, IdentityQueryIsBitIdenticalOnEveryBackendAndKernel) {
  for (const Golden& g : kGoldens) {
    const DataSet data = GenerateWorkload(g.kind, 2000, g.dims, 42).value();
    const DataView view(data);
    const auto tree = RTree::BulkLoad(data).value();
    for (const DomKernel kernel : kFlavours) {
      const std::vector<RowId> sfs = SkylineSFS(view, kernel).rows;
      ASSERT_EQ(sfs.size(), g.size)
          << static_cast<int>(g.kind) << "/" << g.dims;
      ASSERT_EQ(FnvRows(sfs), g.hash)
          << static_cast<int>(g.kind) << "/" << g.dims;
      EXPECT_EQ(SkylineBNL(view, kernel).rows, sfs);
      EXPECT_EQ(SkylineDC(view, 256, kernel).rows, sfs);
      EXPECT_EQ(SkylineSharded(view, 4, kernel).rows, sfs);
      const auto bbs = SkylineBBS(view, tree, kernel);
      ASSERT_TRUE(bbs.ok());
      EXPECT_EQ(bbs->rows, sfs);
      // The DataSet overloads are the identity view by construction.
      EXPECT_EQ(SkylineSFS(data, kernel).rows, sfs);
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized differential: shaped queries vs the brute-force oracle.

SkyQuery RandomQuery(Rng& rng, const DataSet& data) {
  SkyQuery q;
  const Dim d = data.dims();
  if (rng.NextDouble() < 0.7) {
    q.lo.assign(d, -kInf);
    q.hi.assign(d, kInf);
    // Constrain a random subset of dimensions around random quantiles.
    const Dim boxed = static_cast<Dim>(rng.NextInt(1, d));
    for (Dim i = 0; i < boxed; ++i) {
      const Dim dd = static_cast<Dim>(rng.NextBounded(d));
      const double a = rng.NextDouble(-0.2, 1.0);
      const double b = rng.NextDouble(-0.2, 1.2);
      if (rng.NextDouble() < 0.25) {
        q.lo[dd] = std::min(a, b);  // one-sided from below
        q.hi[dd] = kInf;
      } else {
        q.lo[dd] = std::min(a, b);
        q.hi[dd] = std::max(a, b);
      }
    }
  }
  if (rng.NextDouble() < 0.7 && d > 1) {
    const Dim width = static_cast<Dim>(rng.NextInt(1, d - 1));
    std::vector<Dim> all(d);
    std::iota(all.begin(), all.end(), Dim{0});
    for (Dim i = 0; i < width; ++i) {
      std::swap(all[i], all[i + rng.NextBounded(d - i)]);
    }
    q.project.assign(all.begin(), all.begin() + width);
  }
  q.shards = static_cast<size_t>(rng.NextInt(1, 5));
  return q;
}

TEST(QueryDifferentialTest, ShapedQueriesMatchBruteForceOracle) {
  constexpr WorkloadKind kKinds[] = {WorkloadKind::kIndependent,
                                     WorkloadKind::kCorrelated,
                                     WorkloadKind::kAnticorrelated};
  Rng rng(20260809);
  for (const WorkloadKind kind : kKinds) {
    for (const Dim d : {Dim{2}, Dim{3}, Dim{5}, Dim{8}, Dim{12}}) {
      const DataSet data = GenerateWorkload(kind, 400, d, 100 + d).value();
      const auto tree = RTree::BulkLoad(data).value();
      for (int trial = 0; trial < 6; ++trial) {
        const SkyQuery q = RandomQuery(rng, data);
        ASSERT_TRUE(ValidateQueryShape(q).ok());
        const std::vector<RowId> expected = OracleSkyline(data, q);
        const DataView view = MakeView(data, q);
        for (const DomKernel kernel : kFlavours) {
          EXPECT_EQ(SkylineSFS(view, kernel).rows, expected);
          EXPECT_EQ(SkylineBNL(view, kernel).rows, expected);
          EXPECT_EQ(SkylineDC(view, 64, kernel).rows, expected);
          EXPECT_EQ(SkylineSharded(view, q.shards, kernel).rows, expected);
          const auto bbs = SkylineBBS(view, tree, kernel);
          ASSERT_TRUE(bbs.ok());
          EXPECT_EQ(bbs->rows, expected);
        }
        EXPECT_TRUE(IsSkyline(view, expected));
      }
    }
  }
}

TEST(QueryDifferentialTest, ShardedMatchesUnshardedSerialAndPooled) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kAnticorrelated, 3000, 5, 99).value();
  const DataView view(data);
  const std::vector<RowId> reference = SkylineSFS(view).rows;
  ThreadPool pool(4);
  for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{16}}) {
    EXPECT_EQ(SkylineSharded(view, shards).rows, reference);
    EXPECT_EQ(SkylineSharded(view, shards, DomKernel::kSimd, &pool).rows, reference);
  }
  EXPECT_EQ(SkylineSFS(view, DomKernel::kSimd, &pool).rows, reference);
  // More shards than rows degenerates gracefully.
  DataSet tiny(2);
  tiny.Append({0.5, 0.5});
  tiny.Append({0.2, 0.9});
  const DataView tiny_view(tiny);
  EXPECT_EQ(SkylineSharded(tiny_view, 64).rows, SkylineSFS(tiny_view).rows);
}

// ---------------------------------------------------------------------------
// View-scoped validators.

TEST(QueryValidationTest, ViewScopedValidatorAcceptsEmptyOnlyWhenConstrained) {
  DataSet data(2);
  data.Append({0.1, 0.2});
  data.Append({0.9, 0.8});
  const DataView identity(data);
  EXPECT_FALSE(ValidateSkylineRows(std::vector<RowId>{}, identity).ok());

  SkyQuery excludes;
  excludes.lo = {2.0, 2.0};
  excludes.hi = {3.0, 3.0};
  const DataView empty_view = MakeView(data, excludes);
  EXPECT_TRUE(empty_view.empty());
  EXPECT_TRUE(ValidateSkylineRows(std::vector<RowId>{}, empty_view).ok());

  SkyQuery half;
  half.lo = {0.0, 0.0};
  half.hi = {0.5, 0.5};
  const DataView half_view = MakeView(data, half);
  // Row 1 is outside the box: structurally invalid for this view.
  EXPECT_FALSE(ValidateSkylineRows(std::vector<RowId>{1}, half_view).ok());
  EXPECT_TRUE(ValidateSkylineRows(std::vector<RowId>{0}, half_view).ok());
}

TEST(QueryValidationTest, MaskAwareIsSkylineSeesSubspaceDominance) {
  DataSet data(3);
  data.Append({0.1, 0.9, 0.5});  // dominates row 1 in subspace {0}
  data.Append({0.2, 0.1, 0.1});
  SkyQuery q;
  q.project = {0};
  const DataView view = MakeView(data, q);
  EXPECT_TRUE(IsSkyline(view, {0}));
  EXPECT_FALSE(IsSkyline(view, {0, 1}));
  // Full-space both rows are incomparable.
  EXPECT_TRUE(IsSkyline(data, {0, 1}));
}

// ---------------------------------------------------------------------------
// Engine plumbing: config.query flows to plan.query and shapes the skyline.

TEST(QueryEngineTest, ShapedQueryRunsThroughTheFullPipeline) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kIndependent, 1500, 4, 11).value();
  SkyDiverConfig config;
  config.k = 2;
  config.query.lo = {-kInf, -kInf, -kInf, -kInf};
  config.query.hi = {kInf, 0.8, kInf, kInf};
  config.query.project = {1, 3};
  config.query.shards = 4;
  const auto report = SkyDiver::Run(data, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->plan.skyline, SkylineBackend::kSharded);
  EXPECT_EQ(report->plan.query.shards, 4u);
  SkyQuery oracle_q = report->plan.query;
  EXPECT_EQ(report->skyline, OracleSkyline(data, oracle_q));
  EXPECT_EQ(report->selected_rows.size(), 2u);
}

TEST(QueryEngineTest, IdentityQueryReportsIdentityPlan) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kCorrelated, 500, 3, 21).value();
  SkyDiverConfig config;
  config.k = 1;
  const auto report = SkyDiver::Run(data, config);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->plan.query.identity());
}

TEST(QueryEngineTest, BoxExcludingEveryPointIsAnError) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kIndependent, 200, 2, 5).value();
  SkyDiverConfig config;
  config.k = 3;
  config.query.lo = {5.0, 5.0};
  config.query.hi = {6.0, 6.0};
  const auto report = SkyDiver::Run(data, config);
  ASSERT_FALSE(report.ok());
  EXPECT_NE(report.status().ToString().find("constraint box"), std::string::npos);
}

TEST(QueryEngineTest, PlannerRejectsMalformedShapes) {
  const DataSet data =
      GenerateWorkload(WorkloadKind::kIndependent, 100, 2, 5).value();
  SkyDiverConfig config;
  config.k = 3;
  config.query.lo = {1.0, 1.0};
  config.query.hi = {0.0, 0.0};  // inverted box
  EXPECT_FALSE(SkyDiver::Run(data, config).ok());

  SkyDiverConfig arity;
  arity.k = 3;
  arity.query.lo = {0.0};
  arity.query.hi = {1.0};  // wrong arity for d=2: caught at NormalizeQuery
  EXPECT_FALSE(SkyDiver::Run(data, arity).ok());
}

}  // namespace
}  // namespace skydiver
