// Unit tests for src/rtree: MBR geometry & dominance, buffer pool LRU
// semantics, R*-tree construction (bulk + dynamic), queries, invariants.

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <vector>

#include "common/rng.h"
#include "core/dominance.h"
#include "datagen/generators.h"
#include "rtree/buffer_pool.h"
#include "rtree/mbr.h"
#include "rtree/rtree.h"

namespace skydiver {
namespace {

// --------------------------------------------------------------------------
// Mbr
// --------------------------------------------------------------------------

TEST(MbrTest, ExpandAndMetrics) {
  Mbr m(2);
  EXPECT_TRUE(m.IsEmpty());
  const std::vector<Coord> a{1.0, 2.0}, b{3.0, 1.0};
  m.Expand(a);
  EXPECT_FALSE(m.IsEmpty());
  m.Expand(b);
  EXPECT_DOUBLE_EQ(m.lo(0), 1.0);
  EXPECT_DOUBLE_EQ(m.lo(1), 1.0);
  EXPECT_DOUBLE_EQ(m.hi(0), 3.0);
  EXPECT_DOUBLE_EQ(m.hi(1), 2.0);
  EXPECT_DOUBLE_EQ(m.Area(), 2.0);
  EXPECT_DOUBLE_EQ(m.Margin(), 3.0);
  EXPECT_DOUBLE_EQ(m.MinDistL1(), 2.0);
}

TEST(MbrTest, OverlapContainIntersect) {
  Mbr a = Mbr::OfPoint(std::vector<Coord>{0.0, 0.0});
  a.Expand(std::vector<Coord>{2.0, 2.0});
  Mbr b = Mbr::OfPoint(std::vector<Coord>{1.0, 1.0});
  b.Expand(std::vector<Coord>{3.0, 3.0});
  Mbr c = Mbr::OfPoint(std::vector<Coord>{5.0, 5.0});
  c.Expand(std::vector<Coord>{6.0, 6.0});
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  EXPECT_DOUBLE_EQ(a.OverlapArea(b), 1.0);
  EXPECT_DOUBLE_EQ(a.OverlapArea(c), 0.0);
  EXPECT_FALSE(a.Contains(b));
  Mbr inner = Mbr::OfPoint(std::vector<Coord>{0.5, 0.5});
  EXPECT_TRUE(a.Contains(inner));
  EXPECT_TRUE(a.ContainsPoint(std::vector<Coord>{2.0, 0.0}));  // closed box
  EXPECT_FALSE(a.ContainsPoint(std::vector<Coord>{2.1, 0.0}));
  EXPECT_DOUBLE_EQ(a.Enlargement(c), 36.0 - 4.0);
}

TEST(MbrTest, DominanceTrichotomy) {
  // Box [2,3] x [2,3].
  Mbr box = Mbr::OfPoint(std::vector<Coord>{2.0, 2.0});
  box.Expand(std::vector<Coord>{3.0, 3.0});
  const std::vector<Coord> full{1.0, 1.0};     // dominates lower-left
  const std::vector<Coord> partial{1.0, 2.5};  // dominates upper-right only
  const std::vector<Coord> none{4.0, 4.0};     // dominates nothing
  EXPECT_TRUE(box.FullyDominatedBy(full));
  EXPECT_TRUE(box.UpperCornerDominatedBy(full));
  EXPECT_FALSE(box.FullyDominatedBy(partial));
  EXPECT_TRUE(box.UpperCornerDominatedBy(partial));
  EXPECT_FALSE(box.FullyDominatedBy(none));
  EXPECT_FALSE(box.UpperCornerDominatedBy(none));
}

TEST(MbrTest, FullDominanceImpliesEveryPointDominated) {
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    Mbr box(3);
    std::vector<Coord> p1(3), p2(3), s(3);
    for (int i = 0; i < 3; ++i) {
      p1[i] = rng.NextDouble();
      p2[i] = rng.NextDouble();
      s[i] = rng.NextDouble() - 0.5;
    }
    box.Expand(p1);
    box.Expand(p2);
    if (box.FullyDominatedBy(s)) {
      EXPECT_TRUE(Dominates(s, p1));
      EXPECT_TRUE(Dominates(s, p2));
    }
    if (!box.UpperCornerDominatedBy(s)) {
      EXPECT_FALSE(Dominates(s, p1));
      EXPECT_FALSE(Dominates(s, p2));
    }
  }
}

// --------------------------------------------------------------------------
// BufferPool
// --------------------------------------------------------------------------

TEST(BufferPoolTest, HitsAndFaults) {
  BufferPool pool(2);
  EXPECT_FALSE(pool.Access(1));  // miss
  EXPECT_FALSE(pool.Access(2));  // miss
  EXPECT_TRUE(pool.Access(1));   // hit
  EXPECT_EQ(pool.stats().page_reads, 3u);
  EXPECT_EQ(pool.stats().page_faults, 2u);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(2);
  pool.Access(1);
  pool.Access(2);
  pool.Access(1);        // 1 is now most recent
  pool.Access(3);        // evicts 2
  EXPECT_TRUE(pool.Access(1));
  EXPECT_FALSE(pool.Access(2));  // was evicted
}

TEST(BufferPoolTest, CapacityShrinkEvicts) {
  BufferPool pool(4);
  for (PageId p = 0; p < 4; ++p) pool.Access(p);
  pool.SetCapacity(1);
  EXPECT_EQ(pool.cached_pages(), 1u);
  EXPECT_TRUE(pool.Access(3));  // most recent page survives
}

TEST(BufferPoolTest, ZeroCapacityClampsToOne) {
  BufferPool pool(0);
  EXPECT_EQ(pool.capacity(), 1u);
}

TEST(BufferPoolTest, ClearKeepsStats) {
  BufferPool pool(2);
  pool.Access(7);
  pool.Clear();
  EXPECT_EQ(pool.cached_pages(), 0u);
  EXPECT_EQ(pool.stats().page_faults, 1u);
  EXPECT_FALSE(pool.Access(7));  // faults again after clear
}

// --------------------------------------------------------------------------
// RTree
// --------------------------------------------------------------------------

class RTreeLoadTest : public testing::TestWithParam<bool> {
 protected:
  // Builds via bulk load (param=false) or dynamic insertion (param=true).
  Result<RTree> Build(const DataSet& data, RTreeConfig config = {}) {
    return GetParam() ? RTree::InsertLoad(data, config) : RTree::BulkLoad(data, config);
  }
};

TEST_P(RTreeLoadTest, InvariantsHold) {
  for (Dim d : {2u, 4u, 6u}) {
    const DataSet data = GenerateIndependent(3000, d, 17);
    auto tree = Build(data);
    ASSERT_TRUE(tree.ok());
    EXPECT_EQ(tree->size(), 3000u);
    EXPECT_TRUE(tree->CheckInvariants().ok()) << tree->CheckInvariants().ToString();
    EXPECT_GE(tree->height(), 2u);
  }
}

TEST_P(RTreeLoadTest, RangeCountMatchesLinearScan) {
  const DataSet data = GenerateClustered(4000, 3, 23);
  auto tree = Build(data);
  ASSERT_TRUE(tree.ok());
  Rng rng(99);
  for (int q = 0; q < 50; ++q) {
    std::vector<Coord> lo(3), hi(3);
    for (int i = 0; i < 3; ++i) {
      const double a = rng.NextDouble(), b = rng.NextDouble();
      lo[static_cast<size_t>(i)] = std::min(a, b);
      hi[static_cast<size_t>(i)] = std::max(a, b);
    }
    uint64_t expected = 0;
    for (RowId r = 0; r < data.size(); ++r) {
      bool inside = true;
      for (Dim i = 0; i < 3; ++i) {
        if (data.at(r, i) < lo[i] || data.at(r, i) > hi[i]) {
          inside = false;
          break;
        }
      }
      expected += inside;
    }
    EXPECT_EQ(tree->RangeCount(lo, hi), expected) << "query " << q;
  }
}

TEST_P(RTreeLoadTest, RangeSearchReturnsExactRows) {
  const DataSet data = GenerateIndependent(2000, 2, 31);
  auto tree = Build(data);
  ASSERT_TRUE(tree.ok());
  const std::vector<Coord> lo{0.2, 0.2}, hi{0.5, 0.6};
  std::set<RowId> expected;
  for (RowId r = 0; r < data.size(); ++r) {
    if (data.at(r, 0) >= 0.2 && data.at(r, 0) <= 0.5 && data.at(r, 1) >= 0.2 &&
        data.at(r, 1) <= 0.6) {
      expected.insert(r);
    }
  }
  const auto rows = tree->RangeSearch(lo, hi);
  EXPECT_EQ(std::set<RowId>(rows.begin(), rows.end()), expected);
  EXPECT_EQ(tree->RangeCount(lo, hi), expected.size());
}

TEST_P(RTreeLoadTest, DominatedCountMatchesDefinition) {
  const DataSet data = GenerateIndependent(3000, 3, 37);
  auto tree = Build(data);
  ASSERT_TRUE(tree.ok());
  for (RowId probe : {0u, 10u, 500u, 2999u}) {
    const auto p = data.row(probe);
    uint64_t expected = 0;
    for (RowId r = 0; r < data.size(); ++r) {
      expected += (r != probe) && Dominates(p, data.row(r));
    }
    EXPECT_EQ(tree->DominatedCount(p), expected) << "probe " << probe;
  }
}

TEST_P(RTreeLoadTest, CommonDominatedCountMatchesDefinition) {
  const DataSet data = GenerateIndependent(2000, 3, 41);
  auto tree = Build(data);
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const auto a = static_cast<RowId>(rng.NextBounded(data.size()));
    const auto b = static_cast<RowId>(rng.NextBounded(data.size()));
    const auto p = data.row(a);
    const auto q = data.row(b);
    uint64_t expected = 0;
    for (RowId r = 0; r < data.size(); ++r) {
      expected += Dominates(p, data.row(r)) && Dominates(q, data.row(r));
    }
    EXPECT_EQ(tree->CommonDominatedCount(p, q), expected)
        << "pair (" << a << ", " << b << ")";
  }
}

TEST_P(RTreeLoadTest, DuplicatePointsAreCountedCorrectly) {
  DataSet data(2);
  data.Append({0.5, 0.5});
  data.Append({0.5, 0.5});  // duplicate
  data.Append({0.7, 0.7});
  data.Append({0.3, 0.8});
  auto tree = Build(data);
  ASSERT_TRUE(tree.ok());
  // The duplicate at (0.5,0.5) dominates only (0.7,0.7), not its own copy.
  EXPECT_EQ(tree->DominatedCount(data.row(0)), 1u);
  EXPECT_EQ(tree->CommonDominatedCount(data.row(0), data.row(1)), 1u);
  EXPECT_EQ(tree->CommonDominatedCount(data.row(0), data.row(3)), 0u);
}

INSTANTIATE_TEST_SUITE_P(BulkAndDynamic, RTreeLoadTest, testing::Values(false, true),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "DynamicInsert" : "BulkLoad";
                         });

TEST(RTreeTest, EmptyDatasetRejected) {
  DataSet data(2);
  EXPECT_TRUE(RTree::BulkLoad(data).status().IsInvalidArgument());
  EXPECT_TRUE(RTree::InsertLoad(data).status().IsInvalidArgument());
}

TEST(RTreeTest, CapacitiesFollowPageSize) {
  RTreeConfig config;
  config.page_size = 4096;
  RTree tree(4, config);
  // Leaf entry: 4*8+4 = 36 bytes; internal: 8*8+4+8 = 76 bytes; 16-byte header.
  EXPECT_EQ(tree.LeafCapacity(), (4096u - 16u) / 36u);
  EXPECT_EQ(tree.InternalCapacity(), (4096u - 16u) / 76u);
}

TEST(RTreeDeathTest, ConstructorRejectsAnInvalidConfig) {
  // The public constructor checks its config, so FinalizeCache's cast of
  // ceil(cache_fraction * pages) to size_t never sees these fractions.
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double fraction : {kNaN, -1.0, 0.0, 1e30}) {
    RTreeConfig config;
    config.cache_fraction = fraction;
    EXPECT_DEATH(RTree(4, config), "cache fraction") << fraction;
  }
  RTreeConfig small_pages;
  small_pages.page_size = 16;
  EXPECT_DEATH(RTree(4, small_pages), "page size");
  EXPECT_DEATH(RTree(0, RTreeConfig{}), "dimensions");
}

TEST(RTreeTest, SmallerPagesMakeDeeperTrees) {
  const DataSet data = GenerateIndependent(5000, 2, 53);
  RTreeConfig small;
  small.page_size = 256;
  auto t_small = RTree::BulkLoad(data, small);
  auto t_big = RTree::BulkLoad(data);
  ASSERT_TRUE(t_small.ok());
  ASSERT_TRUE(t_big.ok());
  EXPECT_GT(t_small->height(), t_big->height());
  EXPECT_GT(t_small->PageCount(), t_big->PageCount());
  EXPECT_TRUE(t_small->CheckInvariants().ok());
}

TEST(RTreeTest, BufferPoolSizedToCacheFraction) {
  const DataSet data = GenerateIndependent(20000, 2, 61);
  RTreeConfig config;
  config.cache_fraction = 0.2;
  auto tree = RTree::BulkLoad(data, config);
  ASSERT_TRUE(tree.ok());
  const auto expected = static_cast<size_t>(
      std::ceil(0.2 * static_cast<double>(tree->PageCount())));
  EXPECT_EQ(tree->pool().capacity(), std::max<size_t>(1, expected));
}

TEST(RTreeTest, RepeatedQueriesHitCache) {
  const DataSet data = GenerateIndependent(20000, 2, 67);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const std::vector<Coord> lo{0.4, 0.4}, hi{0.42, 0.42};
  tree->ResetIoStats();
  (void)tree->RangeCount(lo, hi);
  const uint64_t first_faults = tree->io_stats().page_faults;
  (void)tree->RangeCount(lo, hi);
  const uint64_t second_faults = tree->io_stats().page_faults - first_faults;
  EXPECT_GT(first_faults, 0u);
  EXPECT_EQ(second_faults, 0u);  // everything needed is now resident
}

TEST(RTreeTest, AggregateShortcutBeatsFullScanIo) {
  const DataSet data = GenerateIndependent(20000, 2, 71);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  // A query covering (almost) everything should be answered near the root
  // thanks to the aggregate counts: few page reads.
  const std::vector<Coord> lo{-1.0, -1.0}, hi{2.0, 2.0};
  tree->ResetIoStats();
  EXPECT_EQ(tree->RangeCount(lo, hi), 20000u);
  EXPECT_LE(tree->io_stats().page_reads, 2u);
}

}  // namespace
}  // namespace skydiver
