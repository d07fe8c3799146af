// Tests for the file-backed R-tree: page serialization round trips, the
// pinned frame cache on real reads, corrupt/truncated-file handling, the
// pread/mmap backend split, async prefetch parity, and the full
// index-based pipeline (BBS + SigGen-IB) running straight off a page file.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "common/binio.h"
#include "datagen/generators.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

struct DiskFixture {
  DataSet data = DataSet(1);
  std::string path;
  // Keep the in-memory tree for cross-checks.
  Result<RTree> memory = Status::Internal("unset");

  static DiskFixture Make(WorkloadKind kind, RowId n, Dim d, const std::string& name) {
    DiskFixture f;
    f.data = GenerateWorkload(kind, n, d, 211).value();
    f.path = TempPath(name);
    f.memory = RTree::BulkLoad(f.data);
    EXPECT_TRUE(DiskRTree::Write(*f.memory, f.path).ok());
    return f;
  }
};

uint64_t RowsDigest(const std::vector<RowId>& rows) {
  Fnv1a sum;
  for (const RowId r : rows) sum.Update(&r, sizeof(r));
  return sum.digest();
}

TEST(DiskRTreeTest, OpenReadsGeometry) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 5000, 3, "disk_geom.pages");
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ(disk->dims(), 3u);
  EXPECT_EQ(disk->size(), 5000u);
  EXPECT_EQ(disk->root(), f.memory->root());
  EXPECT_EQ(disk->height(), f.memory->height());
  EXPECT_EQ(disk->PageCount(), f.memory->PageCount());
  EXPECT_EQ(disk->backend(), DiskBackend::kPread);
  EXPECT_FALSE(disk->prefetch_enabled());
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, NodesDeserializeExactly) {
  auto f = DiskFixture::Make(WorkloadKind::kClustered, 4000, 4, "disk_nodes.pages");
  auto disk = DiskRTree::Open(f.path, /*cache_fraction=*/1.0);
  ASSERT_TRUE(disk.ok());
  for (PageId id = 0; id < f.memory->PageCount(); ++id) {
    const RTreeNode& mem_node = f.memory->ReadNode(id);
    auto ref = disk->ReadNode(id);
    ASSERT_TRUE(ref.ok()) << "page " << id << ": " << ref.status().ToString();
    const RTreeNode& disk_node = ref->node();
    ASSERT_EQ(disk_node.is_leaf, mem_node.is_leaf) << "page " << id;
    ASSERT_EQ(disk_node.entries.size(), mem_node.entries.size()) << "page " << id;
    for (size_t e = 0; e < mem_node.entries.size(); ++e) {
      EXPECT_TRUE(disk_node.entries[e].mbr == mem_node.entries[e].mbr);
      EXPECT_EQ(disk_node.entries[e].child, mem_node.entries[e].child);
      EXPECT_EQ(disk_node.entries[e].count, mem_node.entries[e].count);
      EXPECT_EQ(disk_node.entries[e].row, mem_node.entries[e].row);
    }
  }
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, QueriesMatchInMemoryTree) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 8000, 3, "disk_query.pages");
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok());
  const std::vector<Coord> lo{0.1, 0.2, 0.3}, hi{0.6, 0.9, 0.7};
  EXPECT_EQ(disk->RangeCount(lo, hi).value(), f.memory->RangeCount(lo, hi));
  auto disk_rows = disk->RangeSearch(lo, hi).value();
  auto mem_rows = f.memory->RangeSearch(lo, hi);
  std::sort(disk_rows.begin(), disk_rows.end());
  std::sort(mem_rows.begin(), mem_rows.end());
  EXPECT_EQ(disk_rows, mem_rows);
  for (RowId probe : {0u, 777u, 7999u}) {
    EXPECT_EQ(disk->DominatedCount(f.data.row(probe)).value(),
              f.memory->DominatedCount(f.data.row(probe)));
  }
  EXPECT_EQ(disk->CommonDominatedCount(f.data.row(1), f.data.row(2)).value(),
            f.memory->CommonDominatedCount(f.data.row(1), f.data.row(2)));
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, FrameCacheHitsAndColdMisses) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 20000, 2, "disk_cache.pages");
  auto disk = DiskRTree::Open(f.path, /*cache_fraction=*/0.5);
  ASSERT_TRUE(disk.ok());
  const std::vector<Coord> lo{0.4, 0.4}, hi{0.45, 0.45};
  disk->ResetIoStats();
  (void)disk->RangeCount(lo, hi);
  const uint64_t cold_faults = disk->io_stats().page_faults;
  EXPECT_GT(cold_faults, 0u);
  (void)disk->RangeCount(lo, hi);
  EXPECT_EQ(disk->io_stats().page_faults, cold_faults);  // warm: all hits
  disk->DropCache();
  (void)disk->RangeCount(lo, hi);
  EXPECT_EQ(disk->io_stats().page_faults, 2 * cold_faults);  // cold again
  std::remove(f.path.c_str());
}

// Regression for the eviction use-after-free: the old frame cache returned
// `const RTreeNode&` into an evictable slot, so reading cache_capacity()+1
// other pages invalidated a reference the caller still held. The pinned
// handle must keep the frame resident through arbitrary cache churn
// (under ASan this test reads freed memory with the old code).
TEST(DiskRTreeTest, PinnedRefSurvivesCacheChurn) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 20000, 3, "disk_pin.pages");
  DiskTreeOptions options;
  options.cache_fraction = 0.01;  // tiny: every read evicts
  auto disk = DiskRTree::Open(f.path, options);
  ASSERT_TRUE(disk.ok());
  ASSERT_GT(disk->PageCount(), disk->cache_capacity() + 1);

  auto pinned = disk->ReadNode(disk->root());
  ASSERT_TRUE(pinned.ok());
  const RTreeNode& node = pinned->node();
  const size_t entries_before = node.entries.size();
  const PageId first_child = node.entries.front().child;

  // Thrash the cache far past capacity while the pin is live.
  for (PageId id = 0; id < disk->cache_capacity() + 1; ++id) {
    if (id == disk->root()) continue;
    auto scratch = disk->ReadNode(id);
    ASSERT_TRUE(scratch.ok()) << scratch.status().ToString();
  }

  // The pinned node is still intact and readable.
  EXPECT_EQ(node.entries.size(), entries_before);
  EXPECT_EQ(node.entries.front().child, first_child);
  EXPECT_EQ(node.id, disk->root());
  std::remove(f.path.c_str());
}

// Regression for the serialization heap overflow: the old Write serialized
// every entry first and bounds-checked after, so a node too big for its
// page had already scribbled past the buffer. The check now runs BEFORE
// each entry and surfaces as a clean Status.
TEST(DiskRTreeTest, OversizedNodeIsACleanSerializationError) {
  const Dim dims = 4;
  const uint32_t page_size = 256;  // too small for the node below
  RTreeNode node;
  node.id = 7;
  node.is_leaf = true;
  std::vector<Coord> p(dims, 0.5);
  for (RowId r = 0; r < 64; ++r) {
    RTreeEntry e;
    e.mbr = Mbr::OfPoint(p);
    e.row = r;
    node.entries.push_back(e);
  }
  std::vector<unsigned char> page;
  const Status s = detail::SerializeNode(node, dims, page_size, &page);
  ASSERT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInternal()) << s.ToString();
  EXPECT_NE(s.ToString().find("overflows its page"), std::string::npos) << s.ToString();
  // The buffer was never written past its bounds: still exactly one page.
  EXPECT_EQ(page.size(), page_size);
}

// Regression for the std::abort() on short reads: a file that passes the
// header checks but is missing node pages must fail Open (the geometry
// check) — and a file truncated mid-page must fail the read with a Status,
// never a crash.
TEST(DiskRTreeTest, TruncatedFileIsAStatusNotACrash) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 5000, 3, "disk_trunc.pages");
  const auto full_size = std::filesystem::file_size(f.path);
  const auto page_size = DiskRTree::Open(f.path)->page_size();

  // Chop half a page off the tail: Open's size-vs-geometry check fires.
  std::filesystem::resize_file(f.path, full_size - page_size / 2);
  auto truncated = DiskRTree::Open(f.path);
  ASSERT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsIoError()) << truncated.status().ToString();
  EXPECT_NE(truncated.status().ToString().find("truncated or corrupt"),
            std::string::npos);
  std::remove(f.path.c_str());
}

// Regression for trusted header/page geometry: a node page whose declared
// entry count overflows the page must fail the read (IoError), not read
// out of bounds. The header itself is intact, so Open succeeds.
TEST(DiskRTreeTest, CorruptEntryCountFailsTheReadNotTheProcess) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 3000, 2, "disk_count.pages");
  const auto page_size = DiskRTree::Open(f.path)->page_size();
  {
    // Node page 0 lives at file offset page_size; its entry count is the
    // u32 at byte 4 of the node header.
    std::fstream file(f.path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(page_size + 4);
    const unsigned char huge[4] = {0xff, 0xff, 0xff, 0x7f};
    file.write(reinterpret_cast<const char*>(huge), 4);
  }
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  auto ref = disk->ReadNode(0);
  ASSERT_FALSE(ref.ok());
  EXPECT_TRUE(ref.status().IsIoError()) << ref.status().ToString();
  EXPECT_NE(ref.status().ToString().find("corrupt node page"), std::string::npos);

  // The failure is not sticky for other pages and not cached for this one:
  // a healthy page still reads, and re-reading page 0 re-fails cleanly.
  EXPECT_FALSE(disk->ReadNode(0).ok());
  std::remove(f.path.c_str());
}

// Regression for the fake stats save/restore: Write's old comment claimed
// the tree's I/O counters were saved and restored around serialization and
// did neither, so Write inflated reads/faults. Serialization now reads via
// PeekNode and is stats-neutral by construction.
TEST(DiskRTreeTest, WriteIsStatsNeutral) {
  DataSet data = GenerateWorkload(WorkloadKind::kIndependent, 6000, 3, 211).value();
  auto tree = RTree::BulkLoad(data).value();
  // Accumulate some honest query traffic first.
  const std::vector<Coord> lo{0.2, 0.2, 0.2}, hi{0.7, 0.7, 0.7};
  (void)tree.RangeCount(lo, hi);
  const IoStats before = tree.io_stats();
  EXPECT_GT(before.page_reads, 0u);

  const std::string path = TempPath("disk_neutral.pages");
  ASSERT_TRUE(DiskRTree::Write(tree, path).ok());

  const IoStats after = tree.io_stats();
  EXPECT_EQ(after.page_reads, before.page_reads);
  EXPECT_EQ(after.page_faults, before.page_faults);
  EXPECT_EQ(after.page_writes, before.page_writes);
  std::remove(path.c_str());
}

TEST(DiskRTreeTest, MmapBackendMatchesPread) {
  auto f = DiskFixture::Make(WorkloadKind::kAnticorrelated, 8000, 3, "disk_mmap.pages");
  DiskTreeOptions mmap_options;
  mmap_options.backend = DiskBackend::kMmap;
  auto pread_tree = DiskRTree::Open(f.path);
  auto mmap_tree = DiskRTree::Open(f.path, mmap_options);
  ASSERT_TRUE(pread_tree.ok());
  ASSERT_TRUE(mmap_tree.ok()) << mmap_tree.status().ToString();
  EXPECT_EQ(mmap_tree->backend(), DiskBackend::kMmap);

  const std::vector<Coord> lo{0.1, 0.1, 0.1}, hi{0.8, 0.8, 0.8};
  EXPECT_EQ(pread_tree->RangeCount(lo, hi).value(),
            mmap_tree->RangeCount(lo, hi).value());
  const auto pread_sky = SkylineBBS(f.data, *pread_tree);
  const auto mmap_sky = SkylineBBS(f.data, *mmap_tree);
  ASSERT_TRUE(pread_sky.ok());
  ASSERT_TRUE(mmap_sky.ok());
  EXPECT_EQ(RowsDigest(pread_sky->rows), RowsDigest(mmap_sky->rows));
  EXPECT_EQ(pread_sky->rows, mmap_sky->rows);
  std::remove(f.path.c_str());
}

// Prefetch determinism: BBS over a prefetching tree emits bit-identical
// skylines (FNV digest) to the no-prefetch run, across backends and pool
// sizes — prefetch moves physical reads in time, never changes bytes.
TEST(DiskRTreeTest, PrefetchNeverChangesResults) {
  auto f = DiskFixture::Make(WorkloadKind::kAnticorrelated, 10000, 4, "disk_pf.pages");
  const auto baseline = SkylineBBS(f.data, DiskRTree::Open(f.path).value());
  ASSERT_TRUE(baseline.ok());
  const uint64_t want = RowsDigest(baseline->rows);

  for (const DiskBackend backend : {DiskBackend::kPread, DiskBackend::kMmap}) {
    for (const size_t threads : {size_t{2}, size_t{8}}) {
      ThreadPool pool(threads);
      DiskTreeOptions options;
      options.backend = backend;
      options.cache_fraction = 0.1;
      options.prefetch_pool = &pool;
      auto disk = DiskRTree::Open(f.path, options);
      ASSERT_TRUE(disk.ok());
      EXPECT_TRUE(disk->prefetch_enabled());
      const auto sky = SkylineBBS(f.data, *disk);
      ASSERT_TRUE(sky.ok()) << sky.status().ToString();
      EXPECT_EQ(RowsDigest(sky->rows), want)
          << ToString(backend) << " threads=" << threads;
      EXPECT_EQ(sky->rows, baseline->rows);
    }
  }
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, PrefetchCountsSeparatelyFromDemandFaults) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 20000, 3, "disk_pfio.pages");
  ThreadPool pool(4);
  DiskTreeOptions options;
  options.cache_fraction = 1.0;  // no eviction: every prefetch sticks
  options.prefetch_pool = &pool;
  auto disk = DiskRTree::Open(f.path, options);
  ASSERT_TRUE(disk.ok());

  // Deterministic half: demand-read only the root, prefetch its children,
  // drain the pool. Every child load is speculative, so the counters must
  // say exactly one read, one fault, and root-fanout prefetches.
  auto root = disk->ReadNode(disk->root());
  ASSERT_TRUE(root.ok());
  ASSERT_FALSE(root->node().is_leaf);
  disk->PrefetchChildren(root->node());
  pool.Wait();
  IoStats io = disk->io_stats();
  EXPECT_EQ(io.page_reads, 1u);
  EXPECT_EQ(io.page_faults, 1u);
  EXPECT_EQ(io.page_prefetches, root->node().entries.size());

  // Racy half on top: a full BBS run. Speculative reads never masquerade
  // as demand traffic — every fault is a logical read that actually
  // missed, and prefetched pages that win the race save faults rather
  // than adding them.
  const auto sky = SkylineBBS(f.data, *disk);
  ASSERT_TRUE(sky.ok());
  io = disk->io_stats();
  EXPECT_GT(io.page_reads, 1u);
  EXPECT_LE(io.page_faults, io.page_reads);
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, BbsOffDiskMatchesInMemory) {
  auto f = DiskFixture::Make(WorkloadKind::kAnticorrelated, 6000, 3, "disk_bbs.pages");
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok());
  auto disk_sky = SkylineBBS(f.data, *disk);
  ASSERT_TRUE(disk_sky.ok()) << disk_sky.status().ToString();
  EXPECT_EQ(disk_sky->rows, SkylineSFS(f.data).rows);
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, SigGenIbOffDiskMatchesInMemory) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 5000, 3, "disk_ib.pages");
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok());
  const auto skyline = SkylineSFS(f.data).rows;
  const auto family = MinHashFamily::Create(32, f.data.size(), 213);
  const auto mem = SigGenIB(f.data, skyline, family, *f.memory).value();
  const auto from_disk = SigGenIB(f.data, skyline, family, *disk).value();
  // Same traversal order (DFS over the same page ids) -> identical
  // signatures and scores.
  EXPECT_EQ(from_disk.domination_scores, mem.domination_scores);
  for (size_t j = 0; j < skyline.size(); ++j) {
    for (size_t i = 0; i < 32; ++i) {
      ASSERT_EQ(from_disk.signatures.at(j, i), mem.signatures.at(j, i))
          << "col " << j << " slot " << i;
    }
  }
  EXPECT_GT(from_disk.io.page_reads, 0u);
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, FullPipelineOffDisk) {
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 6000, 4, "disk_pipe.pages");
  auto disk = DiskRTree::Open(f.path);
  ASSERT_TRUE(disk.ok());
  SkyDiverConfig config;
  config.k = 5;
  auto report = SkyDiver::RunOnDisk(f.data, config, *disk);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(IsSkyline(f.data, report->skyline));
  EXPECT_EQ(report->selected_rows.size(), 5u);
  EXPECT_GT(report->skyline_phase.io.page_faults, 0u);      // real preads (BBS)
  EXPECT_GT(report->fingerprint_phase.io.page_reads, 0u);   // real preads (IB)
  // The selection must equal the in-memory indexed pipeline's (identical
  // page ids, identical traversals, identical hash family).
  auto mem_report = SkyDiver::Run(f.data, config, &*f.memory);
  ASSERT_TRUE(mem_report.ok());
  EXPECT_EQ(report->selected_rows, mem_report->selected_rows);
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, RejectsForeignAndCorruptFiles) {
  EXPECT_TRUE(DiskRTree::Open("/nonexistent/pages").status().IsIoError());
  const std::string path = TempPath("disk_bad.pages");
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(8192, 'x');
  }
  EXPECT_TRUE(DiskRTree::Open(path).status().IsInvalidArgument());
  std::remove(path.c_str());

  // Corrupt the header checksum of a valid file.
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 1000, 2, "disk_corrupt.pages");
  {
    std::fstream file(f.path, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(16);  // inside the header fields
    const char junk = 0x7f;
    file.write(&junk, 1);
  }
  EXPECT_FALSE(DiskRTree::Open(f.path).ok());
  std::remove(f.path.c_str());
}

TEST(DiskRTreeTest, OutOfRangeCacheFractionAndPageSizeAreRejected) {
  // The cache is sized by a cast of ceil(fraction x pages) to size_t:
  // fractions outside (0, 1] are a Status, not undefined behaviour.
  auto f = DiskFixture::Make(WorkloadKind::kIndependent, 1000, 3, "disk_paging.pages");
  for (const double fraction :
       {std::numeric_limits<double>::quiet_NaN(), -1.0, 0.0, 1e30}) {
    EXPECT_TRUE(DiskRTree::Open(f.path, fraction).status().IsInvalidArgument())
        << fraction;
  }
  EXPECT_TRUE(DiskRTree::Open(f.path, 1.0).ok());

  // A header claiming page size 0, with its checksum recomputed so that
  // only the geometry checks stand between it and the reader.
  {
    std::fstream file(f.path, std::ios::in | std::ios::out | std::ios::binary);
    unsigned char head[40];
    file.read(reinterpret_cast<char*>(head), sizeof(head));
    const uint32_t zero = 0;
    std::memcpy(head + 12, &zero, sizeof(zero));  // after magic and dims
    Fnv1a sum;
    sum.Update(head, sizeof(head));
    const uint64_t digest = sum.digest();
    file.seekp(0);
    file.write(reinterpret_cast<const char*>(head), sizeof(head));
    file.write(reinterpret_cast<const char*>(&digest), sizeof(digest));
  }
  EXPECT_TRUE(DiskRTree::Open(f.path).status().IsInvalidArgument());
  std::remove(f.path.c_str());
}

}  // namespace
}  // namespace skydiver
