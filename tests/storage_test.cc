// Unit tests for binary persistence: binio primitives, DataSet and R-tree
// round trips, corruption detection.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/binio.h"
#include "core/dataset_io.h"
#include "minhash/siggen.h"
#include "datagen/generators.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// --------------------------------------------------------------------------
// binio
// --------------------------------------------------------------------------

TEST(BinIoTest, PrimitivesRoundTrip) {
  const std::string path = TempPath("binio_roundtrip.bin");
  const char magic[8] = {'T', 'E', 'S', 'T', 'M', 'A', 'G', '1'};
  {
    BinaryWriter writer(path, magic);
    ASSERT_TRUE(writer.ok());
    writer.WriteU8(7);
    writer.WriteU32(0xdeadbeef);
    writer.WriteU64(0x0123456789abcdefULL);
    writer.WriteDouble(-1.5e300);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, magic);
  ASSERT_TRUE(reader.status().ok());
  uint8_t u8;
  uint32_t u32;
  uint64_t u64;
  double d;
  ASSERT_TRUE(reader.ReadU8(&u8));
  ASSERT_TRUE(reader.ReadU32(&u32));
  ASSERT_TRUE(reader.ReadU64(&u64));
  ASSERT_TRUE(reader.ReadDouble(&d));
  EXPECT_EQ(u8, 7);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(d, -1.5e300);
  EXPECT_TRUE(reader.VerifyChecksum().ok());
  std::remove(path.c_str());
}

TEST(BinIoTest, WrongMagicRejected) {
  const std::string path = TempPath("binio_magic.bin");
  const char magic_a[8] = {'A', 'A', 'A', 'A', 'A', 'A', 'A', '1'};
  const char magic_b[8] = {'B', 'B', 'B', 'B', 'B', 'B', 'B', '1'};
  {
    BinaryWriter writer(path, magic_a);
    writer.WriteU32(1);
    ASSERT_TRUE(writer.Finish().ok());
  }
  BinaryReader reader(path, magic_b);
  EXPECT_TRUE(reader.status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(BinIoTest, CorruptionDetectedByChecksum) {
  const std::string path = TempPath("binio_corrupt.bin");
  const char magic[8] = {'C', 'O', 'R', 'R', 'U', 'P', 'T', '1'};
  {
    BinaryWriter writer(path, magic);
    for (uint32_t i = 0; i < 100; ++i) writer.WriteU32(i);
    ASSERT_TRUE(writer.Finish().ok());
  }
  // Flip one payload byte.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(50);
    char byte;
    f.seekg(50);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(50);
    f.write(&byte, 1);
  }
  BinaryReader reader(path, magic);
  ASSERT_TRUE(reader.status().ok());
  uint32_t v;
  for (uint32_t i = 0; i < 100; ++i) ASSERT_TRUE(reader.ReadU32(&v));
  EXPECT_TRUE(reader.VerifyChecksum().IsIoError());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// DataSet persistence
// --------------------------------------------------------------------------

TEST(DataSetIoTest, RoundTripIsExact) {
  const std::string path = TempPath("dataset_roundtrip.skyd");
  const DataSet data = GenerateAnticorrelated(5000, 4, 87);
  ASSERT_TRUE(SaveDataSet(data, path).ok());
  auto loaded = LoadDataSet(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dims(), data.dims());
  EXPECT_EQ(loaded->size(), data.size());
  EXPECT_EQ(loaded->values(), data.values());  // bit-exact doubles
  std::remove(path.c_str());
}

TEST(DataSetIoTest, MissingFileAndBadMagic) {
  EXPECT_TRUE(LoadDataSet("/nonexistent/file.skyd").status().IsIoError());
  const std::string path = TempPath("dataset_bad.skyd");
  {
    std::ofstream f(path, std::ios::binary);
    f << "this is not a skydiver file at all";
  }
  EXPECT_TRUE(LoadDataSet(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(DataSetIoTest, OversizedHeaderIsIoErrorBeforeAllocating) {
  // A 20-byte SKYDDAT1 header claiming dims = 2^20 and n = 2^40: dims * n
  // wraps to 2^60 coordinates. The loader must compare the counts with the
  // file's bytes and return IoError instead of letting the allocation throw.
  const std::string path = TempPath("dataset_oversized.skyd");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("SKYDDAT1", 8);
    const uint32_t dims = uint32_t{1} << 20;
    const uint64_t n = uint64_t{1} << 40;
    for (int b = 0; b < 4; ++b) out.put(static_cast<char>((dims >> (8 * b)) & 0xff));
    for (int b = 0; b < 8; ++b) out.put(static_cast<char>((n >> (8 * b)) & 0xff));
  }
  auto loaded = LoadDataSet(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(DataSetIoTest, TruncationDetected) {
  const std::string path = TempPath("dataset_trunc.skyd");
  const DataSet data = GenerateIndependent(500, 3, 89);
  ASSERT_TRUE(SaveDataSet(data, path).ok());
  // Truncate the file by 100 bytes.
  {
    std::ifstream in(path, std::ios::binary);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    in.close();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(content.data(),
              static_cast<std::streamsize>(content.size() - 100));
  }
  EXPECT_FALSE(LoadDataSet(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// RTree persistence
// --------------------------------------------------------------------------

TEST(RTreeIoTest, RoundTripPreservesStructureAndAnswers) {
  const std::string path = TempPath("rtree_roundtrip.skyd");
  const DataSet data = GenerateClustered(8000, 3, 91);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());

  auto loaded = RTree::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->size(), tree->size());
  EXPECT_EQ(loaded->height(), tree->height());
  EXPECT_EQ(loaded->PageCount(), tree->PageCount());
  EXPECT_TRUE(loaded->CheckInvariants().ok());

  // Queries answer identically.
  const std::vector<Coord> lo{0.2, 0.2, 0.2}, hi{0.7, 0.6, 0.9};
  EXPECT_EQ(loaded->RangeCount(lo, hi), tree->RangeCount(lo, hi));
  for (RowId probe : {0u, 100u, 4000u}) {
    EXPECT_EQ(loaded->DominatedCount(data.row(probe)),
              tree->DominatedCount(data.row(probe)));
  }
  // BBS over the loaded tree gives the same skyline.
  EXPECT_EQ(SkylineBBS(data, *loaded)->rows, SkylineBBS(data, *tree)->rows);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, DynamicTreeAlsoRoundTrips) {
  const std::string path = TempPath("rtree_dyn.skyd");
  const DataSet data = GenerateIndependent(2000, 4, 93);
  auto tree = RTree::InsertLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  auto loaded = RTree::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->CheckInvariants().ok());
  EXPECT_EQ(loaded->size(), 2000u);
  std::remove(path.c_str());
}

TEST(RTreeIoTest, CorruptedFileRejected) {
  const std::string path = TempPath("rtree_corrupt.skyd");
  const DataSet data = GenerateIndependent(1000, 2, 95);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(200);
    const char junk = 0x5a;
    f.write(&junk, 1);
  }
  EXPECT_FALSE(RTree::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(RTreeIoTest, MissingFileIsIoError) {
  EXPECT_TRUE(RTree::LoadFromFile("/nonexistent/tree.skyd").status().IsIoError());
}

// Writes an R-tree file header (dims, `config`'s page size, fill and cache
// fraction, size 1, root 0, height 1, `node_count` nodes) and one leaf node
// header claiming `entry_count` entries, with a valid checksum but no
// entries.
void WriteTreeHeader(const std::string& path, uint32_t dims, uint64_t node_count,
                     uint32_t entry_count, const RTreeConfig& config = {}) {
  const char magic[8] = {'S', 'K', 'Y', 'D', 'R', 'T', 'R', '1'};
  BinaryWriter writer(path, magic);
  writer.WriteU32(dims);
  writer.WriteU32(config.page_size);
  writer.WriteDouble(config.min_fill);
  writer.WriteDouble(config.cache_fraction);
  writer.WriteU64(1);
  writer.WriteU32(0);
  writer.WriteU32(1);
  writer.WriteU64(node_count);
  writer.WriteU32(0);
  writer.WriteU8(1);
  writer.WriteU32(entry_count);
  ASSERT_TRUE(writer.Finish().ok());
}

TEST(RTreeIoTest, OversizedCountsAreIoErrorBeforeAllocating) {
  // Each count is checked against the bytes left in the file, so none of
  // these headers can size an allocation: a node claiming 2^32 - 1
  // entries, a file claiming 2^62 nodes, and 2^31 dimensions.
  const std::string path = TempPath("rtree_oversized.skyd");
  WriteTreeHeader(path, 2, 1, ~uint32_t{0});
  auto loaded = RTree::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  WriteTreeHeader(path, 2, uint64_t{1} << 62, 1);
  loaded = RTree::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  WriteTreeHeader(path, uint32_t{1} << 31, 1, 1);
  loaded = RTree::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(RTreeIoTest, OutOfRangePagingFieldsAreRejected) {
  // The header's cache fraction sizes the buffer pool through a cast to
  // size_t, and its page size and fill shape every node: values outside
  // their ranges are a Status, not undefined behaviour.
  const std::string path = TempPath("rtree_paging.skyd");
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  std::vector<RTreeConfig> bad;
  for (const double fraction : {kNaN, -1.0, 0.0, 1e30}) {
    RTreeConfig c;
    c.cache_fraction = fraction;
    bad.push_back(c);
  }
  for (const double fill : {kNaN, -1.0, 0.0, 0.75}) {
    RTreeConfig c;
    c.min_fill = fill;
    bad.push_back(c);
  }
  for (const uint32_t page_size : {0u, 16u, 100u}) {
    RTreeConfig c;
    c.page_size = page_size;
    bad.push_back(c);
  }
  for (const RTreeConfig& c : bad) {
    WriteTreeHeader(path, 4, 1, 0, c);
    const auto loaded = RTree::LoadFromFile(path);
    EXPECT_TRUE(loaded.status().IsInvalidArgument())
        << "page " << c.page_size << " fill " << c.min_fill << " cache "
        << c.cache_fraction << ": " << loaded.status().ToString();
  }
  // Building from those values fails the same way.
  const DataSet data = GenerateIndependent(200, 4, 97);
  for (const RTreeConfig& c : bad) {
    EXPECT_TRUE(RTree::BulkLoad(data, c).status().IsInvalidArgument());
    EXPECT_TRUE(RTree::InsertLoad(data, c).status().IsInvalidArgument());
  }
  // The edges of the ranges are accepted.
  RTreeConfig edge;
  edge.cache_fraction = 1.0;
  edge.min_fill = 0.5;
  edge.page_size = 16 + 2 * (2 * 8 * 4 + 4 + 8);  // exactly two internal entries
  auto tree = RTree::BulkLoad(data, edge);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  ASSERT_TRUE(tree->SaveToFile(path).ok());
  EXPECT_TRUE(RTree::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// SignatureMatrix persistence
// --------------------------------------------------------------------------

TEST(SignatureIoTest, RoundTripPreservesEstimates) {
  const std::string path = TempPath("signatures.skyd");
  const DataSet data = GenerateIndependent(2000, 3, 97);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(64, data.size(), 99);
  const auto sig = SigGenIF(data, skyline, family).value();
  ASSERT_TRUE(sig.signatures.SaveToFile(path).ok());

  auto loaded = SignatureMatrix::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->signature_size(), sig.signatures.signature_size());
  ASSERT_EQ(loaded->columns(), sig.signatures.columns());
  for (size_t a = 0; a < skyline.size(); ++a) {
    for (size_t i = 0; i < 64; ++i) {
      ASSERT_EQ(loaded->at(a, i), sig.signatures.at(a, i));
    }
  }
  // Phase 2 can re-run from the reloaded fingerprints.
  EXPECT_DOUBLE_EQ(loaded->EstimatedDistance(0, skyline.size() - 1),
                   sig.signatures.EstimatedDistance(0, skyline.size() - 1));
  std::remove(path.c_str());
}

TEST(SignatureIoTest, RejectsForeignFiles) {
  const std::string path = TempPath("signatures_foreign.skyd");
  const DataSet data = GenerateIndependent(100, 2, 101);
  ASSERT_TRUE(SaveDataSet(data, path).ok());  // a SKYDDAT1 file, not SKYDSIG1
  EXPECT_TRUE(SignatureMatrix::LoadFromFile(path).status().IsInvalidArgument());
  std::remove(path.c_str());
}

TEST(SignatureIoTest, OutOfRangeSlotIsIoErrorNotNarrowed) {
  // SKYDSIG1 holds 64-bit slots. A slot is either kEmptySlot or a hash
  // value below 2^32 - 1; anything else has no 32-bit form, so the loader
  // must fail rather than truncate it.
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
  auto write = [&](const std::string& path, uint64_t second_slot) {
    BinaryWriter writer(path, magic);
    writer.WriteU64(2);  // t
    writer.WriteU64(1);  // m
    writer.WriteU64(5);
    writer.WriteU64(second_slot);
    return writer.Finish();
  };
  const std::string path = TempPath("signatures_range.skyd");
  ASSERT_TRUE(write(path, kEmptySlot).ok());
  auto ok = SignatureMatrix::LoadFromFile(path);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->at(0, 0), 5u);
  EXPECT_EQ(ok->at(0, 1), kEmptySlot);
  for (uint64_t bad : {uint64_t{kEmptySlot32}, uint64_t{1} << 32, (uint64_t{1} << 32) + 5,
                       kEmptySlot - 1}) {
    ASSERT_TRUE(write(path, bad).ok());
    const auto loaded = SignatureMatrix::LoadFromFile(path);
    EXPECT_TRUE(loaded.status().IsIoError()) << bad << ": " << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

// Raw little-endian bytes: a magic followed by u64 fields, no checksum.
void WriteRawFile(const std::string& path, const char magic[8],
                  const std::vector<uint64_t>& fields) {
  std::ofstream out(path, std::ios::binary);
  out.write(magic, 8);
  for (uint64_t v : fields) {
    for (int b = 0; b < 8; ++b) out.put(static_cast<char>((v >> (8 * b)) & 0xff));
  }
}

TEST(SignatureIoTest, OversizedHeaderIsIoErrorBeforeAllocating) {
  // A 24-byte file claiming t = m = 2^31 would ask for 2^62 slots; the
  // loader must compare the counts with the file's bytes and return
  // IoError instead of letting the allocation throw.
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
  const std::string path = TempPath("signatures_oversized.skyd");
  const uint64_t huge = uint64_t{1} << 31;
  WriteRawFile(path, magic, {huge, huge});
  auto loaded = SignatureMatrix::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  // So is a header claiming one slot more than the file holds.
  WriteRawFile(path, magic, {3, 1, 5, 6});
  loaded = SignatureMatrix::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SignatureIoTest, SavedBytesKeepThe64BitLayout) {
  // The saver widens each slot, so a file written from 32-bit slots is
  // byte-for-byte the 64-bit format: header, then t*m u64 values with the
  // empty marker as kEmptySlot.
  SignatureMatrix sig(2, 2);
  sig.UpdateMin(0, 0, 42);
  sig.UpdateMin(1, 1, kMaxSignaturePrime - 1);
  const std::string path = TempPath("signatures_layout.skyd");
  ASSERT_TRUE(sig.SaveToFile(path).ok());
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
  BinaryReader reader(path, magic);
  ASSERT_TRUE(reader.status().ok());
  uint64_t v = 0;
  std::vector<uint64_t> values;
  while (values.size() < 6 && reader.ReadU64(&v)) values.push_back(v);
  EXPECT_EQ(values, (std::vector<uint64_t>{2, 2, 42, kEmptySlot, kEmptySlot,
                                           kMaxSignaturePrime - 1}));
  EXPECT_TRUE(reader.VerifyChecksum().ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skydiver
