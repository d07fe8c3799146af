// Tests for SkyDiverSession (fingerprint once, select many) and the
// paper's §5.2 IB/IF advisor.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/binio.h"
#include "datagen/generators.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"
#include "skydiver/advisor.h"
#include "skydiver/profile.h"
#include "skydiver/session.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

// --------------------------------------------------------------------------
// SkyDiverSession
// --------------------------------------------------------------------------

TEST(SessionTest, CreateAndSelect) {
  const DataSet data = GenerateIndependent(4000, 4, 221);
  auto session = SkyDiverSession::Create(data, 100, 223);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->skyline(), SkylineSFS(data).rows);
  const size_t m = session->skyline().size();
  ASSERT_GE(m, 10u);

  const auto mh5 = session->SelectMinHash(5).value();
  EXPECT_EQ(mh5.size(), 5u);
  const std::set<RowId> sky(session->skyline().begin(), session->skyline().end());
  for (RowId r : mh5) EXPECT_TRUE(sky.count(r));

  // Prefix property across k.
  const auto mh10 = session->SelectMinHash(10).value();
  EXPECT_TRUE(std::equal(mh5.begin(), mh5.end(), mh10.begin()));

  // LSH selections with different knobs all work on the same fingerprints.
  for (double xi : {0.1, 0.3}) {
    const auto lsh = session->SelectLsh(5, xi, 20).value();
    EXPECT_EQ(lsh.size(), 5u);
    for (RowId r : lsh) EXPECT_TRUE(sky.count(r));
  }
}

TEST(SessionTest, MatchesFacadePipeline) {
  const DataSet data = GenerateForestCoverLike(5000, 4, 225);
  auto session = SkyDiverSession::Create(data, 100, 42);
  ASSERT_TRUE(session.ok());
  SkyDiverConfig config;
  config.k = 7;
  config.seed = 42;
  auto report = SkyDiver::Run(data, config);
  ASSERT_TRUE(report.ok());
  // Same seed, same t, same (index-free) path -> identical selection.
  EXPECT_EQ(session->SelectMinHash(7).value(), report->selected_rows);
}

TEST(SessionTest, IndexedCreateUsesBbs) {
  const DataSet data = GenerateAnticorrelated(3000, 3, 227);
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  auto session = SkyDiverSession::Create(data, 64, 229, &*tree);
  ASSERT_TRUE(session.ok());
  EXPECT_EQ(session->skyline(), SkylineSFS(data).rows);
  EXPECT_EQ(session->SelectMinHash(3).value().size(), 3u);
}

TEST(SessionTest, SaveLoadRoundTripSelectsIdentically) {
  const std::string path = testing::TempDir() + "/session_roundtrip.skyd";
  const DataSet data = GenerateIndependent(3000, 4, 231);
  auto session = SkyDiverSession::Create(data, 100, 233);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->SaveToFile(path).ok());

  auto loaded = SkyDiverSession::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->skyline(), session->skyline());
  EXPECT_EQ(loaded->domination_scores(), session->domination_scores());
  // Selection WITHOUT the dataset: identical to the live session's.
  EXPECT_EQ(loaded->SelectMinHash(8).value(), session->SelectMinHash(8).value());
  EXPECT_EQ(loaded->SelectLsh(8, 0.2, 20).value(),
            session->SelectLsh(8, 0.2, 20).value());
  std::remove(path.c_str());
}

TEST(SessionTest, Validation) {
  DataSet empty(2);
  EXPECT_TRUE(SkyDiverSession::Create(empty, 10, 1).status().IsInvalidArgument());
  const DataSet data = GenerateIndependent(100, 2, 235);
  EXPECT_TRUE(SkyDiverSession::Create(data, 0, 1).status().IsInvalidArgument());
  auto session = SkyDiverSession::Create(data, 10, 1);
  ASSERT_TRUE(session.ok());
  EXPECT_TRUE(session->SelectMinHash(10000).status().IsInvalidArgument());
  EXPECT_TRUE(
      SkyDiverSession::LoadFromFile("/nonexistent/ses.skyd").status().IsIoError());
}

TEST(SessionTest, OutOfRangeSignatureSlotIsIoError) {
  // SKYDSES1 stores slots as u64. A value that is neither kEmptySlot nor
  // below 2^32 - 1 cannot come from a real hash family; the loader fails
  // with IoError instead of narrowing it into a 32-bit slot.
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'E', 'S', '1'};
  const std::string path = testing::TempDir() + "/session_range.skyd";
  auto write = [&](uint64_t last_slot) {
    BinaryWriter writer(path, magic);
    writer.WriteU64(7);  // seed
    writer.WriteU64(2);  // m
    writer.WriteU32(0);
    writer.WriteU32(1);
    writer.WriteU64(3);  // scores
    writer.WriteU64(4);
    writer.WriteU64(2);  // t
    for (uint64_t v : {uint64_t{10}, kEmptySlot, uint64_t{11}, last_slot}) writer.WriteU64(v);
    return writer.Finish();
  };
  ASSERT_TRUE(write(12).ok());
  auto loaded = SkyDiverSession::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->domination_scores(), (std::vector<uint64_t>{3, 4}));
  for (uint64_t bad : {uint64_t{kEmptySlot32}, uint64_t{1} << 32, kEmptySlot - 1}) {
    ASSERT_TRUE(write(bad).ok());
    const auto rejected = SkyDiverSession::LoadFromFile(path);
    EXPECT_TRUE(rejected.status().IsIoError()) << bad << ": " << rejected.status().ToString();
  }
  std::remove(path.c_str());
}

TEST(SessionTest, OversizedHeaderIsIoErrorBeforeAllocating) {
  // A 24-byte SKYDSES1 header (magic, seed, m = 2^31) must fail with
  // IoError: its skyline and scores alone would need 24 GiB. So must a
  // well-formed skyline followed by t = 2^31 signature slots per point.
  const char magic[8] = {'S', 'K', 'Y', 'D', 'S', 'E', 'S', '1'};
  const std::string path = testing::TempDir() + "/session_oversized.skyd";
  auto write_raw = [&](const std::vector<uint64_t>& fields) {
    std::ofstream out(path, std::ios::binary);
    out.write(magic, 8);
    for (uint64_t v : fields) {
      for (int b = 0; b < 8; ++b) out.put(static_cast<char>((v >> (8 * b)) & 0xff));
    }
  };
  const uint64_t huge = uint64_t{1} << 31;
  write_raw({7, huge});
  auto loaded = SkyDiverSession::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();

  {
    BinaryWriter writer(path, magic);
    writer.WriteU64(7);  // seed
    writer.WriteU64(1);  // m
    writer.WriteU32(0);  // skyline
    writer.WriteU64(3);  // score
    writer.WriteU64(huge);  // t
    ASSERT_TRUE(writer.Finish().ok());
  }
  loaded = SkyDiverSession::LoadFromFile(path);
  EXPECT_TRUE(loaded.status().IsIoError()) << loaded.status().ToString();
  std::remove(path.c_str());
}

// --------------------------------------------------------------------------
// Profile
// --------------------------------------------------------------------------

TEST(ProfileTest, SummarizesDataset) {
  const DataSet data = GenerateRecipesLike(5000, 5, 247);
  auto profile = ProfileDataSet(data);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->rows, 5000u);
  EXPECT_EQ(profile->dims, 5u);
  ASSERT_EQ(profile->dimensions.size(), 5u);
  for (const auto& d : profile->dimensions) {
    EXPECT_LE(d.min, d.max);
    EXPECT_GE(d.mean, d.min);
    EXPECT_LE(d.mean, d.max);
    EXPECT_GE(d.stddev, 0.0);
  }
  // REC zero-inflates optional nutrients (dims 2..4) but never core ones.
  EXPECT_EQ(profile->dimensions[0].zero_fraction, 0.0);
  EXPECT_GT(profile->dimensions[3].zero_fraction, 0.1);
  EXPECT_GT(profile->expected_uniform_skyline, 1.0);
  const std::string text = FormatProfile(*profile);
  EXPECT_NE(text.find("rows: 5000"), std::string::npos);
  EXPECT_NE(text.find("expected skyline"), std::string::npos);
}

TEST(ProfileTest, RejectsEmpty) {
  DataSet empty(3);
  EXPECT_TRUE(ProfileDataSet(empty).status().IsInvalidArgument());
}

// --------------------------------------------------------------------------
// Advisor (paper §5.2 user guide)
// --------------------------------------------------------------------------

TEST(AdvisorTest, CorrelationEstimates) {
  EXPECT_GT(EstimateMeanCorrelation(GenerateCorrelated(20000, 3, 237)), 0.3);
  EXPECT_LT(EstimateMeanCorrelation(GenerateAnticorrelated(20000, 3, 237)), -0.1);
  EXPECT_NEAR(EstimateMeanCorrelation(GenerateIndependent(20000, 3, 237)), 0.0, 0.05);
}

TEST(AdvisorTest, MemoryResidentAlwaysIb) {
  for (WorkloadKind kind : {WorkloadKind::kIndependent, WorkloadKind::kAnticorrelated}) {
    const auto data = GenerateWorkload(kind, 5000, 2, 239).value();
    const auto advice = RecommendSigGenMode(data, IndexResidency::kMemoryResident);
    EXPECT_EQ(advice.mode, SigGenMode::kIndexBased) << WorkloadKindName(kind);
  }
}

TEST(AdvisorTest, DiskResidentHighDimensionalIsIb) {
  const auto data = GenerateAnticorrelated(5000, 5, 241);
  const auto advice = RecommendSigGenMode(data, IndexResidency::kDiskResident);
  EXPECT_EQ(advice.mode, SigGenMode::kIndexBased);
  EXPECT_NE(advice.rationale.find("d >= 4"), std::string::npos);
}

TEST(AdvisorTest, DiskResidentTwoDimensionalIndIsIb) {
  const auto data = GenerateIndependent(5000, 2, 243);
  const auto advice = RecommendSigGenMode(data, IndexResidency::kDiskResident);
  EXPECT_EQ(advice.mode, SigGenMode::kIndexBased);
}

TEST(AdvisorTest, DiskResidentLowDimensionalAntIsIf) {
  const auto data2 = GenerateAnticorrelated(5000, 2, 245);
  EXPECT_EQ(RecommendSigGenMode(data2, IndexResidency::kDiskResident).mode,
            SigGenMode::kIndexFree);
  const auto data3 = GenerateAnticorrelated(5000, 3, 245);
  EXPECT_EQ(RecommendSigGenMode(data3, IndexResidency::kDiskResident).mode,
            SigGenMode::kIndexFree);
}

}  // namespace
}  // namespace skydiver
