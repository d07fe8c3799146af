// Thread-count invariance: every operator gives the same answer inline
// (null pool) and on 1, 2 and 4 pool threads, at every morsel size it
// takes — skyline rows, SigGen-IF and SigGen-IB signatures, scores,
// dominance counts and page reads, greedy picks, and whole engine reports.
// The inputs carry duplicate rows and tied coordinates, and n is 1000 or
// 1001, so the last tile and the last morsel end ragged.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "engine/query_context.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 4};
constexpr size_t kMorsels[] = {64, 128};

// A workload of exactly `n` rows where every 7th row duplicates its
// predecessor and every 11th copies its predecessor's first coordinate, so
// dominance sees equal points and ties on a dimension.
DataSet TiedWorkload(WorkloadKind kind, RowId n, Dim d, uint64_t seed) {
  const DataSet base = GenerateWorkload(kind, n, d, seed).value();
  DataSet out(d);
  std::vector<Coord> row(d);
  for (RowId r = 0; r < n; ++r) {
    const auto src = base.row(r);
    row.assign(src.begin(), src.end());
    if (r > 0 && r % 7 == 0) {
      const auto prev = out.row(r - 1);
      row.assign(prev.begin(), prev.end());
    } else if (r > 0 && r % 11 == 0) {
      row[0] = out.row(r - 1)[0];
    }
    out.Append(row);
  }
  return out;
}

void ExpectSameSigGen(const SigGenResult& got, const SigGenResult& want,
                      const std::string& what) {
  EXPECT_EQ(got.domination_scores, want.domination_scores) << what;
  EXPECT_EQ(got.dominance_checks, want.dominance_checks) << what;
  EXPECT_EQ(got.io.page_reads, want.io.page_reads) << what;
  ASSERT_EQ(got.signatures.columns(), want.signatures.columns()) << what;
  ASSERT_EQ(got.signatures.signature_size(), want.signatures.signature_size()) << what;
  for (size_t j = 0; j < want.signatures.columns(); ++j) {
    for (size_t i = 0; i < want.signatures.signature_size(); ++i) {
      ASSERT_EQ(got.signatures.at(j, i), want.signatures.at(j, i))
          << what << ": col " << j << " slot " << i;
    }
  }
}

void ExpectSameOutput(const EngineOutput& got, const EngineOutput& want,
                      const std::string& what) {
  const SkyDiverReport& a = got.report;
  const SkyDiverReport& b = want.report;
  EXPECT_EQ(a.skyline, b.skyline) << what;
  EXPECT_EQ(a.selected, b.selected) << what;
  EXPECT_EQ(a.selected_rows, b.selected_rows) << what;
  EXPECT_EQ(a.objective, b.objective) << what;
  EXPECT_EQ(a.signature_memory_bytes, b.signature_memory_bytes) << what;
  EXPECT_EQ(a.fingerprint_phase.dominance_checks, b.fingerprint_phase.dominance_checks)
      << what;
  EXPECT_EQ(a.fingerprint_phase.io.page_reads, b.fingerprint_phase.io.page_reads) << what;
  EXPECT_EQ(got.domination_scores, want.domination_scores) << what;
  ASSERT_EQ(got.signatures.columns(), want.signatures.columns()) << what;
  for (size_t j = 0; j < want.signatures.columns(); ++j) {
    for (size_t i = 0; i < want.signatures.signature_size(); ++i) {
      ASSERT_EQ(got.signatures.at(j, i), want.signatures.at(j, i))
          << what << ": col " << j << " slot " << i;
    }
  }
}

using InvarianceParam = std::tuple<WorkloadKind, Dim, RowId>;

class ThreadInvarianceTest : public testing::TestWithParam<InvarianceParam> {
 protected:
  void SetUp() override {
    const auto [kind, d, n] = GetParam();
    data_.emplace(TiedWorkload(kind, n, d, 0x7e57 + d + n));
    for (const size_t threads : kThreadCounts) {
      pools_.push_back(std::make_unique<ThreadPool>(threads));
    }
  }

  std::string Name() const {
    const auto [kind, d, n] = GetParam();
    return std::string(WorkloadKindName(kind)) + "_d" + std::to_string(d) + "_n" +
           std::to_string(n);
  }

  const DataSet& data() const { return *data_; }

  std::optional<DataSet> data_;
  std::vector<std::unique_ptr<ThreadPool>> pools_;
};

TEST_P(ThreadInvarianceTest, EveryOperatorIsIndependentOfThePool) {
  const DataSet& data = this->data();
  const DataView view(data);
  const std::vector<RowId> skyline = SkylineSFS(view, DomKernel::kSimd).rows;
  ASSERT_TRUE(IsSkyline(data, skyline));
  const auto family = MinHashFamily::Create(32, data.size(), 0x1f);
  const SigGenResult if_ref = SigGenIF(data, skyline, family, DomKernel::kSimd).value();

  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::TempDir() + "/" + Name() + ".pages";
  ASSERT_TRUE(DiskRTree::Write(*tree, path).ok());
  auto disk = DiskRTree::Open(path);
  ASSERT_TRUE(disk.ok());
  const SigGenResult ib_ref = SigGenIB(data, skyline, family, *tree).value();
  ExpectSameSigGen(SigGenIB(data, skyline, family, *disk).value(), ib_ref,
                   "inline IB, disk tree");

  const size_t m = skyline.size();
  const size_t k = std::min<size_t>(6, m);
  const DistanceFn pair = [&](size_t a, size_t b) {
    return if_ref.signatures.EstimatedDistance(a, b);
  };
  const DispersionResult pick_ref =
      SelectDiverseSet(m, k, if_ref.signatures.Distances(), if_ref.domination_scores,
                       nullptr)
          .value();
  EXPECT_EQ(SelectDiverseSet(m, k, pair, if_ref.domination_scores).value().selected,
            pick_ref.selected);

  for (const auto& pool : pools_) {
    const std::string at = " threads=" + std::to_string(pool->size());
    ExpectSameSigGen(SigGenIB(data, skyline, family, *tree, DomKernel::kSimd, pool.get())
                         .value(),
                     ib_ref, "pooled IB, memory tree" + at);
    ExpectSameSigGen(SigGenIB(data, skyline, family, *disk, DomKernel::kSimd, pool.get())
                         .value(),
                     ib_ref, "pooled IB, disk tree" + at);
    EXPECT_EQ(SkylineSharded(view, 3, DomKernel::kSimd, pool.get()).rows, skyline) << at;
    for (const size_t morsel : kMorsels) {
      const std::string where = at + " morsel=" + std::to_string(morsel);
      EXPECT_EQ(SkylineSFS(view, DomKernel::kSimd, pool.get(), morsel).rows, skyline)
          << where;
      ExpectSameSigGen(
          SigGenIF(data, skyline, family, DomKernel::kSimd, pool.get(), morsel).value(),
          if_ref, "pooled IF" + where);
      EXPECT_EQ(SelectDiverseSet(m, k, if_ref.signatures.Distances(),
                                 if_ref.domination_scores, pool.get(), morsel)
                    .value()
                    .selected,
                pick_ref.selected)
          << where;
      EXPECT_EQ(SelectDiverseSet(m, k, pair, if_ref.domination_scores, pool.get(), morsel)
                    .value()
                    .selected,
                pick_ref.selected)
          << where;
    }
  }
  std::remove(path.c_str());
}

TEST_P(ThreadInvarianceTest, EngineReportsAreIndependentOfTheThreadCount) {
  const DataSet& data = this->data();
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const std::string path = testing::TempDir() + "/" + Name() + ".engine.pages";
  ASSERT_TRUE(DiskRTree::Write(*tree, path).ok());
  auto disk = DiskRTree::Open(path);
  ASSERT_TRUE(disk.ok());

  PlanResources index_free;
  PlanResources in_memory;
  in_memory.tree = &*tree;
  PlanResources on_disk;
  on_disk.disk_tree = &*disk;
  const size_t m = SkylineSFS(data).rows.size();
  const struct {
    const char* name;
    const PlanResources* resources;
  } plans[] = {{"IF", &index_free}, {"IB memory", &in_memory}, {"IB disk", &on_disk}};

  for (const auto& p : plans) {
    std::optional<EngineOutput> reference;
    for (const size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
      SkyDiverConfig config;
      config.k = std::min<size_t>(5, m);
      config.signature_size = 32;
      config.threads = threads;
      const auto plan = Planner::Resolve(config, *p.resources);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      QueryContext ctx(config);
      auto out = Engine::Execute(ctx, plan.value(), config, data, *p.resources);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      if (!reference) {
        reference.emplace(std::move(out).value());
        continue;
      }
      ExpectSameOutput(out.value(), *reference,
                       std::string(p.name) + " threads=" + std::to_string(threads));
    }
  }
  std::remove(path.c_str());
}

std::string InvarianceName(const testing::TestParamInfo<InvarianceParam>& info) {
  static const char* const kNames[] = {"IND", "CORR", "ANT"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_d" +
         std::to_string(std::get<1>(info.param)) + "_n" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ThreadInvarianceTest,
    testing::Combine(testing::Values(WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
                                     WorkloadKind::kAnticorrelated),
                     testing::Values(Dim{2}, Dim{5}, Dim{8}),
                     testing::Values(RowId{1000}, RowId{1001})),
    InvarianceName);

}  // namespace
}  // namespace skydiver
