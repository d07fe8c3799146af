// Kernel parity for the signature hot loops: the MinHash merge kernel's
// backends against a scalar loop, and SigGen-IB's tile-batched leaf
// classification against its scalar form. Every kernel and every tree
// backend must produce the same signatures, scores AND dominance counts,
// bit for bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/cpu.h"
#include "common/rng.h"
#include "core/dominance.h"
#include "datagen/generators.h"
#include "kernels/dominance_kernel.h"
#include "kernels/min_merge.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

constexpr DomKernel kAllKernels[] = {DomKernel::kScalar, DomKernel::kTiled,
                                     DomKernel::kSimd};

// ---------------------------------------------------------------------------
// MergeMin backends.

std::vector<uint32_t> RandomSlots(Rng& rng, size_t n) {
  std::vector<uint32_t> v(n);
  for (auto& x : v) {
    // A mix of small values (ties across the arrays), large ones (the
    // unsigned compare must not read them as negative) and empty slots.
    switch (rng.NextBounded(4)) {
      case 0: x = static_cast<uint32_t>(rng.NextBounded(8)); break;
      case 1: x = kEmptySlot32; break;
      case 2: x = kEmptySlot32 - 1 - static_cast<uint32_t>(rng.NextBounded(8)); break;
      default: x = static_cast<uint32_t>(rng.Next()); break;
    }
  }
  return v;
}

void ExpectBackendMatchesScalarLoop(kernel_internal::MergeMinFn fn, const char* name) {
  Rng rng(0x6d65);
  for (size_t t : {1, 7, 8, 9, 15, 16, 17, 25, 100, 257}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<uint32_t> src = RandomSlots(rng, t);
      std::vector<uint32_t> dst = RandomSlots(rng, t);
      std::vector<uint32_t> want = dst;
      for (size_t i = 0; i < t; ++i) want[i] = src[i] < want[i] ? src[i] : want[i];
      fn(dst.data(), src.data(), t);
      ASSERT_EQ(dst, want) << name << " t = " << t;
    }
  }
}

TEST(MergeMinTest, PortableBackendMatchesScalarLoop) {
  ExpectBackendMatchesScalarLoop(kernel_internal::PortableMergeMin(), "portable");
}

// An AVX-512 host runs the AVX2 backend too (it is what
// SKYDIVER_FORCE_ISA=avx2 resolves to there), so the case runs on both.
TEST(MergeMinTest, Avx2BackendMatchesScalarLoop) {
  const auto avx2 = kernel_internal::Avx2MergeMin();
  if (avx2 == nullptr || !HostRuns(SimdIsa::kAvx2)) {
    GTEST_SKIP() << "no AVX2 backend on this build or host";
  }
  ExpectBackendMatchesScalarLoop(avx2, "avx2");
}

TEST(MergeMinTest, Avx512BackendMatchesScalarLoop) {
  const auto avx512 = kernel_internal::Avx512MergeMin();
  if (avx512 == nullptr || !HostRuns(SimdIsa::kAvx512)) {
    GTEST_SKIP() << "no AVX-512 backend on this build or host";
  }
  ExpectBackendMatchesScalarLoop(avx512, "avx512");
}

TEST(MergeMinTest, ResolvedBackendMatchesScalarLoop) {
  ExpectBackendMatchesScalarLoop(&MergeMin, MergeMinBackend());
  // The best backend the resolved level allows: forcing avx2 on an
  // AVX-512 host runs the AVX2 backend.
  const SimdIsa isa = DetectSimdIsa();
  std::string want = "portable";
  if (isa == SimdIsa::kAvx512 && kernel_internal::Avx512MergeMin() != nullptr) {
    want = "avx512";
  } else if (IncludesAvx2(isa) && kernel_internal::Avx2MergeMin() != nullptr) {
    want = "avx2";
  }
  EXPECT_EQ(MergeMinBackend(), want);
}

// ---------------------------------------------------------------------------
// SigGen-IB across kernels and trees.

struct IbRun {
  SigGenResult result;
  uint64_t tiled_checks = 0;  // share of the checks the batched kernels ran
};

template <typename Tree>
IbRun RunIb(const DataSet& data, const std::vector<RowId>& columns,
            const MinHashFamily& family, const Tree& tree, DomKernel kernel) {
  const uint64_t tiled_before = DominanceCounter::TiledCount();
  auto result = SigGenIB(data, columns, family, tree, kernel);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return IbRun{std::move(result).value(), DominanceCounter::TiledCount() - tiled_before};
}

void ExpectSameResult(const SigGenResult& got, const SigGenResult& want,
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

// Runs SigGen-IB over `columns` under every kernel, on the in-memory tree
// and on its page file, and checks all six results against the scalar
// in-memory run. Returns the tiled-check share of the tiled in-memory run.
uint64_t ExpectIbParity(const DataSet& data, const std::vector<RowId>& columns,
                        const RTree& tree, const std::string& name) {
  const auto family = MinHashFamily::Create(32, data.size(), 0x1b);
  const std::string path = testing::TempDir() + "/" + name + ".pages";
  EXPECT_TRUE(DiskRTree::Write(tree, path).ok());
  auto disk = DiskRTree::Open(path);
  EXPECT_TRUE(disk.ok());
  const IbRun reference = RunIb(data, columns, family, tree, DomKernel::kScalar);
  EXPECT_EQ(reference.tiled_checks, 0u);
  uint64_t tiled_checks = 0;
  for (const DomKernel kernel : kAllKernels) {
    const IbRun memory = RunIb(data, columns, family, tree, kernel);
    ExpectSameResult(memory.result, reference.result,
                     name + " memory " + ToString(kernel));
    const IbRun from_disk = RunIb(data, columns, family, *disk, kernel);
    ExpectSameResult(from_disk.result, reference.result,
                     name + " disk " + ToString(kernel));
    EXPECT_EQ(from_disk.tiled_checks, memory.tiled_checks) << name;
    if (kernel == DomKernel::kTiled) tiled_checks = memory.tiled_checks;
  }
  std::remove(path.c_str());
  return tiled_checks;
}

using IbParityParam = std::tuple<WorkloadKind, Dim>;

class SigGenIbKernelParityTest : public testing::TestWithParam<IbParityParam> {};

TEST_P(SigGenIbKernelParityTest, KernelsAndTreesAgreeBitForBit) {
  const auto [kind, dims] = GetParam();
  const DataSet data = GenerateWorkload(kind, 4000, dims, 0x5eed + dims).value();
  const auto skyline = SkylineSFS(data).rows;
  auto tree = RTree::BulkLoad(data);
  ASSERT_TRUE(tree.ok());
  const std::string name = "ib_parity_" + std::to_string(static_cast<int>(kind)) + "_" +
                           std::to_string(dims);
  const uint64_t tiled = ExpectIbParity(data, skyline, *tree, name);
  if (skyline.size() < kTileRows) {
    EXPECT_EQ(tiled, 0u) << "no leaf can reach a full tile";
  }

  // The pooled descent numbers rows in the same depth-first layout: its
  // result equals the inline scalar run under every kernel.
  ThreadPool pool(2);
  const auto family = MinHashFamily::Create(32, data.size(), 0x1b);
  const auto base = SigGenIB(data, skyline, family, *tree, DomKernel::kScalar);
  ASSERT_TRUE(base.ok());
  for (const DomKernel kernel : kAllKernels) {
    const auto other = SigGenIB(data, skyline, family, *tree, kernel, &pool);
    ASSERT_TRUE(other.ok());
    ExpectSameResult(other.value(), base.value(), name + " pooled " + ToString(kernel));
  }
}

std::string IbParityName(const testing::TestParamInfo<IbParityParam>& info) {
  static const char* const kNames[] = {"IND", "CORR", "ANT"};
  return std::string(kNames[static_cast<int>(std::get<0>(info.param))]) + "_d" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SigGenIbKernelParityTest,
    testing::Combine(testing::Values(WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
                                     WorkloadKind::kAnticorrelated),
                     testing::Values(Dim{2}, Dim{4}, Dim{8}, Dim{12})),
    IbParityName);

class SigGenIbLeafEdgeTest : public testing::TestWithParam<size_t> {};

TEST_P(SigGenIbLeafEdgeTest, LeafWithCandidatesAroundOneTile) {
  // A tree whose root is its only leaf: every column stays a candidate down
  // to the leaf, so the leaf sees exactly `columns` candidates — one short
  // of a tile, one tile, and one past it.
  const size_t columns = GetParam();
  RTreeConfig config;
  config.page_size = 1 << 16;
  const DataSet data = GenerateIndependent(400, 4, 0x1eaf);
  auto tree = RTree::BulkLoad(data, config);
  ASSERT_TRUE(tree.ok());
  ASSERT_EQ(tree->height(), 1u) << "the root must be a leaf";
  // Column points need not be skyline points: take rows spread over the
  // data so that some dominate many points and some few.
  std::vector<RowId> cols;
  for (size_t j = 0; j < columns; ++j) cols.push_back(static_cast<RowId>(j * 6));
  const uint64_t tiled =
      ExpectIbParity(data, cols, *tree, "ib_leaf_" + std::to_string(columns));
  if (columns < kTileRows) {
    EXPECT_EQ(tiled, 0u) << "a leaf under one tile of candidates runs scalar";
  } else {
    EXPECT_EQ(tiled, columns * data.size()) << "every leaf point swept every candidate";
  }
}

INSTANTIATE_TEST_SUITE_P(AroundOneTile, SigGenIbLeafEdgeTest,
                         testing::Values(size_t{63}, size_t{64}, size_t{65}));

}  // namespace
}  // namespace skydiver
