// Unit tests for src/parallel: thread pool semantics and the exact
// serial-equivalence of the parallel skyline / signature generation.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include <cmath>

#include "core/dominance.h"
#include "core/gamma.h"
#include "datagen/generators.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(
        pool.Submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, SubmitAfterShutdownIsRejected) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();
  EXPECT_EQ(counter.load(), 1);  // queued work drained before join
  // Submission after shutdown must be rejected, not silently queued.
  EXPECT_FALSE(pool.Submit([&counter] { counter.fetch_add(1); }));
  pool.Shutdown();  // idempotent
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DestructionDrainsQueuedButUnstartedTasks) {
  // Regression: destroying a pool with tasks still sitting in the queue
  // must run them all (workers drain the queue before exiting), neither
  // hanging nor dropping work.
  std::atomic<int> counter{0};
  std::atomic<bool> release{false};  // outlives the pool (workers read it)
  {
    ThreadPool pool(1);  // single worker => a slow head task queues the rest
    EXPECT_TRUE(pool.Submit([&] {
      while (!release.load()) std::this_thread::yield();
      counter.fetch_add(1);
    }));
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(pool.Submit([&counter] { counter.fetch_add(1); }));
    }
    release.store(true);
    // Destructor runs here with (up to) 50 queued-but-unstarted tasks.
  }
  EXPECT_EQ(counter.load(), 51);
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(3);
  const uint64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.ParallelFor(n, 8, [&](uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHandlesDegenerateRanges) {
  ThreadPool pool(2);
  int calls = 0;
  std::mutex mu;
  pool.ParallelFor(0, 4, [&](uint64_t, uint64_t) {
    std::lock_guard<std::mutex> lock(mu);
    ++calls;
  });
  EXPECT_GE(calls, 1);  // single empty chunk is fine
  pool.ParallelFor(2, 100, [&](uint64_t begin, uint64_t end) {
    EXPECT_LE(end - begin, 2u);
  });
}

// Hammers the Submit/harvest protocol from three sides at once — the
// submitting thread, the pool workers, and a concurrent harvester thread —
// so a TSan build sees every pairing the protocol allows (this is the
// hammer test referenced by the protocol comment in parallel/thread_pool.h).
// Dominance counts must be conserved: whatever the concurrent harvester
// drains plus the final post-Wait harvest equals exactly the number of
// tests the tasks performed, with nothing lost or double-counted.
TEST(ThreadPoolTest, ConcurrentHarvestConservesCounts) {
  ThreadPool pool(4);
  (void)pool.HarvestDominanceChecks();  // clear leftovers from earlier tests

  constexpr uint64_t kTasks = 200;
  constexpr uint64_t kTestsPerTask = 64;
  const std::vector<Coord> a{1.0, 2.0};
  const std::vector<Coord> b{2.0, 3.0};

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> drained_total{0};
  std::atomic<uint64_t> drained_tiled{0};
  // A raw thread on purpose: the harvester must run outside the pool it is
  // harvesting.
  std::thread harvester([&] {  // skylint:allow(determinism)
    while (!stop.load(std::memory_order_acquire)) {
      const DominanceHarvest h = pool.HarvestDominanceChecks();
      drained_total.fetch_add(h.total, std::memory_order_relaxed);
      drained_tiled.fetch_add(h.tiled, std::memory_order_relaxed);
    }
  });

  for (uint64_t i = 0; i < kTasks; ++i) {
    ASSERT_TRUE(pool.Submit([&a, &b] {
      for (uint64_t k = 0; k < kTestsPerTask; ++k) (void)Dominates(a, b);
    }));
  }
  pool.Wait();
  stop.store(true, std::memory_order_release);
  harvester.join();

  const DominanceHarvest rest = pool.HarvestDominanceChecks();
  EXPECT_EQ(drained_total.load() + rest.total, kTasks * kTestsPerTask);
  // Only scalar Dominates() ran; the tiled share must stay zero.
  EXPECT_EQ(drained_tiled.load() + rest.tiled, 0u);
}

class ParallelEquivalenceTest : public testing::TestWithParam<size_t> {};

TEST_P(ParallelEquivalenceTest, SkylineMatchesSerial) {
  ThreadPool pool(GetParam());
  for (WorkloadKind kind : {WorkloadKind::kIndependent, WorkloadKind::kAnticorrelated,
                            WorkloadKind::kForestCoverLike}) {
    const auto data = GenerateWorkload(kind, 4000, 3, 77).value();
    EXPECT_EQ(SkylineSFS(data, DomKernel::kSimd, &pool).rows, SkylineSFS(data).rows)
        << WorkloadKindName(kind);
  }
}

TEST_P(ParallelEquivalenceTest, SigGenMatchesSerialBitForBit) {
  ThreadPool pool(GetParam());
  const auto data = GenerateIndependent(3000, 4, 79);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(64, data.size(), 81);
  const auto serial = SigGenIF(data, skyline, family).value();
  const auto parallel = SigGenIF(data, skyline, family, DomKernel::kSimd, &pool).value();
  ASSERT_EQ(parallel.domination_scores, serial.domination_scores);
  for (size_t j = 0; j < skyline.size(); ++j) {
    for (size_t i = 0; i < family.size(); ++i) {
      ASSERT_EQ(parallel.signatures.at(j, i), serial.signatures.at(j, i))
          << "column " << j << " slot " << i;
    }
  }
  EXPECT_EQ(parallel.io.page_faults, serial.io.page_faults);
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, ParallelEquivalenceTest,
                         testing::Values<size_t>(1, 2, 4, 7),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ParallelOpsTest, ParallelIbDeterministicAcrossThreadCounts) {
  const auto data = GenerateIndependent(4000, 3, 87);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(64, data.size(), 89);
  const auto tree = RTree::BulkLoad(data).value();
  ThreadPool pool1(1);
  const auto base = SigGenIB(data, skyline, family, tree, DomKernel::kSimd, &pool1).value();
  for (size_t threads : {2u, 5u}) {
    ThreadPool pool(threads);
    const auto result =
        SigGenIB(data, skyline, family, tree, DomKernel::kSimd, &pool).value();
    ASSERT_EQ(result.domination_scores, base.domination_scores) << threads;
    for (size_t j = 0; j < skyline.size(); ++j) {
      for (size_t i = 0; i < 64; ++i) {
        ASSERT_EQ(result.signatures.at(j, i), base.signatures.at(j, i))
            << threads << " threads, col " << j << " slot " << i;
      }
    }
  }
}

TEST(ParallelOpsTest, ParallelIbScoresMatchSerialAndEstimatesTrackExact) {
  const auto data = GenerateIndependent(4000, 4, 91);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(256, data.size(), 93);
  const auto tree = RTree::BulkLoad(data).value();
  ThreadPool pool(3);
  const auto parallel =
      SigGenIB(data, skyline, family, tree, DomKernel::kSimd, &pool).value();
  const auto serial = SigGenIB(data, skyline, family, tree).value();
  // One depth-first row layout at every thread count: the pooled result is
  // the inline one, bit for bit.
  EXPECT_EQ(parallel.domination_scores, serial.domination_scores);
  EXPECT_EQ(parallel.dominance_checks, serial.dominance_checks);
  EXPECT_EQ(parallel.io.page_reads, serial.io.page_reads);
  for (size_t j = 0; j < skyline.size(); ++j) {
    for (size_t i = 0; i < family.size(); ++i) {
      ASSERT_EQ(parallel.signatures.at(j, i), serial.signatures.at(j, i))
          << "col " << j << " slot " << i;
    }
  }
  // And the estimates track the exact Jaccard similarities.
  const GammaSets gammas = GammaSets::Compute(data, skyline);
  const size_t m = skyline.size();
  double err_sum = 0.0;
  size_t pairs = 0;
  for (size_t a = 0; a < m; ++a) {
    for (size_t b = a + 1; b < m; ++b) {
      err_sum += std::fabs(parallel.signatures.EstimatedSimilarity(a, b) -
                           gammas.JaccardSimilarity(a, b));
      ++pairs;
    }
  }
  EXPECT_LT(err_sum / static_cast<double>(pairs), 0.035);
}

TEST(ParallelOpsTest, ParallelIbValidates) {
  ThreadPool pool(2);
  const auto data = GenerateIndependent(200, 2, 95);
  const auto other = GenerateIndependent(100, 2, 95);
  const auto family = MinHashFamily::Create(8, data.size(), 97);
  const auto tree = RTree::BulkLoad(other).value();
  EXPECT_TRUE(SigGenIB(data, {0}, family, tree, DomKernel::kSimd, &pool)
                  .status()
                  .IsInvalidArgument());
}

TEST(ParallelOpsTest, SigGenValidatesInputs) {
  ThreadPool pool(2);
  const auto data = GenerateIndependent(100, 2, 83);
  const auto family = MinHashFamily::Create(8, data.size(), 85);
  EXPECT_TRUE(SigGenIF(data, {}, family, DomKernel::kSimd, &pool)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SigGenIF(data, {999}, family, DomKernel::kSimd, &pool)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skydiver
