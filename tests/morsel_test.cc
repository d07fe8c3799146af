// Tests for the morsel scheduler (parallel/morsel.h): claim protocol
// invariants, ThreadPool::SubmitBatch, and the determinism stress suite —
// every morselized operation must be bit-identical to its serial
// counterpart at every thread count and morsel size, even with random
// per-claim worker stalls scrambling the scheduling order.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dominance.h"
#include "core/data_view.h"
#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "minhash/siggen.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"
#include "stream/streaming.h"

namespace skydiver {
namespace {

// ---------------------------------------------------------------------------
// MorselQueue claim protocol
// ---------------------------------------------------------------------------

TEST(MorselQueueTest, ClaimsPartitionTheRangeInSlotOrder) {
  MorselConfig cfg;
  cfg.morsel_rows = 64;
  cfg.batch_morsels = 1;
  MorselQueue queue(1000, 4, cfg);
  EXPECT_EQ(queue.morsel_rows(), 64u);
  EXPECT_EQ(queue.batch_morsels(), 1u);
  EXPECT_EQ(queue.claim_rows(), 64u);
  ASSERT_EQ(queue.slots(), 16u);  // ceil(1000 / 64)

  MorselQueue::Claim claim;
  uint64_t expected_begin = 0;
  size_t expected_slot = 0;
  while (queue.Next(&claim)) {
    // The slot is a pure function of the row range, and single-threaded
    // draining must see the ranges in ascending, gap-free order.
    EXPECT_EQ(claim.slot, expected_slot);
    EXPECT_EQ(claim.begin, expected_begin);
    EXPECT_EQ(claim.begin, claim.slot * queue.claim_rows());
    EXPECT_GT(claim.end, claim.begin);
    expected_begin = claim.end;
    ++expected_slot;
  }
  EXPECT_EQ(expected_begin, 1000u);  // ragged tail clamped to n
  EXPECT_EQ(expected_slot, queue.slots());
  EXPECT_FALSE(queue.Next(&claim));  // exhausted forever
  EXPECT_EQ(queue.stats().claims, 16u);
  EXPECT_EQ(queue.stats().rows, 1000u);
}

TEST(MorselQueueTest, AutoBatchBoundsSlotCount) {
  // 10000 rows / 128-row morsels = 79 morsels; with 4 workers the auto
  // batch targets kClaimsPerWorker * 4 = 16 claims, so slots stay small
  // (bounding per-slot reduction state) while still covering every row.
  MorselQueue queue(10000, 4, MorselConfig{});
  EXPECT_EQ(queue.morsel_rows(), kDefaultMorselRows);
  EXPECT_LE(queue.slots(), kClaimsPerWorker * 4);
  EXPECT_GE(queue.slots() * queue.claim_rows(), 10000u);

  MorselQueue::Claim claim;
  uint64_t covered = 0;
  while (queue.Next(&claim)) covered += claim.end - claim.begin;
  EXPECT_EQ(covered, 10000u);
}

TEST(MorselQueueTest, SmallInputsGetOneSlotPerMorsel) {
  // Fewer morsels than the claim target: batch stays 1.
  MorselQueue queue(300, 8, MorselConfig{});
  EXPECT_EQ(queue.batch_morsels(), 1u);
  EXPECT_EQ(queue.slots(), 3u);  // ceil(300 / 128)
}

TEST(MorselQueueTest, EmptyRangeGrantsNothing) {
  MorselQueue queue(0, 4, MorselConfig{});
  EXPECT_EQ(queue.slots(), 0u);
  MorselQueue::Claim claim;
  EXPECT_FALSE(queue.Next(&claim));
  EXPECT_EQ(queue.stats().claims, 0u);
}

TEST(MorselQueueTest, NullPoolRunsEveryClaimInlineInSlotOrder) {
  MorselConfig cfg;
  cfg.morsel_rows = 16;
  MorselQueue queue(16 * 37 + 5, MorselWorkers(nullptr), cfg);
  std::vector<size_t> order;
  RunMorsels(nullptr, queue,
             [&](const MorselQueue::Claim& c) { order.push_back(c.slot); });
  ASSERT_EQ(order.size(), queue.slots());
  for (size_t s = 0; s < order.size(); ++s) EXPECT_EQ(order[s], s);
}

TEST(MorselQueueTest, PooledRunFoldsWorkerChecksIntoTheCaller) {
  // Counts left on the pool by an earlier user are dropped; the claims'
  // own counts reach the calling thread's counter.
  ThreadPool pool(3);
  ASSERT_TRUE(pool.Submit([] { DominanceCounter::Count() += 1000; }));
  pool.Wait();
  const std::vector<Coord> a = {0.0, 0.0};
  const std::vector<Coord> b = {1.0, 1.0};
  MorselConfig cfg;
  cfg.morsel_rows = 1;
  MorselQueue queue(50, pool.size(), cfg);
  const uint64_t before = DominanceCounter::Count();
  RunMorsels(&pool, queue, [&](const MorselQueue::Claim& c) {
    for (uint64_t r = c.begin; r < c.end; ++r) EXPECT_TRUE(Dominates(a, b));
  });
  EXPECT_EQ(DominanceCounter::Count() - before, 50u);
  EXPECT_EQ(pool.HarvestDominanceChecks().total, 0u);
}

TEST(MorselQueueTest, ConcurrentClaimsAreExactlyOnce) {
  // Hammer Next() from pool workers: every slot must be granted exactly
  // once, regardless of interleaving.
  MorselConfig cfg;
  cfg.morsel_rows = 16;
  cfg.batch_morsels = 1;
  MorselQueue queue(16 * 257, 8, cfg);
  ASSERT_EQ(queue.slots(), 257u);
  std::vector<std::atomic<uint32_t>> granted(queue.slots());
  ThreadPool pool(8);
  RunMorsels(&pool, queue, [&granted](const MorselQueue::Claim& c) {
    granted[c.slot].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t s = 0; s < granted.size(); ++s) {
    EXPECT_EQ(granted[s].load(), 1u) << "slot " << s;
  }
  EXPECT_EQ(queue.stats().claims, 257u);
}

// ---------------------------------------------------------------------------
// ThreadPool::SubmitBatch
// ---------------------------------------------------------------------------

TEST(SubmitBatchTest, RunsEveryTaskInTheBatch) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks(
      64, [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  ASSERT_TRUE(pool.SubmitBatch(tasks));
  pool.Wait();
  EXPECT_EQ(counter.load(), 64);
}

TEST(SubmitBatchTest, EmptyBatchIsTriviallyAccepted) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> tasks;
  EXPECT_TRUE(pool.SubmitBatch(tasks));
  pool.Wait();
}

TEST(SubmitBatchTest, RejectedWholesaleAfterShutdown) {
  ThreadPool pool(2);
  pool.Shutdown();
  std::atomic<int> counter{0};
  std::vector<std::function<void()>> tasks(
      8, [&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_FALSE(pool.SubmitBatch(tasks));  // all-or-nothing: none queued
  pool.Wait();
  EXPECT_EQ(counter.load(), 0);
}

// ---------------------------------------------------------------------------
// Determinism stress suite
//
// Each morselized op runs at every thread count (suite parameter) and
// several morsel geometries — one tile per claim, three tiles, and the
// default (ragged tail either way, since n is prime) — and must reproduce
// the serial result bit for bit. RunMorsels itself additionally runs with
// the stall hook injecting random per-claim delays (seeded by the claim,
// never the thread) to scramble which worker gets which claim.
// ---------------------------------------------------------------------------

// FNV-1a over a stream of u64s — digest equality is the bit-parity check.
class Fnv {
 public:
  void Add(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      hash_ = (hash_ ^ ((v >> (8 * b)) & 0xff)) * 1099511628211ULL;
    }
  }
  void Add(double v) {
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  uint64_t digest() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

uint64_t SigGenDigest(const SigGenResult& r, size_t m, size_t t) {
  Fnv fnv;
  for (uint64_t s : r.domination_scores) fnv.Add(s);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < t; ++i) fnv.Add(r.signatures.at(j, i));
  }
  return fnv.digest();
}

uint64_t SelectionDigest(const DispersionResult& r) {
  Fnv fnv;
  for (size_t i : r.selected) fnv.Add(static_cast<uint64_t>(i));
  fnv.Add(r.min_pairwise);
  fnv.Add(r.distance_evaluations);
  return fnv.digest();
}

// The morsel geometries under stress: one tile per claim, three tiles with
// auto batching, and the default. n below is prime, so every geometry ends
// in a ragged tail claim.
std::vector<MorselConfig> StressConfigs() {
  MorselConfig one_tile;
  one_tile.morsel_rows = 64;
  one_tile.batch_morsels = 1;
  MorselConfig three_tiles;
  three_tiles.morsel_rows = 192;
  return {one_tile, three_tiles, MorselConfig{}};
}

class MorselDeterminismTest : public testing::TestWithParam<size_t> {};

TEST_P(MorselDeterminismTest, RunMorselsWithRandomStallsFillsSlotsExactly) {
  // Direct scheduler stress: random per-claim stalls (a pure function of
  // the claim, never the thread) scramble the claim/worker assignment; the
  // per-slot sums must still land exactly once in their slots.
  ThreadPool pool(GetParam());
  const uint64_t n = 2113;  // prime: ragged tail under every geometry
  for (const MorselConfig& cfg : StressConfigs()) {
    MorselQueue queue(n, pool.size(), cfg);
    std::vector<uint64_t> slot_sums(queue.slots(), 0);
    const std::function<void(const MorselQueue::Claim&)> stall =
        [](const MorselQueue::Claim& c) {
          Rng rng(c.begin * 0x9e3779b97f4a7c15ULL + c.slot);
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.NextBounded(200)));
        };
    RunMorsels(
        &pool, queue,
        [&slot_sums](const MorselQueue::Claim& c) {
          for (uint64_t r = c.begin; r < c.end; ++r) slot_sums[c.slot] += r;
        },
        &stall);
    uint64_t total = 0;
    for (uint64_t s : slot_sums) total += s;
    EXPECT_EQ(total, n * (n - 1) / 2) << "morsel_rows=" << cfg.morsel_rows;
  }
}

TEST_P(MorselDeterminismTest, SkylineBitIdenticalToSerial) {
  ThreadPool pool(GetParam());
  const auto data = GenerateAnticorrelated(2113, 4, 101);
  const auto serial = SkylineSFS(data).rows;
  for (const MorselConfig& cfg : StressConfigs()) {
    // SkylineSFS derives batching from the pool internally; the morsel
    // size is the exposed knob.
    EXPECT_EQ(SkylineSFS(data, DomKernel::kSimd, &pool, cfg.morsel_rows).rows, serial)
        << "threads=" << GetParam() << " morsel_rows=" << cfg.morsel_rows;
  }
}

TEST_P(MorselDeterminismTest, SigGenIfBitIdenticalToSerial) {
  ThreadPool pool(GetParam());
  const auto data = GenerateIndependent(2113, 5, 103);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(48, data.size(), 107);
  const auto serial = SigGenIF(data, skyline, family).value();
  const uint64_t want = SigGenDigest(serial, skyline.size(), family.size());
  for (const MorselConfig& cfg : StressConfigs()) {
    const auto parallel =
        SigGenIF(data, skyline, family, DomKernel::kSimd, &pool, cfg.morsel_rows).value();
    EXPECT_EQ(SigGenDigest(parallel, skyline.size(), family.size()), want)
        << "threads=" << GetParam() << " morsel_rows=" << cfg.morsel_rows;
  }
}

TEST_P(MorselDeterminismTest, ShardedSkylineBitIdenticalToSerial) {
  ThreadPool pool(GetParam());
  const auto data = GenerateIndependent(2113, 4, 109);
  const DataView view(data);
  for (size_t shards : {3u, 8u}) {
    const auto serial = SkylineSharded(view, shards, DomKernel::kTiled);
    const auto pooled = SkylineSharded(view, shards, DomKernel::kTiled, &pool);
    EXPECT_EQ(pooled.rows, serial.rows)
        << "threads=" << GetParam() << " shards=" << shards;
    // Slot = shard id fixes the merge order, so even the dominance-check
    // accounting of the merge phase is deterministic.
    EXPECT_EQ(pooled.dominance_checks, serial.dominance_checks)
        << "threads=" << GetParam() << " shards=" << shards;
  }
}

TEST_P(MorselDeterminismTest, SelectionBitIdenticalToSerial) {
  ThreadPool pool(GetParam());
  const auto data = GenerateIndependent(2113, 6, 113);
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(32, data.size(), 127);
  const auto sig = SigGenIF(data, skyline, family).value();
  const size_t m = skyline.size();
  ASSERT_GE(m, 24u);
  // MinHash-estimated Jaccard distance, plus a random per-pair stall (a
  // pure function of the pair) so worker timing varies between runs.
  const DistanceFn distance = [&sig](size_t a, size_t b) {
    Rng rng(a * 2654435761ULL + b);
    std::this_thread::sleep_for(std::chrono::nanoseconds(rng.NextBounded(2000)));
    return 1.0 - sig.signatures.EstimatedSimilarity(a, b);
  };
  for (size_t k : {1u, 2u, 12u}) {
    const auto serial = SelectDiverseSet(m, k, distance, sig.domination_scores);
    ASSERT_TRUE(serial.ok());
    const uint64_t want = SelectionDigest(serial.value());
    for (const MorselConfig& cfg : StressConfigs()) {
      const auto parallel =
          SelectDiverseSet(m, k, distance, sig.domination_scores, &pool, cfg.morsel_rows);
      ASSERT_TRUE(parallel.ok());
      EXPECT_EQ(SelectionDigest(parallel.value()), want)
          << "threads=" << GetParam() << " k=" << k
          << " morsel_rows=" << cfg.morsel_rows;
    }
  }
}

TEST_P(MorselDeterminismTest, StreamingStoreScanBitIdenticalToSerial) {
  ThreadPool pool(GetParam());
  const auto data = GenerateIndependent(1500, 3, 131);
  StreamingSkyDiver serial(3, 24, 137, 1u << 14, DomKernel::kTiled);
  StreamingSkyDiver pooled(3, 24, 137, 1u << 14, DomKernel::kTiled, &pool);
  for (RowId r = 0; r < data.size(); ++r) {
    ASSERT_TRUE(serial.Insert(data.row(r)).ok());
    ASSERT_TRUE(pooled.Insert(data.row(r)).ok());
  }
  const auto a = serial.ExportFingerprints().value();
  const auto b = pooled.ExportFingerprints().value();
  ASSERT_EQ(b.skyline, a.skyline);
  ASSERT_EQ(b.domination_scores, a.domination_scores);
  for (size_t j = 0; j < a.skyline.size(); ++j) {
    for (size_t i = 0; i < 24; ++i) {
      ASSERT_EQ(b.signatures.at(j, i), a.signatures.at(j, i))
          << "threads=" << GetParam() << " col " << j << " slot " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PoolSizes, MorselDeterminismTest,
                         testing::Values<size_t>(1, 2, 4, 8),
                         [](const testing::TestParamInfo<size_t>& info) {
                           return "threads" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Selection validation parity with the serial entry point
// ---------------------------------------------------------------------------

TEST(ParallelSelectionTest, ValidatesLikeSerial) {
  ThreadPool pool(2);
  const DistanceFn distance = [](size_t, size_t) { return 1.0; };
  const ScoreFn score = [](size_t) { return 0.0; };
  EXPECT_TRUE(SelectDiverseSet(0, 1, distance, score, &pool)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SelectDiverseSet(5, 0, distance, score, &pool)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(SelectDiverseSet(5, 6, distance, score, &pool)
                  .status()
                  .IsInvalidArgument());
  const std::vector<uint64_t> short_scores(3, 1);
  EXPECT_TRUE(SelectDiverseSet(5, 2, distance, short_scores, &pool)
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace skydiver
