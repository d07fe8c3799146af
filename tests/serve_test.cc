// Serving-layer tests: the Runtime pool-sharing contract (the ExecContext
// lazy-pool race regression), snapshot build/adopt validation, BandingSeed
// determinism, SkyServer cache accounting, and — the load-bearing part —
// concurrent parity: the same query schedule answered from 1 and from 8
// client threads against one shared snapshot returns bit-identical
// results. This suite also runs in the TSan CI lane, which is what turns
// "bit-identical" from an assertion into a freedom-from-data-races proof.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lru_cache.h"
#include "datagen/generators.h"
#include "engine/planner.h"
#include "engine/runtime.h"
#include "engine/snapshot.h"
#include "parallel/thread_pool.h"
#include "serve/serve.h"
#include "skydiver/session.h"
#include "stream/streaming.h"

namespace skydiver {
namespace {

std::shared_ptr<const SkySnapshot> BuildSnapshot(const DataSet& data, size_t t,
                                                 uint64_t seed) {
  SkyDiverConfig config;
  config.signature_size = t;
  config.seed = seed;
  auto snapshot = SkySnapshot::Build(data, config);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return snapshot.value();
}

// A mixed MH / LSH / varying-k schedule with deliberate repeats (cache
// exercise) spanning both distance families.
std::vector<QuerySpec> MixedSchedule() {
  std::vector<QuerySpec> schedule;
  auto mh = [](size_t k) {
    QuerySpec s;
    s.mode = SelectMode::kMinHash;
    s.k = k;
    return s;
  };
  auto lsh = [](size_t k, double threshold, size_t buckets) {
    QuerySpec s;
    s.mode = SelectMode::kLsh;
    s.k = k;
    s.lsh_threshold = threshold;
    s.lsh_buckets = buckets;
    return s;
  };
  for (int round = 0; round < 4; ++round) {
    schedule.push_back(mh(3));
    schedule.push_back(mh(8));
    schedule.push_back(lsh(5, 0.2, 20));
    schedule.push_back(lsh(5, 0.5, 20));
    schedule.push_back(lsh(9, 0.2, 20));  // same banding as (5, 0.2, 20)
    schedule.push_back(mh(3));            // immediate repeat
    schedule.push_back(lsh(5, 0.2, 16));
  }
  return schedule;
}

void ExpectSameResult(const QueryResult& a, const QueryResult& b) {
  EXPECT_EQ(a.selected, b.selected);
  EXPECT_EQ(a.rows, b.rows);
  EXPECT_EQ(a.objective, b.objective);  // bitwise: same code path, same bits
  EXPECT_EQ(a.lsh_memory_bytes, b.lsh_memory_bytes);
}

// ---------------------------------------------------------------------------
// Runtime (the ExecContext::pool() lazy-creation race, fixed by eagerness)

TEST(RuntimeTest, PoolIsEagerAndSharedAcrossConcurrentReaders) {
  const auto runtime = Runtime::Create(2);
  ASSERT_NE(runtime->pool(), nullptr);
  ThreadPool* expected = runtime->pool();

  // Hammer pool() from many concurrent readers. Pre-fix, the first two
  // callers would race on lazy construction; now every reader must observe
  // the one pool constructed before the Runtime was published. TSan
  // certifies the absence of the old race.
  constexpr size_t kReaders = 16;
  std::vector<ThreadPool*> seen(kReaders, nullptr);
  {
    ThreadPool readers(8);
    for (size_t i = 0; i < kReaders; ++i) {
      ASSERT_TRUE(readers.Submit([&runtime, &seen, i] { seen[i] = runtime->pool(); }));
    }
    readers.Wait();
  }
  for (ThreadPool* p : seen) EXPECT_EQ(p, expected);
}

TEST(RuntimeTest, SerialRuntimeHasNoPool) {
  const auto runtime = Runtime::Create(0);
  EXPECT_EQ(runtime->pool(), nullptr);
  EXPECT_EQ(runtime->threads(), 0u);
}

// ---------------------------------------------------------------------------
// Snapshot build / adopt validation

TEST(SnapshotTest, BuildMatchesSessionFingerprints) {
  const DataSet data = GenerateIndependent(2000, 3, 17);
  const auto snapshot = BuildSnapshot(data, 32, 7);
  const auto session = SkyDiverSession::Create(data, 32, 7).value();
  EXPECT_EQ(snapshot->skyline(), session.skyline());
  EXPECT_EQ(snapshot->domination_scores(), session.domination_scores());
  EXPECT_TRUE(snapshot->frozen());
  EXPECT_EQ(snapshot->skyline_tiles().size(), snapshot->skyline().size());
  EXPECT_TRUE(snapshot->skyline_tiles().frozen());
}

TEST(SnapshotTest, AdoptRejectsStructurallyBrokenInputs) {
  const DataSet data = GenerateIndependent(500, 3, 23);
  const auto good = BuildSnapshot(data, 16, 5);
  const size_t m = good->skyline().size();

  // Score count mismatch.
  auto scores = good->domination_scores();
  scores.pop_back();
  EXPECT_FALSE(SkySnapshot::Adopt(good->skyline(), scores, good->signatures(), 5).ok());

  // Non-ascending rows.
  auto rows = good->skyline();
  ASSERT_GE(m, 2u);
  std::swap(rows.front(), rows.back());
  EXPECT_FALSE(SkySnapshot::Adopt(rows, good->domination_scores(), good->signatures(), 5)
                   .ok());

  // Empty skyline.
  EXPECT_FALSE(SkySnapshot::Adopt({}, {}, SignatureMatrix(16, 0), 5).ok());

  // Row out of range for the supplied dataset.
  rows = good->skyline();
  rows.back() = data.size() + 100;
  EXPECT_FALSE(SkySnapshot::Adopt(rows, good->domination_scores(), good->signatures(), 5,
                                  &data)
                   .ok());
}

TEST(SnapshotTest, SelectValidatesK) {
  const DataSet data = GenerateIndependent(500, 3, 29);
  const auto snapshot = BuildSnapshot(data, 16, 5);
  QueryContext ctx(Runtime::Create(0), CostModel{}, 0);
  QuerySpec spec;
  spec.k = 0;
  EXPECT_FALSE(snapshot->Select(spec, ctx).ok());
  spec.k = snapshot->skyline().size() + 1;
  EXPECT_FALSE(snapshot->Select(spec, ctx).ok());
}

// ---------------------------------------------------------------------------
// BandingSeed: the LSH banding salt, keyed by (snapshot seed, resolved
// banding, shape) — not by k and not by the raw ξ — and QuerySeed, the
// per-query context seed

LshParams Banding(size_t zones, size_t rows, size_t buckets) {
  LshParams p;
  p.zones = zones;
  p.rows_per_zone = rows;
  p.buckets_per_zone = buckets;
  return p;
}

QuerySpec LshSpec(size_t k, double threshold, size_t buckets) {
  QuerySpec s;
  s.mode = SelectMode::kLsh;
  s.k = k;
  s.lsh_threshold = threshold;
  s.lsh_buckets = buckets;
  return s;
}

TEST(BandingSeedTest, DeterministicAndSensitiveToEveryKnob) {
  const LshParams banding = Banding(50, 2, 20);
  const SkyQuery identity;
  EXPECT_EQ(BandingSeed(42, banding, identity), BandingSeed(42, banding, identity));
  EXPECT_NE(BandingSeed(42, banding, identity), BandingSeed(43, banding, identity));
  EXPECT_NE(BandingSeed(42, banding, identity),
            BandingSeed(42, Banding(25, 4, 20), identity));
  EXPECT_NE(BandingSeed(42, banding, identity),
            BandingSeed(42, Banding(50, 3, 20), identity));
  EXPECT_NE(BandingSeed(42, banding, identity),
            BandingSeed(42, Banding(50, 2, 16), identity));
  SkyQuery shaped;
  shaped.shards = 2;
  EXPECT_NE(BandingSeed(42, banding, identity), BandingSeed(42, banding, shaped));
  SkyQuery other_shape;
  other_shape.project = {0, 2};
  EXPECT_NE(BandingSeed(42, banding, shaped), BandingSeed(42, banding, other_shape));
  // The shape is canonicalized: shards = 0 spells the identity.
  SkyQuery zero_shards;
  zero_shards.shards = 0;
  EXPECT_EQ(BandingSeed(42, banding, identity), BandingSeed(42, banding, zero_shards));
}

TEST(BandingSeedTest, SpecsResolvingToOneBandingShareASalt) {
  // k and a ξ below ChooseZones' resolution do not reach the salt.
  const QuerySpec base = LshSpec(5, 0.2, 20);
  for (const QuerySpec& spec :
       {LshSpec(9, 0.2, 20), LshSpec(5, 0.2 + 0x1p-30, 20), LshSpec(20, 0.21, 20)}) {
    const auto a = Planner::ResolveSelect(base, 100);
    const auto b = Planner::ResolveSelect(spec, 100);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->lsh.zones, b->lsh.zones);
    ASSERT_EQ(a->lsh.rows_per_zone, b->lsh.rows_per_zone);
    EXPECT_EQ(BandingSeed(42, a->lsh, base.query), BandingSeed(42, b->lsh, spec.query));
  }
}

TEST(BandingSeedTest, NonLshSpecsNormalizeAwayTheLshKnobs) {
  QuerySpec a;
  a.mode = SelectMode::kMinHash;
  a.k = 5;
  a.lsh_threshold = 0.2;
  QuerySpec b = a;
  b.lsh_threshold = 0.9;  // meaningless under kMinHash
  b.lsh_buckets = 123;
  EXPECT_EQ(QuerySeed(42, a), QuerySeed(42, b));
  EXPECT_EQ(BandingSeed(42, a), QuerySeed(42, a));  // the former name
  b.k = 6;
  EXPECT_NE(QuerySeed(42, a), QuerySeed(42, b));
}

TEST(SessionTest, SelectLshIsDeterministicPerArgumentTuple) {
  const DataSet data = GenerateIndependent(1500, 3, 11);
  const auto session = SkyDiverSession::Create(data, 32, 9).value();
  const auto first = session.SelectLsh(5, 0.2, 20).value();
  const auto again = session.SelectLsh(5, 0.2, 20).value();
  EXPECT_EQ(first, again);
  // Calls differing only in k share one banding, so the greedy's prefix
  // property carries over: the 5 picks open the 7-pick answer.
  const auto k7 = session.SelectLsh(7, 0.2, 20).value();
  EXPECT_EQ(k7, session.SelectLsh(7, 0.2, 20).value());
  EXPECT_EQ(std::vector<RowId>(k7.begin(), k7.begin() + 5), first);
}

// ---------------------------------------------------------------------------
// Concurrent parity: many clients, one snapshot, bit-identical answers

TEST(ServeTest, ConcurrentClientsMatchSerialBitForBit) {
  const DataSet data = GenerateIndependent(4000, 3, 31);
  const auto snapshot = BuildSnapshot(data, 32, 13);
  const auto schedule = MixedSchedule();

  // Serial reference: every slot answered directly, no server, no cache.
  std::vector<QueryResult> reference;
  reference.reserve(schedule.size());
  for (const QuerySpec& spec : schedule) {
    QueryContext ctx(Runtime::Create(0), CostModel{},
                     BandingSeed(snapshot->seed(), spec));
    reference.push_back(snapshot->Select(spec, ctx).value());
  }

  for (const size_t clients : {size_t{1}, size_t{8}}) {
    SkyServer server(snapshot);  // caching on: hits must also be identical
    const auto report = ServeLoop(server, schedule, clients);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    ASSERT_EQ(report->results.size(), schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      ASSERT_NE(report->results[i], nullptr);
      ExpectSameResult(*report->results[i], reference[i]);
    }
    EXPECT_EQ(report->stats.queries, schedule.size());
  }

  // And with the result cache disabled: every query recomputes, results
  // still identical across 8 racing clients.
  ServeOptions uncached;
  uncached.result_cache_capacity = 0;
  SkyServer server(snapshot, uncached);
  const auto report = ServeLoop(server, schedule, 8);
  ASSERT_TRUE(report.ok());
  for (size_t i = 0; i < schedule.size(); ++i) {
    ExpectSameResult(*report->results[i], reference[i]);
  }
  EXPECT_EQ(report->stats.result_hits, 0u);
  EXPECT_EQ(report->stats.result_misses, schedule.size());
}

TEST(ServeTest, ServerAnswersMatchSessionQueries) {
  const DataSet data = GenerateIndependent(2500, 4, 37);
  const auto session = SkyDiverSession::Create(data, 32, 21).value();
  SkyServer server(session.snapshot());

  QuerySpec mh;
  mh.mode = SelectMode::kMinHash;
  mh.k = 7;
  EXPECT_EQ(server.Query(mh).value()->rows, session.SelectMinHash(7).value());

  QuerySpec lsh;
  lsh.mode = SelectMode::kLsh;
  lsh.k = 7;
  lsh.lsh_threshold = 0.3;
  lsh.lsh_buckets = 24;
  EXPECT_EQ(server.Query(lsh).value()->rows, session.SelectLsh(7, 0.3, 24).value());
}

TEST(ServeTest, LoopPropagatesQueryFailures) {
  const DataSet data = GenerateIndependent(500, 3, 41);
  SkyServer server(BuildSnapshot(data, 16, 3));
  QuerySpec bad;
  bad.k = 1u << 20;  // exceeds any skyline
  const std::vector<QuerySpec> schedule{bad};
  EXPECT_FALSE(ServeLoop(server, schedule, 2).ok());
  EXPECT_FALSE(ServeLoop(server, schedule, 0).ok());  // zero clients rejected
}

// ---------------------------------------------------------------------------
// Cache accounting

TEST(ServeTest, ResultAndPlanCacheAccounting) {
  const DataSet data = GenerateIndependent(1500, 3, 43);
  SkyServer server(BuildSnapshot(data, 32, 5));

  QuerySpec mh;
  mh.mode = SelectMode::kMinHash;
  mh.k = 4;
  ASSERT_TRUE(server.Query(mh).ok());  // plan miss, result miss
  ASSERT_TRUE(server.Query(mh).ok());  // result hit (plan cache not consulted)

  QuerySpec lsh;
  lsh.mode = SelectMode::kLsh;
  lsh.k = 4;
  lsh.lsh_threshold = 0.2;
  lsh.lsh_buckets = 20;
  ASSERT_TRUE(server.Query(lsh).ok());  // plan miss, result miss

  QuerySpec lsh_other_k = lsh;
  lsh_other_k.k = 6;
  ASSERT_TRUE(server.Query(lsh_other_k).ok());  // plan HIT (same ξ, B), result miss

  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.queries, 4u);
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 3u);
  EXPECT_EQ(stats.plan_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 2u);  // one MH resolution, one LSH resolution
}

TEST(ServeTest, NormalizedSpecsShareOneResultCacheEntry) {
  const DataSet data = GenerateIndependent(1000, 3, 47);
  SkyServer server(BuildSnapshot(data, 16, 5));
  QuerySpec a;
  a.mode = SelectMode::kMinHash;
  a.k = 4;
  a.lsh_threshold = 0.2;
  QuerySpec b = a;
  b.lsh_threshold = 0.7;  // dead knob under kMinHash
  ASSERT_TRUE(server.Query(a).ok());
  ASSERT_TRUE(server.Query(b).ok());
  EXPECT_EQ(server.stats().result_hits, 1u);
}

TEST(ServeTest, FifoEvictionBoundsTheResultCache) {
  const DataSet data = GenerateIndependent(1000, 3, 53);
  ServeOptions options;
  options.result_cache_capacity = 1;
  SkyServer server(BuildSnapshot(data, 16, 5), options);

  QuerySpec k3, k4;
  k3.k = 3;
  k4.k = 4;
  ASSERT_TRUE(server.Query(k3).ok());  // miss, cached
  ASSERT_TRUE(server.Query(k4).ok());  // miss, evicts k3
  ASSERT_TRUE(server.Query(k3).ok());  // miss again (was evicted)
  ASSERT_TRUE(server.Query(k3).ok());  // hit
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.result_misses, 3u);
  EXPECT_EQ(stats.result_hits, 1u);
}

TEST(ServeTest, LruTouchOnHitProtectsHotEntriesFromChurn) {
  const DataSet data = GenerateIndependent(1000, 3, 53);
  ServeOptions options;
  options.result_cache_capacity = 2;
  SkyServer server(BuildSnapshot(data, 16, 5), options);

  QuerySpec k3, k4, k5;
  k3.k = 3;
  k4.k = 4;
  k5.k = 5;
  ASSERT_TRUE(server.Query(k3).ok());  // miss, cached {k3}
  ASSERT_TRUE(server.Query(k4).ok());  // miss, cached {k4, k3}
  ASSERT_TRUE(server.Query(k3).ok());  // hit — touches k3 to the front
  ASSERT_TRUE(server.Query(k5).ok());  // miss, evicts the LRU entry: k4
  ASSERT_TRUE(server.Query(k3).ok());  // hit — k3 survived the churn
  ASSERT_TRUE(server.Query(k4).ok());  // miss — k4 was the one evicted
  const ServeStats stats = server.stats();
  EXPECT_EQ(stats.result_hits, 2u);
  EXPECT_EQ(stats.result_misses, 4u);
}

// ---------------------------------------------------------------------------
// Query-shaped serving

TEST(ServeTest, SingleSnapshotServerRejectsShapedSpecs) {
  const DataSet data = GenerateIndependent(800, 3, 61);
  SkyServer server(BuildSnapshot(data, 16, 5));
  QuerySpec shaped;
  shaped.k = 3;
  shaped.query.shards = 2;
  EXPECT_FALSE(server.Query(shaped).ok());  // no dataset to rebuild from
  QuerySpec identity;
  identity.k = 3;
  EXPECT_TRUE(server.Query(identity).ok());
}

TEST(ServeTest, DataBackedServerBuildsAndCachesShapedSnapshots) {
  const DataSet data = GenerateIndependent(1500, 3, 43);
  SkyDiverConfig config;
  config.signature_size = 16;
  config.seed = 5;
  auto server = SkyServer::Create(data, config);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  QuerySpec identity;
  identity.k = 3;
  ASSERT_TRUE((*server)->Query(identity).ok());
  EXPECT_EQ((*server)->stats().snapshot_misses, 0u);  // identity is pinned

  QuerySpec shaped;
  shaped.k = 2;
  shaped.query.lo = {0.0, 0.0, 0.0};
  shaped.query.hi = {0.6, 1.0, 1.0};
  shaped.query.project = {0, 1};
  const auto first = (*server)->Query(shaped);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  for (const RowId row : (*first)->rows) {
    EXPECT_LE(data.at(row, 0), 0.6);  // selection came from the boxed skyline
  }

  QuerySpec shaped_other_k = shaped;
  shaped_other_k.k = 3;
  ASSERT_TRUE((*server)->Query(shaped_other_k).ok());  // same shaped snapshot
  const ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.snapshot_misses, 1u);
  EXPECT_EQ(stats.snapshot_hits, 1u);

  const auto replay = (*server)->Query(shaped);  // result-cache hit
  ASSERT_TRUE(replay.ok());
  ExpectSameResult(**first, **replay);
}

// Lock-order stress for the data-backed server: 8 clients hammer a
// snapshot cache two slots deep with six query shapes, so every round
// builds, evicts, and rebuilds shaped snapshots while the result cache (4
// slots) churns on top. Query() takes mutex_ for bookkeeping, drops it to
// build Phase 1, and retakes it to publish — this schedule drives that
// lock/unlock/relock dance from every client at once, and the TSan CI lane
// (which runs serve_test) turns any ordering hole the annotations missed
// into a hard failure. Results must still match a serial replay bit for
// bit.
TEST(ServeTest, EightClientsHammerTheShapedSnapshotCacheLockDance) {
  const DataSet data = GenerateIndependent(1200, 3, 67);
  SkyDiverConfig config;
  config.signature_size = 16;
  config.seed = 9;
  ServeOptions options;
  options.snapshot_cache_capacity = 2;  // 6 shapes → constant eviction churn
  options.result_cache_capacity = 4;

  std::vector<QuerySpec> shapes;
  for (const double hi0 : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    QuerySpec s;
    s.k = 2;
    s.query.lo = {0.0, 0.0, 0.0};
    s.query.hi = {hi0, 1.0, 1.0};
    shapes.push_back(s);
  }
  QuerySpec projected;
  projected.k = 2;
  projected.query.project = {0, 1};
  shapes.push_back(projected);
  QuerySpec identity;  // pinned snapshot: never competes for cache slots
  identity.k = 3;
  shapes.push_back(identity);

  std::vector<QuerySpec> schedule;
  for (int round = 0; round < 6; ++round) {
    schedule.insert(schedule.end(), shapes.begin(), shapes.end());
  }

  // Serial reference from a second, identically-configured server.
  auto reference_server = SkyServer::Create(data, config, {}, options);
  ASSERT_TRUE(reference_server.ok()) << reference_server.status().ToString();
  std::vector<QueryResult> reference;
  reference.reserve(schedule.size());
  for (const QuerySpec& spec : schedule) {
    const auto result = (*reference_server)->Query(spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    reference.push_back(**result);
  }

  auto server = SkyServer::Create(data, config, {}, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  constexpr size_t kClients = 8;
  // Slot i belongs to client i % kClients — disjoint slot sets, so the
  // results vector needs no synchronization beyond the pool's join; all
  // assertions happen back on the main thread.
  std::vector<std::shared_ptr<const QueryResult>> results(schedule.size());
  {
    ThreadPool clients(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      ASSERT_TRUE(clients.Submit([&, c] {
        for (size_t i = c; i < schedule.size(); i += kClients) {
          auto result = (*server)->Query(schedule[i]);
          if (result.ok()) results[i] = std::move(result).value();
        }
      }));
    }
    clients.Wait();
  }
  for (size_t i = 0; i < schedule.size(); ++i) {
    ASSERT_NE(results[i], nullptr) << "slot " << i << " failed";
    ExpectSameResult(*results[i], reference[i]);
  }
  const ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.queries, schedule.size());
  // Every one of the 6 shaped specs starts uncached, so each must record at
  // least one snapshot miss (a Phase-1 build). Anything beyond 6 is
  // eviction-driven rebuild churn — the round-robin over 6 shapes through a
  // 2-slot LRU thrashes by construction, which is the point.
  EXPECT_GE(stats.snapshot_misses, 6u);
}

TEST(ServeTest, CreateRejectsAShapedBaseConfig) {
  const DataSet data = GenerateIndependent(500, 2, 7);
  SkyDiverConfig config;
  config.signature_size = 16;
  config.query.shards = 4;  // the base config must be the identity shape
  EXPECT_FALSE(SkyServer::Create(data, config).ok());
}

// ---------------------------------------------------------------------------
// Streaming hand-off

TEST(ServeTest, StreamSnapshotMatchesBatchBuild) {
  const DataSet data = GenerateIndependent(1200, 3, 59);
  // max_points = n so the stream's hash family (prime > universe) is the
  // batch family, making the two snapshots comparable bit-for-bit.
  StreamingSkyDiver stream(3, 16, 77, data.size());
  for (RowId r = 0; r < data.size(); ++r) {
    ASSERT_TRUE(stream.Insert(data.row(r)).ok());
  }
  const auto from_stream = SnapshotOfStream(stream).value();

  SkyDiverConfig config;
  config.signature_size = 16;
  config.seed = 77;
  const auto from_batch = SkySnapshot::Build(data, config).value();

  EXPECT_EQ(from_stream->skyline(), from_batch->skyline());
  EXPECT_EQ(from_stream->domination_scores(), from_batch->domination_scores());
  for (size_t j = 0; j < from_batch->signatures().columns(); ++j) {
    for (size_t i = 0; i < 16; ++i) {
      ASSERT_EQ(from_stream->signatures().at(j, i), from_batch->signatures().at(j, i));
    }
  }

  // Both snapshots answer a mixed schedule identically through servers.
  SkyServer stream_server(from_stream);
  SkyServer batch_server(from_batch);
  for (const QuerySpec& spec : MixedSchedule()) {
    const auto a = stream_server.Query(spec);
    const auto b = batch_server.Query(spec);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectSameResult(**a, **b);
  }
}

// ---------------------------------------------------------------------------
// LSH index reuse: one index per (snapshot, banding), bounded in bytes

TEST(LruCacheTest, WeightsBoundTheSummedCapacity) {
  LruCache<int, int> cache(10);
  cache.Put(1, 100, 4);
  cache.Put(2, 200, 4);
  EXPECT_EQ(cache.weight(), 8u);
  ASSERT_NE(cache.Get(1), nullptr);  // touch: 2 is now least recent
  cache.Put(3, 300, 4);              // 12 > 10: evicts 2
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.weight(), 8u);
  cache.Put(1, 101, 6);  // overwrite re-weighs: 10 fits
  EXPECT_EQ(*cache.Get(1), 101);
  EXPECT_EQ(cache.weight(), 10u);
  cache.Put(4, 400, 11);  // heavier than the capacity: evicts everything
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.weight(), 0u);
}

TEST(ServeTest, SpecsSharingABandingBuildOneLshIndex) {
  const DataSet data = GenerateIndependent(3000, 3, 71);
  const auto snapshot = BuildSnapshot(data, 100, 7);
  SkyServer server(snapshot);
  const auto k10 = server.Query(LshSpec(10, 0.2, 20));
  const auto k20 = server.Query(LshSpec(20, 0.2, 20));
  const auto nudged = server.Query(LshSpec(10, 0.2 + 0x1p-30, 20));
  const auto nudged_more = server.Query(LshSpec(10, 0.2 + 0x1p-40, 20));
  ASSERT_TRUE(k10.ok() && k20.ok() && nudged.ok() && nudged_more.ok());
  ServeStats stats = server.stats();
  EXPECT_EQ(stats.result_misses, 4u);
  EXPECT_EQ(stats.lsh_index_builds, 1u);
  EXPECT_EQ(snapshot->lsh_cache_bytes(), snapshot->skyline().size() * 50 * sizeof(uint32_t));

  // One banding, one answer; and the greedy's prefix property across k.
  ExpectSameResult(**nudged, **k10);
  ExpectSameResult(**nudged_more, **k10);
  ASSERT_EQ((*k20)->selected.size(), 20u);
  EXPECT_EQ(std::vector<size_t>((*k20)->selected.begin(), (*k20)->selected.begin() + 10),
            (*k10)->selected);

  // Another banding builds its own index; B is part of the banding.
  ASSERT_TRUE(server.Query(LshSpec(10, 0.5, 20)).ok());
  ASSERT_TRUE(server.Query(LshSpec(10, 0.2, 16)).ok());
  ASSERT_TRUE(server.Query(LshSpec(12, 0.5, 20)).ok());
  stats = server.stats();
  EXPECT_EQ(stats.lsh_index_builds, 3u);
  // MinHash reads build nothing.
  QuerySpec mh;
  mh.k = 10;
  ASSERT_TRUE(server.Query(mh).ok());
  EXPECT_EQ(server.stats().lsh_index_builds, 3u);
}

TEST(ServeTest, ConcurrentReadersOfOneBandingGetIdenticalAnswers) {
  const DataSet data = GenerateIndependent(3000, 3, 73);
  std::vector<QuerySpec> schedule;
  for (size_t i = 0; i < 64; ++i) {
    schedule.push_back(LshSpec(3 + i % 8, 0.2 + static_cast<double>(i % 5) * 0x1p-36, 20));
  }
  // The reference runs serially on a separately built snapshot, so its
  // index is built apart from the one the racing clients share.
  const auto reference_snapshot = BuildSnapshot(data, 100, 9);
  std::vector<QueryResult> reference;
  for (const QuerySpec& spec : schedule) {
    QueryContext ctx(Runtime::Create(0), CostModel{}, QuerySeed(9, spec));
    reference.push_back(reference_snapshot->Select(spec, ctx).value());
  }
  ServeOptions uncached;
  uncached.result_cache_capacity = 0;  // every query computes
  SkyServer server(BuildSnapshot(data, 100, 9), uncached);
  const auto report = ServeLoop(server, schedule, 8);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (size_t i = 0; i < schedule.size(); ++i) {
    ExpectSameResult(*report->results[i], reference[i]);
  }
  // Racing first reads may each build; afterwards every read is a hit.
  EXPECT_GE(report->stats.lsh_index_builds, 1u);
  EXPECT_LE(report->stats.lsh_index_builds, 8u);
}

TEST(SnapshotTest, LshIndexCacheIsByteBoundedAndDiesWithTheSnapshot) {
  const DataSet data = GenerateIndependent(2000, 3, 79);
  auto snapshot = BuildSnapshot(data, 100, 11);
  const size_t cap = snapshot->signatures().MemoryBytes();
  bool built = false;
  const auto half = snapshot->LshIndexFor(Banding(50, 2, 20), &built).value();
  EXPECT_TRUE(built);
  const auto quarter = snapshot->LshIndexFor(Banding(25, 4, 20), &built).value();
  EXPECT_TRUE(built);
  EXPECT_EQ(snapshot->lsh_cache_bytes(), cap * 3 / 4);
  EXPECT_EQ(snapshot->LshIndexFor(Banding(50, 2, 20), &built).value(), half);  // shared
  EXPECT_FALSE(built);
  // A full-width banding needs the whole budget: both others are evicted,
  // least recent first, but indexes a caller still holds stay valid.
  const auto full = snapshot->LshIndexFor(Banding(100, 1, 20), &built).value();
  EXPECT_TRUE(built);
  EXPECT_EQ(snapshot->lsh_cache_bytes(), cap);
  EXPECT_EQ(quarter->columns(), snapshot->skyline().size());
  (void)snapshot->LshIndexFor(Banding(25, 4, 20), &built).value();
  EXPECT_TRUE(built);
  EXPECT_LE(snapshot->lsh_cache_bytes(), cap);

  const std::weak_ptr<const LshIndex> cached = snapshot->LshIndexFor(Banding(25, 4, 20)).value();
  ASSERT_FALSE(cached.expired());
  snapshot.reset();
  EXPECT_TRUE(cached.expired());
}

TEST(ServeTest, EvictedShapedSnapshotFreesItsLshIndexes) {
  const DataSet data = GenerateIndependent(1500, 3, 83);
  SkyDiverConfig config;
  config.signature_size = 32;
  config.seed = 13;
  ServeOptions options;
  options.snapshot_cache_capacity = 1;
  options.result_cache_capacity = 0;
  auto server = SkyServer::Create(data, config, {}, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  QuerySpec a = LshSpec(3, 0.3, 20);
  a.query.lo = {0.0, 0.0, 0.0};
  a.query.hi = {0.7, 1.0, 1.0};
  QuerySpec b = a;
  b.query.hi = {1.0, 0.7, 1.0};

  ASSERT_TRUE((*server)->Query(a).ok());
  a.k = 4;
  ASSERT_TRUE((*server)->Query(a).ok());  // cached snapshot, cached index
  EXPECT_EQ((*server)->stats().lsh_index_builds, 1u);
  ASSERT_TRUE((*server)->Query(b).ok());  // evicts a's snapshot
  EXPECT_EQ((*server)->stats().lsh_index_builds, 2u);
  ASSERT_TRUE((*server)->Query(a).ok());  // a's snapshot and index rebuilt
  const ServeStats stats = (*server)->stats();
  EXPECT_EQ(stats.snapshot_misses, 3u);
  EXPECT_EQ(stats.lsh_index_builds, 3u);
}

}  // namespace
}  // namespace skydiver
