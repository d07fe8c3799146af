// Concurrent query serving over frozen SkySnapshots.
//
// The snapshot/query split (engine/snapshot.h) makes Phase 1 shareable;
// this layer adds the serving loop on top: one `SkyServer` answers
// SelectMinHash / SelectLsh / varying-k queries from any number of client
// threads, with small caches in front of the compute path:
//
//   * plan cache — keyed by (mode, ξ, B): the resolved SelectPlan (backend
//     + ChooseZones banding geometry). Independent of k and of the seed,
//     so one entry serves every k at that query configuration.
//   * result cache — keyed by the full normalized QuerySpec (including its
//     SkyQuery shape): the finished QueryResult, shared by pointer. LRU
//     with touch-on-hit, so a steadily-queried spec never ages out under a
//     churn of one-off specs. Capacity 0 disables it (benchmarks measuring
//     compute want every query cold).
//   * snapshot cache — data-backed servers only, keyed by the normalized
//     SkyQuery: the frozen Phase-1 snapshot for each query shape
//     (constraint box / projection / shards). LRU; the identity snapshot
//     is pinned outside the cache and never evicted.
//   * LSH index cache — one per snapshot (SkySnapshot::LshIndexFor), keyed
//     by the resolved banding (ζ, r, B): the built bucket matrix, shared
//     by every LSH spec that resolves to that banding, whatever its k or
//     its exact ξ. LRU bounded by the snapshot's signature-matrix bytes;
//     it lives and dies with its snapshot, so evicting a shaped snapshot
//     frees its indexes. ServeStats::lsh_index_builds counts the builds.
//
// A server constructed from one snapshot serves exactly that snapshot's
// shape and REJECTS specs carrying a different SkyQuery (it has no data to
// rebuild from). A server created from a dataset (SkyServer::Create)
// builds query-shaped snapshots on demand.
//
// Correctness contract: caching is invisible. A hit returns a pointer to
// a result bit-identical to what recomputing would produce — guaranteed
// because snapshot selection is deterministic per spec: the LSH banding is
// salted by (snapshot seed, resolved banding, shape) via BandingSeed, so a
// cached index holds exactly the buckets a rebuild would — and concurrent
// clients get answers bit-identical to the serial path (tests/serve_test.cc,
// also under TSan). Specs that resolve to one banding answer from one
// index, so their picks agree: a k-pick answer is a prefix of any larger
// k's, and ξ values below ChooseZones' resolution give the same answer.
//
// `ServeLoop` drives a fixed query schedule from N client threads with a
// deterministic slot→client partition, so the produced results are
// comparable across client counts; `bench_serve` uses it for the QPS
// scaling experiment.

#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dataset.h"
#include "engine/runtime.h"
#include "engine/snapshot.h"
#include "common/lru_cache.h"
#include "stream/streaming.h"

namespace skydiver {

/// Server tuning knobs.
struct ServeOptions {
  /// Max distinct specs the result cache retains (LRU, touch-on-hit).
  /// 0 disables result caching entirely.
  size_t result_cache_capacity = 256;
  /// Max non-identity query-shaped snapshots a data-backed server retains
  /// (LRU). The identity snapshot is pinned and not counted. 0 disables
  /// shaped-snapshot caching (every shaped query rebuilds Phase 1).
  size_t snapshot_cache_capacity = 8;
};

/// Cumulative serving counters (one server lifetime).
struct ServeStats {
  uint64_t queries = 0;         ///< Query() calls that returned OK.
  uint64_t result_hits = 0;     ///< answered straight from the result cache
  uint64_t result_misses = 0;   ///< computed (and, capacity permitting, cached)
  uint64_t plan_hits = 0;       ///< (mode, ξ, B) already resolved
  uint64_t plan_misses = 0;     ///< resolved via Planner::ResolveSelect
  uint64_t snapshot_hits = 0;   ///< shaped snapshot already built
  uint64_t snapshot_misses = 0; ///< shaped snapshot built (Phase 1 ran)
  uint64_t lsh_index_builds = 0; ///< LSH indexes built by computed queries
};

/// A queryable server. All methods are thread-safe; the caches are the
/// only mutable state and sit behind one mutex (the guarded sections are
/// map lookups and pointer copies — selection compute and snapshot builds
/// run outside the lock, so clients only serialize on bookkeeping, not on
/// work).
class SkyServer {
 public:
  /// Serves one frozen `snapshot` (must be non-null and frozen). Specs
  /// whose SkyQuery differs from the snapshot's are rejected — there is no
  /// dataset to rebuild from. `runtime` seeds the per-query contexts' pool
  /// reference; the default serial runtime is right for serving, where
  /// parallelism comes from the clients.
  explicit SkyServer(std::shared_ptr<const SkySnapshot> snapshot,
                     ServeOptions options = {},
                     std::shared_ptr<const Runtime> runtime = nullptr);

  /// Data-backed server: builds the identity snapshot eagerly (through
  /// `config`, whose own `query` field must be identity) and query-shaped
  /// snapshots on demand, caching them by normalized SkyQuery. `data` and
  /// any resources must outlive the server.
  [[nodiscard]] static Result<std::unique_ptr<SkyServer>> Create(
      const DataSet& data, const SkyDiverConfig& config,
      const PlanResources& resources = {}, ServeOptions options = {},
      std::shared_ptr<const Runtime> runtime = nullptr);

  /// Answers one query. Results are shared, immutable, and safe to hold
  /// beyond the server's lifetime.
  [[nodiscard]] Result<std::shared_ptr<const QueryResult>> Query(const QuerySpec& spec);

  /// The identity (pinned) snapshot.
  const std::shared_ptr<const SkySnapshot>& snapshot() const { return snapshot_; }

  /// A consistent copy of the counters.
  ServeStats stats() const;

 private:
  using PlanKey = std::tuple<int, double, size_t>;  // (mode, ξ, B)
  // (query shape, mode, k, ξ, B) — the full normalized spec.
  using ResultKey = std::tuple<std::string, int, size_t, double, size_t>;

  SkyServer(std::shared_ptr<const SkySnapshot> snapshot, ServeOptions options,
            std::shared_ptr<const Runtime> runtime, const DataSet* data,
            SkyDiverConfig config, PlanResources resources);

  /// Resolves the snapshot serving `query` (already canonicalized by
  /// QuerySpec::Normalized): the pinned identity snapshot, a snapshot-cache
  /// hit, or a fresh Phase-1 build (outside the lock; concurrent misses on
  /// the same shape may build twice — identical bits, first insert wins).
  Result<std::shared_ptr<const SkySnapshot>> SnapshotFor(const SkyQuery& query);

  std::shared_ptr<const SkySnapshot> snapshot_;
  ServeOptions options_;
  std::shared_ptr<const Runtime> runtime_;

  // Data-backed mode only (nullptr data_ = single-snapshot mode).
  const DataSet* data_ = nullptr;
  SkyDiverConfig config_;
  PlanResources resources_;

  // The server's one capability. The caches are externally-locked
  // containers (see lru_cache.h): GUARDED_BY here is what makes a
  // lock-free touch a clang -Wthread-safety error, since the analysis
  // cannot see through the container's own methods.
  mutable Mutex mutex_;
  std::map<PlanKey, SelectPlan> plan_cache_ SKYDIVER_GUARDED_BY(mutex_);
  LruCache<ResultKey, std::shared_ptr<const QueryResult>> result_cache_
      SKYDIVER_GUARDED_BY(mutex_);
  LruCache<std::string, std::shared_ptr<const SkySnapshot>> snapshot_cache_
      SKYDIVER_GUARDED_BY(mutex_);
  ServeStats stats_ SKYDIVER_GUARDED_BY(mutex_);
};

/// One ServeLoop execution's products.
struct ServeLoopReport {
  /// Per-slot results, in schedule order (slot i answered schedule[i]).
  std::vector<std::shared_ptr<const QueryResult>> results;
  /// Per-slot wall latency in milliseconds, in schedule order.
  std::vector<double> latencies_ms;
  double wall_seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  /// Server counters after the loop (cumulative if the server was reused).
  ServeStats stats;
};

/// Replays `schedule` against `server` from `client_threads` concurrent
/// clients (>= 1). Slot i is answered by client i % client_threads — a
/// deterministic partition, so per-slot results are comparable across any
/// two client counts (and against a serial reference). Fails fast on the
/// first failed query. Client workers run on a private ThreadPool.
[[nodiscard]] Result<ServeLoopReport> ServeLoop(SkyServer& server,
                                                std::span<const QuerySpec> schedule,
                                                size_t client_threads);

/// Freezes the live fingerprints of a streaming monitor into a servable
/// snapshot (skyline tiles included, since the stream holds its data).
/// The snapshot is a copy: the stream can keep inserting afterwards.
[[nodiscard]] Result<std::shared_ptr<const SkySnapshot>> SnapshotOfStream(
    const StreamingSkyDiver& stream);

}  // namespace skydiver
