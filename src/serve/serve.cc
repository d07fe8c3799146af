#include "serve/serve.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/timer.h"
#include "parallel/thread_pool.h"

namespace skydiver {

SkyServer::SkyServer(std::shared_ptr<const SkySnapshot> snapshot, ServeOptions options,
                     std::shared_ptr<const Runtime> runtime)
    : SkyServer(std::move(snapshot), options, std::move(runtime), nullptr,
                SkyDiverConfig{}, PlanResources{}) {}

SkyServer::SkyServer(std::shared_ptr<const SkySnapshot> snapshot, ServeOptions options,
                     std::shared_ptr<const Runtime> runtime, const DataSet* data,
                     SkyDiverConfig config, PlanResources resources)
    : snapshot_(std::move(snapshot)),
      options_(options),
      runtime_(runtime != nullptr ? std::move(runtime) : Runtime::Create(0)),
      data_(data),
      config_(std::move(config)),
      resources_(resources),
      result_cache_(options.result_cache_capacity),
      snapshot_cache_(options.snapshot_cache_capacity) {
  SKYDIVER_CHECK(snapshot_ != nullptr, "SkyServer requires a snapshot");
  SKYDIVER_CHECK(snapshot_->frozen(), "SkyServer requires a frozen snapshot");
}

Result<std::unique_ptr<SkyServer>> SkyServer::Create(
    const DataSet& data, const SkyDiverConfig& config, const PlanResources& resources,
    ServeOptions options, std::shared_ptr<const Runtime> runtime) {
  if (!config.query.identity()) {
    return Status::InvalidArgument(
        "the server config's query must be identity; shaped queries arrive "
        "per QuerySpec");
  }
  if (runtime == nullptr) runtime = Runtime::Create(config.threads);
  auto identity = SkySnapshot::Build(data, config, resources, runtime);
  if (!identity.ok()) return identity.status();
  return std::unique_ptr<SkyServer>(new SkyServer(std::move(identity).value(), options,
                                                  std::move(runtime), &data, config,
                                                  resources));
}

Result<std::shared_ptr<const SkySnapshot>> SkyServer::SnapshotFor(
    const SkyQuery& query) {
  if (query.identity()) return snapshot_;
  if (data_ == nullptr) {
    return Status::InvalidArgument(
        "this server wraps a single snapshot; query-shaped specs "
        "(constraint box, projection, shards) need a data-backed server "
        "(SkyServer::Create)");
  }
  // Key by the FULLY normalized query so e.g. a spelled-out full-space
  // projection and the identity mask share one snapshot.
  auto normalized = NormalizeQuery(query, data_->dims());
  if (!normalized.ok()) return normalized.status();
  if (normalized.value().identity()) return snapshot_;
  const std::string key = QueryKey(normalized.value());
  {
    MutexLock lock(mutex_);
    if (const auto* hit = snapshot_cache_.Get(key)) {
      ++stats_.snapshot_hits;
      return *hit;
    }
  }

  // Build outside the lock (Phase 1 is the expensive part — this is the
  // whole reason the snapshot cache exists). Concurrent misses on the same
  // shape may build twice; the builds are bit-identical, first insert wins.
  // This holds for a disk-backed `resources_` too: concurrent builds
  // traverse the shared DiskRTree through its internally-synchronized
  // pinned page cache (rtree/page_cache.h), so no external serialization
  // of Phase 1 is needed.
  SkyDiverConfig config = config_;
  config.query = std::move(normalized).value();
  auto built = SkySnapshot::Build(*data_, config, resources_, runtime_);
  if (!built.ok()) return built.status();

  MutexLock lock(mutex_);
  ++stats_.snapshot_misses;
  if (const auto* raced = snapshot_cache_.Get(key)) return *raced;
  snapshot_cache_.Put(key, built.value());
  return std::move(built).value();
}

Result<std::shared_ptr<const QueryResult>> SkyServer::Query(const QuerySpec& spec) {
  const QuerySpec q = spec.Normalized();
  const ResultKey result_key{QueryKey(q.query), static_cast<int>(q.mode), q.k,
                             q.lsh_threshold, q.lsh_buckets};
  const PlanKey plan_key{static_cast<int>(q.mode), q.lsh_threshold, q.lsh_buckets};

  // Bookkeeping pass: result hit returns immediately (touching its LRU
  // recency); otherwise take (or resolve and install) the spec's plan.
  // Resolution runs inside the lock — it is a handful of integer divisions
  // (ChooseZones), and admitting it once keeps a failed spec from being
  // re-resolved by racing clients.
  SelectPlan plan;
  {
    MutexLock lock(mutex_);
    if (const auto* hit = result_cache_.Get(result_key)) {
      ++stats_.result_hits;
      ++stats_.queries;
      return *hit;
    }
    if (auto it = plan_cache_.find(plan_key); it != plan_cache_.end()) {
      ++stats_.plan_hits;
      plan = it->second;
    } else {
      auto resolved = Planner::ResolveSelect(q, snapshot_->signature_size());
      ++stats_.plan_misses;
      if (!resolved.ok()) return resolved.status();
      plan = resolved.value();
      plan_cache_.emplace(plan_key, plan);
    }
  }

  // Resolve the snapshot for the spec's query shape (identity = the pinned
  // snapshot; shaped = cache hit or an on-demand Phase-1 build).
  auto snap = SnapshotFor(q.query);
  if (!snap.ok()) return snap.status();
  const std::shared_ptr<const SkySnapshot>& snapshot = snap.value();

  // Compute pass, outside the lock: this is where concurrent clients
  // actually overlap. Identical specs racing here each compute the same
  // bits (deterministic selection), so double-compute is a perf hiccup,
  // never an inconsistency.
  QueryContext ctx(runtime_, CostModel{}, QuerySeed(snapshot->seed(), q));
  auto result = snapshot->Select(q, plan, ctx);
  if (!result.ok()) return result.status();
  auto shared = std::make_shared<const QueryResult>(std::move(result).value());

  MutexLock lock(mutex_);
  stats_.lsh_index_builds += ctx.lsh_index_builds();
  ++stats_.result_misses;
  ++stats_.queries;
  result_cache_.Put(result_key, shared);
  return shared;
}

ServeStats SkyServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

Result<ServeLoopReport> ServeLoop(SkyServer& server, std::span<const QuerySpec> schedule,
                                  size_t client_threads) {
  if (client_threads == 0) {
    return Status::InvalidArgument("ServeLoop needs at least one client thread");
  }
  const size_t n = schedule.size();
  ServeLoopReport report;
  report.results.resize(n);
  report.latencies_ms.resize(n);
  std::vector<Status> failures(client_threads, Status::OK());

  WallTimer wall;
  {
    // Private pool: clients are workers. Slot i belongs to client
    // i % client_threads — disjoint slot sets, so the per-slot vectors
    // need no synchronization beyond the pool's own join.
    ThreadPool clients(client_threads);
    for (size_t c = 0; c < client_threads; ++c) {
      const bool submitted = clients.Submit([&, c] {
        for (size_t i = c; i < n; i += client_threads) {
          WallTimer latency;
          auto result = server.Query(schedule[i]);
          if (!result.ok()) {
            failures[c] = result.status();
            return;
          }
          report.results[i] = std::move(result).value();
          report.latencies_ms[i] = latency.ElapsedSeconds() * 1e3;
        }
      });
      SKYDIVER_CHECK(submitted, "client pool rejected a task before shutdown");
    }
    clients.Wait();
  }
  report.wall_seconds = wall.ElapsedSeconds();

  for (const Status& status : failures) {
    SKYDIVER_RETURN_NOT_OK(status);
  }
  report.qps = report.wall_seconds > 0.0 ? static_cast<double>(n) / report.wall_seconds
                                         : 0.0;
  if (n > 0) {
    std::vector<double> sorted = report.latencies_ms;
    std::sort(sorted.begin(), sorted.end());
    report.p50_ms = sorted[n / 2];
    report.p99_ms = sorted[std::min(n - 1, n * 99 / 100)];
  }
  report.stats = server.stats();
  return report;
}

Result<std::shared_ptr<const SkySnapshot>> SnapshotOfStream(
    const StreamingSkyDiver& stream) {
  auto fingerprints = stream.ExportFingerprints();
  if (!fingerprints.ok()) return fingerprints.status();
  StreamFingerprints fp = std::move(fingerprints).value();
  return SkySnapshot::Adopt(std::move(fp.skyline), std::move(fp.domination_scores),
                            std::move(fp.signatures), fp.seed, &stream.data());
}

}  // namespace skydiver
