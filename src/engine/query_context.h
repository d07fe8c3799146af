// QueryContext — the per-query half of the engine's execution state.
//
// One QueryContext spans one pipeline execution (a batch run, a snapshot
// build, or a single selection query): it owns the query's deterministic
// Rng, the cost model, cumulative I/O counters, per-stage PhaseMetrics,
// and a lightweight trace-event sink. The expensive shared resources —
// the worker ThreadPool — live in a `Runtime` (runtime.h) the context
// only references, so any number of concurrently-running contexts can
// draw from one pool while keeping their accounting private.
//
// Stages never time themselves — they run under `RunStage`, which measures
// CPU and wall time, folds the stage's I/O into the cumulative counters,
// and appends a trace event. That is what guarantees every entry point
// (batch, disk, session, serve, CLI) reports identical accounting.
//
// A QueryContext is NOT thread-safe: it belongs to exactly one query on
// one thread. Thread-shared state belongs in Runtime (immutable after
// construction) or SkySnapshot (frozen after build).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/io_stats.h"
#include "common/phase_metrics.h"
#include "common/rng.h"
#include "common/status.h"
#include "engine/plan.h"
#include "engine/runtime.h"
#include "parallel/thread_pool.h"

namespace skydiver {

class QueryContext {
 public:
  /// One completed stage, in execution order.
  struct TraceEvent {
    std::string stage;
    double cpu_seconds = 0.0;
    double wall_seconds = 0.0;
    IoStats io;
  };

  /// Per-query context drawing workers from `runtime` (must be non-null
  /// and outlive the context; shared_ptr makes that structural). `seed`
  /// seeds this query's private Rng.
  QueryContext(std::shared_ptr<const Runtime> runtime, const CostModel& cost_model,
               uint64_t seed)
      : runtime_(std::move(runtime)), cost_model_(cost_model), rng_(seed) {}

  /// Convenience for one-shot executions: builds a private Runtime sized
  /// by `config.threads` (serial configs spawn no threads).
  explicit QueryContext(const SkyDiverConfig& config)
      : QueryContext(Runtime::Create(config.threads), config.cost_model, config.seed) {}

  /// The shared worker pool, or nullptr for a serial runtime.
  ThreadPool* pool() const { return runtime_->pool(); }

  size_t threads() const { return runtime_->threads(); }
  const std::shared_ptr<const Runtime>& runtime() const { return runtime_; }
  Rng& rng() { return rng_; }
  const CostModel& cost_model() const { return cost_model_; }

  /// I/O accumulated by every stage run in this context.
  const IoStats& io_stats() const { return io_; }

  /// Stage metrics in execution order (name, metrics).
  const std::vector<std::pair<std::string, PhaseMetrics>>& phases() const {
    return phases_;
  }

  /// Trace events in execution order.
  const std::vector<TraceEvent>& trace() const { return trace_; }

  /// LSH indexes this query built (0 when it found its banding's index in
  /// the snapshot's cache).
  uint64_t lsh_index_builds() const { return lsh_index_builds_; }
  void CountLshIndexBuild() { ++lsh_index_builds_; }

  /// Runs `fn` as the stage `name`: measures its CPU/wall time, stores the
  /// stage's metrics (fn fills `out->io` itself) and appends a trace event.
  /// On failure nothing is recorded and the stage's status is returned.
  [[nodiscard]] Status RunStage(std::string_view name, PhaseMetrics* out,
                  const std::function<Status(PhaseMetrics*)>& fn);

 private:
  std::shared_ptr<const Runtime> runtime_;
  CostModel cost_model_;
  Rng rng_;
  IoStats io_;
  std::vector<std::pair<std::string, PhaseMetrics>> phases_;
  std::vector<TraceEvent> trace_;
  uint64_t lsh_index_builds_ = 0;
};

}  // namespace skydiver
