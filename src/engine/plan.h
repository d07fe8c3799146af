// Execution plans — what the pipeline will run, resolved ahead of time.
//
// Every SkyDiver entry point (batch runs, disk runs, sessions, the CLI)
// describes WHAT it wants through `SkyDiverConfig` and what resources it
// has through `PlanResources`; the `Planner` (planner.h) resolves both
// into a `Plan`: one backend per pipeline stage. The `Engine` (engine.h)
// then executes the plan with uniform per-stage accounting. Separating
// algorithm choice from execution plumbing follows the framework layering
// of the paper (skyline -> SigGen fingerprinting -> greedy k-MMDP).
//
// A backend names an algorithm, not a thread count: each operator is one
// function taking a `ThreadPool*`, and the engine hands every stage the
// context's pool (null for a serial runtime) with the plan's morsel size.
// The output is the same at every thread count.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "core/sky_query.h"
#include "core/types.h"
#include "kernels/dominance_kernel.h"
#include "rtree/page_file.h"

namespace skydiver {

class RTree;
class DiskRTree;

/// How Phase 1 builds the MinHash signatures.
enum class SigGenMode {
  kAuto,       ///< Index-based when a tree is supplied, index-free otherwise.
  kIndexFree,  ///< Single sequential pass (paper Fig. 3).
  kIndexBased, ///< Aggregate R*-tree descent (paper Fig. 4); requires a tree.
};

/// Which distance Phase 2 greedily disperses over.
enum class SelectMode {
  kMinHash,    ///< Estimated Jaccard distance on signatures (SkyDiver-MH).
  kLsh,        ///< Hamming distance on LSH bit-vectors (SkyDiver-LSH).
  kBruteForce, ///< Exact k-MMDP optimum over the MinHash distance (small m).
};

/// Framework configuration; the defaults mirror the paper's
/// (t = 100, k = 10, ξ = 0.2, B = 20).
struct SkyDiverConfig {
  size_t k = 10;                  ///< Number of diverse skyline points.
  size_t signature_size = 100;    ///< t: MinHash slots per skyline point.
  SigGenMode siggen = SigGenMode::kAuto;
  SelectMode select = SelectMode::kMinHash;
  double lsh_threshold = 0.2;     ///< ξ: banding threshold (kLsh only).
  size_t lsh_buckets = 20;        ///< B: buckets per zone (kLsh only).
  uint64_t seed = 42;             ///< Seed for hash-family / LSH draws.
  size_t threads = 0;             ///< 0 = serial; N >= 1 = pooled, N workers.
  /// Query shape (core/sky_query.h): constraint box, projection mask, and
  /// shard count. The identity default runs the historical full-space
  /// pipeline bit-for-bit. shards > 1 selects the sharded skyline backend.
  SkyQuery query;
  CostModel cost_model;           ///< Page-fault charge (default 8 ms).
  /// Dominance kernel for the batched stages (skyline, IF fingerprints).
  /// Simd by default — the planner downgrades it to tiled when the runtime
  /// CPU probe (common/cpu.h) finds no vector ISA. Outputs are
  /// bit-identical across all flavours; only the dominance-check
  /// accounting differs (see kernels/dominance_kernel.h).
  DomKernel kernel = DomKernel::kSimd;
  /// Rows per morsel for pooled stages (parallel/morsel.h). 0 = auto
  /// (kDefaultMorselRows); explicit values must be tile-aligned (a
  /// multiple of kTileRows = 64) and at most kMaxMorselRows. Ignored by
  /// serial plans. Reductions are bit-identical for every value; this is
  /// purely a scheduling-granularity knob.
  size_t morsel_rows = 0;
};

/// One Phase-2 selection query against an already-built snapshot: the
/// per-query analogue of SkyDiverConfig. The LSH knobs are meaningful only
/// under SelectMode::kLsh; `Normalized()` zeroes them for the other modes
/// so equality (and any cache key built on it) never distinguishes specs
/// that run the same query.
struct QuerySpec {
  SelectMode mode = SelectMode::kMinHash;
  size_t k = 10;                ///< Number of diverse skyline points.
  double lsh_threshold = 0.2;   ///< ξ: banding threshold (kLsh only).
  size_t lsh_buckets = 20;      ///< B: buckets per zone (kLsh only).
  /// Skyline shape the query runs against (identity = the full snapshot).
  /// A multi-snapshot server resolves this to a snapshot keyed by the
  /// normalized query; a single-snapshot server rejects non-identity specs.
  SkyQuery query;

  friend bool operator==(const QuerySpec&, const QuerySpec&) = default;

  QuerySpec Normalized() const {
    QuerySpec s = *this;
    if (s.mode != SelectMode::kLsh) {
      s.lsh_threshold = 0.0;
      s.lsh_buckets = 0;
    }
    s.query = CanonicalShape(s.query);
    return s;
  }
};

/// Resources a caller can hand the planner. All optional; the planner
/// picks the best backends the resources allow.
struct PlanResources {
  const RTree* tree = nullptr;            ///< In-memory aggregate R*-tree.
  const DiskRTree* disk_tree = nullptr;   ///< File-backed aggregate R*-tree.
  const std::vector<RowId>* precomputed_skyline = nullptr;
};

/// Backend choices per stage.
enum class SkylineBackend {
  kPrecomputed,  ///< Caller-supplied rows, used verbatim (sorted).
  kSfs,          ///< Sort-filter-skyline over the data file; pooled: local
                 ///< skylines per morsel claim + one merge pass.
  kSharded,      ///< Per-shard SFS + D&C cross-filter merge (query.shards).
  kBbs,          ///< Branch-and-bound over the in-memory aggregate tree.
  kBbsDisk,      ///< BBS over the file-backed tree (real preads).
};

enum class FingerprintBackend {
  kSigGenIf,      ///< Index-free sequential pass (paper Fig. 3); pooled:
                  ///< morsel claims min-merged in slot order.
  kSigGenIb,      ///< Depth-first aggregate-tree descent (paper Fig. 4);
                  ///< pooled: the top levels split into subtree tasks.
  kSigGenIbDisk,  ///< IB over the file-backed tree.
};

enum class SelectBackend {
  kNone,        ///< Fingerprint-only pipeline (sessions).
  kMinHash,     ///< Greedy k-MMDP over estimated Jaccard distances.
  kLsh,         ///< Greedy k-MMDP over LSH Hamming distances.
  kBruteForce,  ///< Exact k-MMDP over estimated Jaccard distances.
};

/// A resolved pipeline: one backend per stage plus the pool width, morsel
/// size and dominance kernel every stage runs with.
struct Plan {
  SkylineBackend skyline = SkylineBackend::kSfs;
  FingerprintBackend fingerprint = FingerprintBackend::kSigGenIf;
  SelectBackend select = SelectBackend::kMinHash;
  size_t threads = 0;  ///< Pool workers every stage may use (0 = inline).
  /// Shape-canonicalized copy of the config's SkyQuery (CanonicalShape at
  /// plan time; the engine finishes normalization against the data's
  /// dimensionality when it builds the DataView).
  SkyQuery query;
  /// Dominance kernel (scalar|tiled|simd); the planner never emits kSimd
  /// unless the host's vector ISA probe succeeded.
  DomKernel kernel = DomKernel::kTiled;
  /// Resolved morsel size of the pooled stages: the config value (or
  /// kDefaultMorselRows when the config said auto) on pooled plans, 0 on
  /// serial plans (the stages run inline).
  size_t morsel_rows = 0;
  /// Disk-path execution shape, copied from the supplied DiskRTree so the
  /// plan (and ExplainPlan) records what the disk stages will actually do.
  /// Meaningful only when a stage runs over the file-backed tree.
  DiskBackend disk_backend = DiskBackend::kPread;
  bool disk_prefetch = false;  ///< Async child prefetch is armed.
};

const char* ToString(SkylineBackend backend);
const char* ToString(FingerprintBackend backend);
const char* ToString(SelectBackend backend);

}  // namespace skydiver
