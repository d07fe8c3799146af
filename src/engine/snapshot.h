// SkySnapshot — the immutable, shareable half of the engine's state.
//
// SkyDiver's whole design is "fingerprint once, diversify many times":
// Phase 1 (skyline + signature matrix + domination scores) is the
// expensive part, Phase 2 (greedy selection) costs O(k·m) signature
// comparisons. A SkySnapshot materializes Phase 1's products exactly once
// — built through a fingerprint-only engine plan, so it shares the batch
// API's backend choice and accounting — and is then Freeze()d: no method
// mutates it afterwards, so one snapshot can serve any number of
// concurrent selection queries by plain shared reference, without locks.
//
// Thread-safety contract:
//   * Build()/Adopt() return a frozen, fully-constructed snapshot behind
//     a shared_ptr<const ...>; publication happens-before any reader that
//     obtains the pointer (shared_ptr's control block provides the
//     ordering).
//   * After Freeze() every Phase-1 member is physically const — Select()
//     reads the skyline rows, scores, signatures and tiles and writes into
//     the caller's QueryContext. The one piece of mutable state is the LSH
//     index cache (lsh/lsh.h, LshIndexCache), which synchronizes itself:
//     built indexes are immutable and shared by pointer, and an index is
//     built outside the cache's lock (racing builds of one banding produce
//     identical bits; the first insert wins).
//     Concurrent Select() calls from any number of threads are safe and
//     bit-identical to serial execution (tests/serve_test.cc proves it
//     under TSan).
//   * The LSH banding salt is derived functionally from (snapshot seed,
//     resolved banding (ζ, r, B), query shape) via BandingSeed — no shared
//     Rng, no call-order dependence, and no dependence on k or on the raw
//     ξ: every spec that resolves to one banding shares one index and
//     answers from it.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/io_stats.h"
#include "common/phase_metrics.h"
#include "common/status.h"
#include "core/dataset.h"
#include "diversify/dispersion.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/query_context.h"
#include "engine/runtime.h"
#include "kernels/tile_view.h"
#include "lsh/lsh.h"
#include "minhash/minhash.h"

namespace skydiver {

/// Salt of an LSH index: a functional mix of the snapshot's seed, the
/// resolved banding (ζ, r, B) and the normalized query shape (the identity
/// shape mixes nothing). Equal inputs — on any thread, in any order, in a
/// batch run or a served query — derive the same buckets and therefore the
/// same picks; specs differing only in k, or in a ξ that resolves to the
/// same banding, share one index.
uint64_t BandingSeed(uint64_t snapshot_seed, const LshParams& banding,
                     const SkyQuery& shape);

/// Seed for one query's QueryContext Rng: a functional mix of the
/// snapshot's seed and the normalized spec (mode, k, ξ, B, shape).
/// Selection draws nothing from it — banding is salted per banding plan
/// (above) — but every context a query runs under gets a reproducible seed.
uint64_t QuerySeed(uint64_t snapshot_seed, const QuerySpec& spec);

/// Former name of QuerySeed, kept for callers that predate plan-keyed
/// banding salts.
inline uint64_t BandingSeed(uint64_t snapshot_seed, const QuerySpec& spec) {
  return QuerySeed(snapshot_seed, spec);
}

/// Phase 2 over Phase-1 products — the one selection path of batch runs
/// (the engine's select stage) and of serving (SkySnapshot::Select):
/// greedy k-MMDP over MinHash slot agreement (kMinHash) or over the bucket
/// matrix of `lsh` (kLsh; must then be non-null), on `pool` when non-null,
/// or the exact search over MinHash distances (kBruteForce). The greedy is
/// bit-identical at every thread count and morsel size.
Result<DispersionResult> SelectFromFingerprints(SelectBackend backend, size_t k,
                                                const SignatureMatrix& signatures,
                                                const std::vector<uint64_t>& scores,
                                                const LshIndex* lsh, ThreadPool* pool,
                                                size_t morsel_rows = 0);

/// One selection query's products.
struct QueryResult {
  /// Selected points as indices into the snapshot's skyline, in pick order.
  std::vector<size_t> selected;
  /// The same selection as row ids into the original dataset.
  std::vector<RowId> rows;
  /// k-MMDP objective under the working distance.
  double objective = 0.0;
  /// LSH bit-vector bytes (kLsh only; the memory side of Fig. 13).
  size_t lsh_memory_bytes = 0;
};

/// Immutable Phase-1 state: frozen skyline view (row ids + column-major
/// tiles), exact domination scores, and the MinHash signature matrix.
class SkySnapshot {
 public:
  /// How the snapshot was built, for explain/report surfaces.
  struct BuildInfo {
    Plan plan;
    std::string plan_explain;
    PhaseMetrics skyline_phase;
    PhaseMetrics fingerprint_phase;
    IoStats io;
  };

  /// Runs the fingerprint-only pipeline (skyline + SigGen) over `data`
  /// through the engine, drawing workers from `runtime` (nullptr = a
  /// private runtime sized by config.threads), and freezes the result.
  /// `config.k` and the selection knobs are ignored — selection is what
  /// queries are for.
  [[nodiscard]] static Result<std::shared_ptr<const SkySnapshot>> Build(
      const DataSet& data, const SkyDiverConfig& config,
      const PlanResources& resources = {},
      std::shared_ptr<const Runtime> runtime = nullptr);

  /// Adopts externally produced Phase-1 products (a reloaded session, a
  /// streaming export) after structural validation. When `data` is given
  /// it must be the dataset the rows refer to; the skyline is then also
  /// materialized into frozen tiles (selection itself never needs them,
  /// so data-free adoption — e.g. a session file shipped without its 5M
  /// points — stays fully functional).
  [[nodiscard]] static Result<std::shared_ptr<const SkySnapshot>> Adopt(
      std::vector<RowId> skyline, std::vector<uint64_t> domination_scores,
      SignatureMatrix signatures, uint64_t seed, const DataSet* data = nullptr);

  /// The skyline rows the fingerprints describe, ascending.
  const std::vector<RowId>& skyline() const { return skyline_; }
  /// Exact |Γ(s_j)| per skyline point.
  const std::vector<uint64_t>& domination_scores() const { return scores_; }
  const SignatureMatrix& signatures() const { return signatures_; }
  /// Frozen column-major tiles of the skyline points (empty when adopted
  /// without the dataset).
  const TileSet& skyline_tiles() const { return tiles_; }
  uint64_t seed() const { return seed_; }
  size_t signature_size() const { return signatures_.signature_size(); }
  const BuildInfo& build_info() const { return info_; }
  /// The fully normalized SkyQuery this snapshot was built under (identity
  /// for unshaped builds and adopted snapshots). A serving layer keys its
  /// snapshot cache by QueryKey(query()).
  const SkyQuery& query() const { return info_.plan.query; }
  /// Always true for a published snapshot; Select() checks it.
  bool frozen() const { return frozen_; }

  /// Answers one selection query. Read-only on the snapshot; metrics,
  /// trace and accounting land in `ctx` (stage name "select"). Safe to
  /// call concurrently with any other Select() on the same snapshot;
  /// results are bit-identical to the serial path for equal specs.
  [[nodiscard]] Result<QueryResult> Select(const QuerySpec& spec,
                                           QueryContext& ctx) const;

  /// Same, with the spec already resolved to a SelectPlan (a serving layer
  /// caches one per (mode, ξ, B) — see serve/serve.h). `plan` must be the
  /// resolution of `spec` against this snapshot's signature size.
  [[nodiscard]] Result<QueryResult> Select(const QuerySpec& spec, const SelectPlan& plan,
                                           QueryContext& ctx) const;

  /// This snapshot's LSH index for `banding`, salted by BandingSeed(seed(),
  /// banding, query()). Built on first use and cached: the cache holds at
  /// most signatures().MemoryBytes() bytes of bucket matrices (an index
  /// never holds more than its signature matrix, since ζ ≤ t), least
  /// recently used evicted first, and it lives as long as the snapshot.
  /// `built` (optional) reports whether this call built the index.
  [[nodiscard]] Result<std::shared_ptr<const LshIndex>> LshIndexFor(
      const LshParams& banding, bool* built = nullptr) const;

  /// Bytes the cached LSH indexes hold.
  size_t lsh_cache_bytes() const;

 private:
  SkySnapshot() : tiles_(1) {}

  void Freeze();

  std::vector<RowId> skyline_;
  std::vector<uint64_t> scores_;
  SignatureMatrix signatures_;
  TileSet tiles_;
  uint64_t seed_ = 0;
  BuildInfo info_;
  bool frozen_ = false;
  // Created by Freeze(), sized to the signature matrix's bytes.
  std::unique_ptr<LshIndexCache> lsh_cache_;
};

}  // namespace skydiver
