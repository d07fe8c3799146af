// Skyline computation algorithms.
//
// SkyDiver consumes a skyline set produced by any algorithm; this module
// provides the three classic ones the paper discusses:
//   * BNL  — block-nested-loops (Börzsönyi et al., ICDE'01): no index, no
//            presort; maintains a window of incomparable candidates.
//   * SFS  — sort-filter-skyline (Chomicki et al.): presorts by a monotone
//            score so candidates, once admitted, are final.
//   * BBS  — branch-and-bound skyline on the aggregate R*-tree (Papadias et
//            al., TODS'05): progressive and I/O-optimal; the paper calls it
//            the preferred index-based method.
//
// All algorithms operate in minimization space and use strict dominance, so
// duplicate points are all retained in the skyline (none dominates another).
// They return row ids sorted in ascending order, so results are directly
// comparable across algorithms.
//
// Every algorithm computes over a query-scoped `DataView` (core/data_view.h):
// only rows inside the query's constraint box participate, and dominance is
// evaluated in the projected subspace. Returned row ids are always ids into
// the ORIGINAL dataset. The `DataSet` overloads run the identity view and
// are bit-identical to the historical full-space paths.

// Every algorithm takes a `DomKernel` selector: kScalar (the default,
// matching the historical per-pair loops and their early-exit dominance
// counts exactly) or kTiled, which runs the window / candidate filters
// through the batched 64-row kernels of kernels/dominance_kernel.h. Both
// kernels return identical skyline rows; only the dominance-check
// accounting differs (tiled sweeps whole tiles where scalar early-exits).
// Inputs smaller than one tile fall back to the scalar reference.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/data_view.h"
#include "core/dataset.h"
#include "kernels/dominance_kernel.h"
#include "rtree/rtree.h"

namespace skydiver {

class ThreadPool;

/// Output of a skyline computation.
struct SkylineResult {
  /// Row ids of the skyline points, ascending.
  std::vector<RowId> rows;
  /// Point-level dominance tests executed (CPU cost proxy).
  uint64_t dominance_checks = 0;
};

/// Block-nested-loops skyline. O(n·m) dominance tests; the in-memory window
/// is unbounded (the multi-pass disk variant degenerates to this when the
/// window fits in memory, which it does for all our workloads). Under
/// kTiled the window lives in column-major tiles and every arrival is
/// classified block-at-a-time.
SkylineResult SkylineBNL(const DataView& view,
                         DomKernel kernel = DomKernel::kScalar);
SkylineResult SkylineBNL(const DataSet& data,
                         DomKernel kernel = DomKernel::kScalar);

/// Sort-filter-skyline: presorts rows by the sum of (projected) coordinates
/// — a monotone scoring function — after which every admitted candidate is
/// definitively in the skyline: no candidate can be dominated by a later
/// point. Under kTiled the admitted set is tiled and admission is one
/// AnyDominator sweep per tile.
///
/// With a null `pool` this is the one-pass SFS. With a pool the view's rows
/// are cut into morsel claims (`morsel_rows` per morsel, 0 =
/// kDefaultMorselRows; parallel/morsel.h) whose local SFS skylines are
/// computed on the pool, then one SFS pass over their union finishes the
/// job (the skyline of a union is the skyline of the union of local
/// skylines). The rows are identical either way; `dominance_checks`
/// counts the work done, which differs.
SkylineResult SkylineSFS(const DataView& view, DomKernel kernel = DomKernel::kScalar,
                         ThreadPool* pool = nullptr, size_t morsel_rows = 0);
SkylineResult SkylineSFS(const DataSet& data, DomKernel kernel = DomKernel::kScalar,
                         ThreadPool* pool = nullptr, size_t morsel_rows = 0);

/// One-pass SFS restricted to an explicit subset of the view's rows
/// (callers pass a chunk of view.rows()): the building block of the shards
/// and claims of SkylineSharded and the pooled SkylineSFS. Returns
/// original row ids, ascending.
SkylineResult SkylineSFSRows(const DataView& view, std::span<const RowId> rows,
                             DomKernel kernel = DomKernel::kScalar);

/// Divide-and-conquer skyline (Börzsönyi et al.): recursively splits on
/// the median of a cycling (projected) dimension, computes sub-skylines,
/// and merges by cross-filtering the two candidate sets (tie-safe: both
/// directions are checked, so duplicate coordinates on the split dimension
/// are handled). `leaf_size` is the recursion cutoff below which BNL runs
/// directly. Under kTiled both the leaf BNL and the merge cross-filter are
/// batched.
SkylineResult SkylineDC(const DataView& view, size_t leaf_size = 256,
                        DomKernel kernel = DomKernel::kScalar);
SkylineResult SkylineDC(const DataSet& data, size_t leaf_size = 256,
                        DomKernel kernel = DomKernel::kScalar);

/// The D&C cross-filter merge of two antichains: members of `a` not
/// dominated by any member of `b` plus members of `b` not dominated by any
/// member of `a` (both directions — tie/duplicate safe). If `a` and `b`
/// are the skylines of row sets A and B, the result is the skyline of
/// A ∪ B. Exposed for the sharded backend's shard merge.
std::vector<RowId> CrossFilterMerge(const DataView& view, const std::vector<RowId>& a,
                                    const std::vector<RowId>& b, DomKernel kernel);

/// Sharded skyline: splits the view's rows into `shards` contiguous
/// chunks, computes each chunk's local SFS skyline (on `pool` when it is
/// non-null, one shard per claim), and folds the local skylines together
/// with the D&C cross-filter in shard order, so the merge sequence and its
/// dominance-check count do not depend on the pool. shards <= 1
/// degenerates to one chunk (rows identical to SkylineSFS).
SkylineResult SkylineSharded(const DataView& view, size_t shards,
                             DomKernel kernel = DomKernel::kScalar,
                             ThreadPool* pool = nullptr);

/// Branch-and-bound skyline over the aggregate R*-tree built on the FULL
/// dataset (the tree is query-independent; the query is applied during the
/// traversal). Progressive (emits skyline points in masked-mindist order)
/// and I/O-optimal (visits only nodes whose clipped MBR is not dominated).
/// The tree must index exactly `view.data()` (same row ids). Implemented
/// as a full drain of the unified tile-aware traversal (bbs_scan.h): each
/// popped node's entry lo-corners — clipped against the constraint box and
/// projected — are transposed into one corner tile and pruned with batched
/// PruneCorners sweeps against the accumulated skyline TileSet, with the
/// kernel flavour downgraded per probe on the current skyline size.
/// Entries whose MBR misses the constraint box are dropped outright. Heap
/// ties break deterministically (points before nodes, then id), so
/// results AND emission order are identical across flavours and backends.
Result<SkylineResult> SkylineBBS(const DataView& view, const RTree& tree,
                                 DomKernel kernel = DomKernel::kScalar);
Result<SkylineResult> SkylineBBS(const DataSet& data, const RTree& tree,
                                 DomKernel kernel = DomKernel::kScalar);

/// BBS over a file-backed tree (real page reads through its frame cache).
class DiskRTree;
Result<SkylineResult> SkylineBBS(const DataView& view, const DiskRTree& tree,
                                 DomKernel kernel = DomKernel::kScalar);
Result<SkylineResult> SkylineBBS(const DataSet& data, const DiskRTree& tree,
                                 DomKernel kernel = DomKernel::kScalar);

/// Reference check (tests): true iff `rows` is exactly the skyline of
/// `data` by exhaustive O(n^2) comparison. Intended for small inputs.
bool IsSkyline(const DataSet& data, const std::vector<RowId>& rows);

/// View-scoped reference check: true iff `rows` is exactly the skyline of
/// the view — every row inside the constraint box, and in the result iff
/// no other in-box row dominates it in the projected subspace. This is the
/// mask-aware validator; the full-space overload above rejects correct
/// subspace skylines by design (it checks full-space dominance).
bool IsSkyline(const DataView& view, const std::vector<RowId>& rows);

/// Cheap structural validation of externally supplied skyline rows (a
/// caller's precomputed skyline, a reloaded session, a streaming export):
/// non-empty, strictly ascending (hence duplicate-free), and every id in
/// range for `n` rows. O(m); does NOT verify dominance — that is
/// IsSkyline's exhaustive job.
[[nodiscard]] Status ValidateSkylineRows(std::span<const RowId> rows, size_t n);

/// View-scoped structural validation: ascending, in range, and every row
/// inside the view's constraint box. A constrained view may legitimately
/// have an EMPTY skyline (the box can exclude every point), so emptiness
/// is only an error for unconstrained views.
[[nodiscard]] Status ValidateSkylineRows(std::span<const RowId> rows,
                                         const DataView& view);

}  // namespace skydiver
