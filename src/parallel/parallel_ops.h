// Parallel skyline computation, parallel index-free signature generation
// (paper future-work direction ii), and a morsel-parallel greedy k-MMDP
// selection.
//
// All parallelizations preserve exact outputs and, since the morsel
// rewiring, exact bit-identical reductions at every thread count and
// morsel size (see parallel/morsel.h for the slot protocol):
//  * skyline: morsel ranges -> local SFS skylines folded in slot order ->
//    merge pass (the skyline of a union is the skyline of the union of
//    local skylines);
//  * SigGen-IF: MinHash minima are associative/commutative, so per-slot
//    signature matrices min-merge into exactly the serial matrix, and
//    domination scores add up;
//  * selection: the one greedy body (diversify/dispersion.h, GreedyMaxMin)
//    with a per-pair distance — per-round morsel argmax with the serial
//    loop's exact strict comparisons, folded in ascending slot order
//    (first index wins on ties, exactly like the serial ascending scan).

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "diversify/dispersion.h"
#include "kernels/dominance_kernel.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"

namespace skydiver {

// All pooled operations here harvest the workers' dominance-test deltas
// (ThreadPool::HarvestDominanceChecks) and fold them into both the result's
// `dominance_checks` and the calling thread's DominanceCounter, so pooled
// runs report the same counts a serial run would (exactly, for SigGen-IF's
// block walk and SigGen-IB's node classification; the sharded skyline does
// different work).
//
// `morsel_rows` on the batched entry points is the plan's morsel size
// (0 = kDefaultMorselRows); the kernel defaults match the planner's
// default (kSimd — EffectiveKernel degrades it per-callsite when the ISA
// is missing or the candidate set is too small), so no caller silently
// runs scalar.

/// Skyline of the view computed on `pool` (rows identical to SkylineSFS on
/// the same view). `dominance_checks` covers shard passes and the merge
/// pass. The DataSet overload runs the identity view, bit-identical to the
/// historical path.
SkylineResult ParallelSkyline(const DataView& view, ThreadPool& pool,
                              DomKernel kernel = DomKernel::kSimd,
                              size_t morsel_rows = 0);
SkylineResult ParallelSkyline(const DataSet& data, ThreadPool& pool,
                              DomKernel kernel = DomKernel::kSimd,
                              size_t morsel_rows = 0);

/// Pooled sharded skyline (the kSharded backend): the view's rows are cut
/// into `shards` contiguous chunks whose local SFS skylines are computed on
/// `pool` (serially when `pool` is null), then folded together with the D&C
/// cross-filter merge in shard order (slot = shard id, so the merge
/// sequence — and with it the dominance-check count — is deterministic).
/// Rows are identical to SkylineSharded.
SkylineResult ShardedSkyline(const DataView& view, size_t shards,
                             ThreadPool* pool,
                             DomKernel kernel = DomKernel::kSimd);

/// Index-free signature generation morsel-parallelized over `pool` (result
/// bit-identical to serial SigGenIF with the same family and kernel).
Result<SigGenResult> ParallelSigGenIF(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, ThreadPool& pool,
                                      DomKernel kernel = DomKernel::kSimd,
                                      size_t morsel_rows = 0);

/// Index-based signature generation parallelized over subtrees. Row-id
/// ranges are assigned by the tree's DFS layout (each entry's range is its
/// subtree-count prefix sum), so the output is DETERMINISTIC: identical
/// signatures for any thread count — though a different (equally valid)
/// permutation than the serial BFS SigGenIB, so estimates agree only
/// statistically with it. Node access bypasses the buffer pool (thread
/// safety); the result's IoStats report the pages an accounted traversal
/// would have read logically. Inner nodes and leaves are classified and
/// merged by the same IbAccumulator as the serial SigGenIB, under `kernel`,
/// so the dominance count equals the serial one.
Result<SigGenResult> ParallelSigGenIB(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, const RTree& tree,
                                      ThreadPool& pool,
                                      DomKernel kernel = DomKernel::kSimd);

/// Morsel-parallel greedy k-MMDP selection with a per-pair distance: an
/// adapter over GreedyMaxMin (diversify/dispersion.h) on `pool`, so it is
/// bit-identical to the serial SelectDiverseSet (same seed, same picks,
/// same min_pairwise, same distance_evaluations) at every thread count and
/// morsel size. `distance` must be safe to call concurrently.
/// MinHash and LSH selections take the row path instead
/// (SelectDiverseSet over an AgreementDistance).
Result<DispersionResult> ParallelSelectDiverseSet(size_t m, size_t k,
                                                  const DistanceFn& distance,
                                                  const ScoreFn& score,
                                                  ThreadPool& pool,
                                                  size_t morsel_rows = 0);

/// Convenience overload matching SelectDiverseSet's: scores given as raw
/// |Γ| domination counts (must have at least `m` entries).
Result<DispersionResult> ParallelSelectDiverseSet(
    size_t m, size_t k, const DistanceFn& distance,
    const std::vector<uint64_t>& domination_scores, ThreadPool& pool,
    size_t morsel_rows = 0);

}  // namespace skydiver
