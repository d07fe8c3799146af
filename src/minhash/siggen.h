// Signature generation — Phase 1 of the SkyDiver framework.
//
// Two implementations, matching the paper's Figures 3 and 4:
//
//   * SigGen-IF (index-free): one sequential pass over the data file; the
//     signatures of every point's skyline dominators are min-updated. The
//     skyline is held as corner-pruned blocks (kernels/skyline_blocks.h),
//     so a point is tested only against the 64-row tiles whose lower
//     corner dominates it. Charges sequential-scan I/O.
//
//   * SigGen-IB (index-based): descends the aggregate R*-tree. MBRs that
//     are only FULLY dominated (lower-left corner dominated, no partial
//     dominator) update the signatures of all their dominators in bulk over
//     `count` consecutive row ids without reading the subtree — saving both
//     dominance checks and page I/O. Partially dominated MBRs are expanded.
//     The inner entries' corners and the leaf points are classified
//     against the remaining candidate columns under the plan's dominance
//     kernel, over candidate tiles built once per node
//     (minhash/ib_accumulator.h).
//
// Both hash a row into 32-bit slot values once, however many columns it
// reaches, and min-merge the hashes into each dominating column with the
// per-ISA merge kernel (kernels/min_merge.h). Both reject a hash family
// whose prime does not fit a 32-bit slot (ValidateSignatureFamily).
//
// Each takes a `ThreadPool*`: null runs inline on the calling thread, a
// pool spreads the work, and the output is the same bit for bit (see each
// function). IF numbers rows by their ids; IB numbers them in the tree's
// depth-first layout (Fig. 4 leaves "rowcount" free), whatever the pool.
// The two hash through different (but equally random) permutations, so
// their *estimates* agree statistically rather than bit-for-bit.

#pragma once

#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "common/status.h"
#include "core/dataset.h"
#include "kernels/dominance_kernel.h"
#include "kernels/skyline_blocks.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"

namespace skydiver {

class ThreadPool;

/// Output of signature generation.
struct SigGenResult {
  SignatureMatrix signatures;
  /// Exact domination scores |Γ(s_j)| per skyline point — a free byproduct
  /// of either traversal, used to seed the greedy selector (Fig. 6).
  std::vector<uint64_t> domination_scores;
  /// I/O performed: sequential data-file pages for IF, the tree's page
  /// traffic for IB.
  IoStats io;
  /// Point- and corner-level dominance tests executed.
  uint64_t dominance_checks = 0;
};

/// Index-free generation (paper Fig. 3). `data` must be in minimization
/// space; `skyline` holds the skyline row ids. The result has one signature
/// column per skyline row, in the given order. The skyline columns are
/// held as `SkylineBlocks`: each data row is tested against the tiles'
/// lower corners, then only against the tiles whose corner dominates it,
/// under `kernel` (the scalar reference runs the same walk). Every kernel
/// produces bit-identical signatures, scores AND dominance counts. The
/// count is, summed over the n − m data rows, the corner rows plus the
/// rows of each tile whose corner dominates the row: at most
/// (n − m)·(m + ⌈m/64⌉), and usually far below the exhaustive (n − m)·m.
///
/// A null `pool` makes one pass over [0, n) straight into the output. With
/// a pool the rows are cut into morsel claims (`morsel_rows` per morsel, 0
/// = kDefaultMorselRows; parallel/morsel.h), each filling its own slot
/// matrix, and the slots are min-merged in slot order: MinHash minima and
/// sums are order-free, so signatures, scores and counts equal the inline
/// pass's.
Result<SigGenResult> SigGenIF(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family,
                              DomKernel kernel = DomKernel::kScalar,
                              ThreadPool* pool = nullptr, size_t morsel_rows = 0);

/// The SigGen-IF row pass over data rows [begin, end): every row that is
/// not a skyline row (`is_skyline`) and that some column of `blocks`
/// dominates is hashed once; its hashes are min-merged into each
/// dominating column of `signatures`, whose score is incremented. SigGenIF
/// runs it once inline, or once per morsel claim.
void SigGenIfRows(const DataSet& data, const std::vector<bool>& is_skyline,
                  const SkylineBlocks& blocks, const DominanceKernel& kernel,
                  const MinHashFamily& family, uint64_t begin, uint64_t end,
                  SignatureMatrix* signatures, std::vector<uint64_t>* scores);

/// Index-based generation (paper Fig. 4) over an aggregate R*-tree that
/// indexes `data`: `Tree` is RTree (pages through its buffer pool) or
/// DiskRTree (real preads of 4 KB pages through its pinned cache), the two
/// instantiations siggen.cc provides. Every
/// node is read through tree.ReadNode, and the result's IoStats are the
/// tree's counters around the call. `kernel` classifies each node's
/// candidate columns, tiled once per node: an inner entry's upper and
/// lower corners (two tests per candidate and entry) and a leaf's points
/// (one test per candidate and point). Fewer than kTileRows candidates, or
/// the scalar kernel, run the scalar reference over the same tiles. The
/// tests are exhaustive, so signatures, scores AND dominance counts are
/// identical under every kernel. The default is the planner's.
///
/// The descent is depth-first: an entry's rows take the ids from the sum
/// of the counts of the entries before it. Inline, one page is pinned at a
/// time. With a pool the top levels are split into subtree tasks that the
/// workers descend the same way, so signatures, scores, dominance counts
/// and page reads are the same at every thread count (page faults may
/// differ: the cache sees the reads in another order).
template <typename Tree>
Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const Tree& tree,
                              DomKernel kernel = DomKernel::kSimd,
                              ThreadPool* pool = nullptr);

/// Number of 4 KB-style pages a sequential scan of `n` records of `dims`
/// doubles (+ a 4-byte id) touches — the IF charge model.
uint64_t SequentialScanPages(uint64_t n, Dim dims, uint32_t page_size);

}  // namespace skydiver
