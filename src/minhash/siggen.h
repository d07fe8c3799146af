// Signature generation — Phase 1 of the SkyDiver framework.
//
// Two implementations, matching the paper's Figures 3 and 4:
//
//   * SigGen-IF (index-free): one sequential pass over the data file; every
//     point is tested against every skyline point and the signatures of its
//     dominators are min-updated. Charges sequential-scan I/O.
//
//   * SigGen-IB (index-based): descends the aggregate R*-tree. MBRs that
//     are only FULLY dominated (lower-left corner dominated, no partial
//     dominator) update the signatures of all their dominators in bulk over
//     `count` consecutive row ids without reading the subtree — saving both
//     dominance checks and page I/O. Partially dominated MBRs are expanded.
//     At the leaves, the points are classified against the remaining
//     candidate columns under the plan's dominance kernel
//     (minhash/ib_accumulator.h).
//
// Both hash a row into 32-bit slot values once, however many columns it
// reaches, and min-merge the hashes into each dominating column with the
// per-ISA merge kernel (kernels/min_merge.h). Both reject a hash family
// whose prime does not fit a 32-bit slot (ValidateSignatureFamily).
//
// Both produce valid MinHash signatures of the dominated sets Γ(s); they
// enumerate rows in different orders, i.e. they hash through different (but
// equally random) permutations, so their *estimates* agree statistically
// rather than bit-for-bit.

#pragma once

#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "common/status.h"
#include "core/dataset.h"
#include "kernels/dominance_kernel.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"

namespace skydiver {

/// Output of signature generation.
struct SigGenResult {
  SignatureMatrix signatures;
  /// Exact domination scores |Γ(s_j)| per skyline point — a free byproduct
  /// of either traversal, used to seed the greedy selector (Fig. 6).
  std::vector<uint64_t> domination_scores;
  /// I/O performed: sequential data-file pages for IF, R-tree buffer-pool
  /// traffic for IB.
  IoStats io;
  /// Point- and corner-level dominance tests executed.
  uint64_t dominance_checks = 0;
};

/// Index-free generation (paper Fig. 3). `data` must be in minimization
/// space; `skyline` holds the skyline row ids. The result has one signature
/// column per skyline row, in the given order. Under a batched kernel
/// (tiled or simd) the skyline columns are held in column-major tiles and
/// each data row is tested against whole tiles at a time; because the IF
/// pass is exhaustive (no early exit), the batched run produces
/// bit-identical signatures, scores, AND dominance counts ((n - m) * m
/// either way).
Result<SigGenResult> SigGenIF(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family,
                              DomKernel kernel = DomKernel::kScalar);

/// Index-based generation (paper Fig. 4) over an aggregate R*-tree that
/// indexes `data`. Uses the tree's buffer pool for I/O accounting (the
/// pool's stats are snapshotted around the traversal). The corner tests
/// against inner MBRs are scalar and tree-shaped; `kernel` classifies the
/// points of each leaf against its candidate columns — tiled once per leaf
/// when there are at least kTileRows of them under a batched kernel. The
/// leaf pass is exhaustive, so signatures, scores AND dominance counts are
/// identical under every kernel. The default is the planner's.
Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const RTree& tree,
                              DomKernel kernel = DomKernel::kSimd);

/// Same algorithm over a file-backed tree: page faults here are real
/// preads of 4 KB pages, not simulated ones. Same traversal order, so the
/// output equals the RTree overload's bit for bit.
class DiskRTree;
Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const DiskRTree& tree,
                              DomKernel kernel = DomKernel::kSimd);

/// Number of 4 KB-style pages a sequential scan of `n` records of `dims`
/// doubles (+ a 4-byte id) touches — the IF charge model.
uint64_t SequentialScanPages(uint64_t n, Dim dims, uint32_t page_size);

}  // namespace skydiver
