// The signature updates of SigGen-IB (paper Fig. 4), shared by the serial
// traversal (minhash/siggen.cc, over RTree and DiskRTree) and the
// subtree-parallel one (parallel/parallel_ops.cc). The traversals decide
// WHICH row ids reach which columns; this class does the hashing,
// classification of leaf points and merging, so every descent runs the
// same kernels.
//
// Row ids are assigned by the caller: a leaf's points hold base, base+1,
// ... in entry order, and a fully dominated subtree the `count` ids from
// base. Each update is a min-merge, so its order never changes a bit of
// the result.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"

namespace skydiver {

class IbAccumulator {
 public:
  /// `sky[j]` is the point of signature column j. Updates land in
  /// `signatures` (t x sky.size()) and `scores` (sky.size() entries);
  /// `sky`, `family` and both outputs must outlive the accumulator.
  /// `family` must fit slots (ValidateSignatureFamily).
  IbAccumulator(std::span<const std::span<const Coord>> sky, const MinHashFamily& family,
                DomKernel kernel, SignatureMatrix* signatures,
                std::vector<uint64_t>* scores);

  /// Adds the `count` row ids from `base` to every column of `full` (a
  /// subtree each of them dominates entirely). The hash minimum over the
  /// range is computed once, stepping h(x) to h(x+1) without division,
  /// and merged into each column.
  void AddRange(uint64_t base, uint64_t count, std::span<const size_t> full);

  /// Adds the points of one leaf. Each point's dominators are every column
  /// of `full` plus each column of `candidates` that dominates it. With at
  /// least kTileRows candidates and a batched kernel, the candidates are
  /// tiled once per leaf and each point is classified tile by tile
  /// (FilterDominators); otherwise by scalar Dominates calls. Both are
  /// exhaustive, so either charges exactly |candidates| dominance checks
  /// per point.
  void AddLeaf(const RTreeNode& leaf, uint64_t base, std::span<const size_t> full,
               std::span<const size_t> candidates);

 private:
  // Transposes the candidates' points into tiles_[0, used_tiles_) with
  // tile ids = column indices.
  void TileCandidates(std::span<const size_t> candidates);

  std::span<const std::span<const Coord>> sky_;
  const MinHashFamily& family_;
  DomKernel kernel_;  // ISA-resolved; per leaf, small candidate lists run scalar
  DominanceKernel batch_;
  SignatureMatrix* signatures_;
  std::vector<uint64_t>* scores_;
  std::vector<uint32_t> row_;        // h(x) of the current row id
  std::vector<uint32_t> range_min_;  // running minimum over a range / leaf
  std::vector<size_t> dominators_;   // candidate columns dominating a point
  std::vector<Tile> tiles_;          // reused across leaves
  size_t used_tiles_ = 0;
};

}  // namespace skydiver
