// The signature updates of SigGen-IB (paper Fig. 4), shared by the serial
// traversal (minhash/siggen.cc, over RTree and DiskRTree) and the
// subtree-parallel one (parallel/parallel_ops.cc). The traversals decide
// WHICH row ids reach which columns; this class does the hashing,
// classification of leaf points and merging, so every descent runs the
// same kernels. Inner nodes are classified over the same candidate tiles
// (CandidateTiles::SplitNode).
//
// Row ids are assigned by the caller: a leaf's points hold base, base+1,
// ... in entry order, and a fully dominated subtree the `count` ids from
// base. Each update is a min-merge, so its order never changes a bit of
// the result.

#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"

namespace skydiver {

/// Outcome of classifying a node's candidate columns against its inner
/// entries (CandidateTiles::SplitNode): per entry and candidate tile, the
/// mask of candidates dominating the entry's upper corner and the mask of
/// those that also dominate its lower corner. Bit b of tile t stands for
/// candidate t·64 + b of the list the node was classified against, so the
/// masks stay valid after the tiles are reloaded. Reusable across nodes.
class NodeSplit {
 public:
  /// Entry i's columns, in candidate order. Fills `partial` with the
  /// candidates dominating only the upper corner and returns the full set:
  /// `inherited` followed by the candidates dominating the lower corner,
  /// joined into `full` only when the entry adds any (the span points into
  /// `inherited` or `full`).
  std::span<const size_t> Expand(size_t i, std::span<const size_t> candidates,
                                 std::span<const size_t> inherited,
                                 std::vector<size_t>* full,
                                 std::vector<size_t>* partial) const;

 private:
  friend class CandidateTiles;
  size_t tiles_ = 0;
  std::vector<uint64_t> upper_;  // entry-major: entry i, tile t at i * tiles_ + t
  std::vector<uint64_t> lower_;  // subset of upper_
};

/// The candidate columns of one tree node, transposed into tiles once per
/// node (tile ids = column indices) and classified under the plan's
/// kernel. With at least kTileRows candidates the kernel's batched sweep
/// runs; with fewer (or under kScalar) the scalar reference runs over the
/// same tiles. Masks and dominance counts are the same either way, and
/// every classification keeps candidate order.
class CandidateTiles {
 public:
  /// `sky[j]` is the point of column j; it must outlive this object.
  CandidateTiles(std::span<const std::span<const Coord>> sky, DomKernel kernel);

  /// Replaces the loaded candidates.
  void Load(std::span<const size_t> candidates);

  /// Calls `fn(j)` for every loaded candidate j that strictly dominates
  /// `p`, in candidate order. One test per candidate.
  template <typename Fn>
  void ForEachDominator(std::span<const Coord> p, Fn&& fn) const {
    const DominanceKernel& kernel = active();
    for (size_t ti = 0; ti < used_tiles_; ++ti) {
      const Tile& tile = tiles_[ti];
      uint64_t mask = kernel.FilterDominators(p, tile.view());
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        mask &= mask - 1;
        fn(static_cast<size_t>(tile.id(static_cast<size_t>(bit))));
      }
    }
  }

  /// Classifies the loaded candidates against the upper and lower corners
  /// of every entry of the inner node `node`, into `split`. Two tests per
  /// (candidate, entry), whatever the outcome.
  void SplitNode(const RTreeNode& node, NodeSplit* split) const;

 private:
  const DominanceKernel& active() const { return batched_ ? batch_ : scalar_; }

  std::span<const std::span<const Coord>> sky_;
  DominanceKernel batch_;   // the plan's kernel, ISA-resolved
  DominanceKernel scalar_;  // the reference, for lists under one tile
  bool batched_ = false;    // the loaded list fills a tile
  std::vector<Tile> tiles_;  // reused across nodes
  size_t used_tiles_ = 0;
};

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
  /// of `full` plus each column of `candidates` that dominates it; the
  /// candidates are tiled once per leaf (CandidateTiles), so the leaf
  /// charges exactly |candidates| dominance checks per point.
  void AddLeaf(const RTreeNode& leaf, uint64_t base, std::span<const size_t> full,
               std::span<const size_t> candidates);

  /// CandidateTiles::SplitNode of `candidates` against inner node `node`,
  /// over the tile buffers the leaves use.
  void SplitNode(const RTreeNode& node, std::span<const size_t> candidates,
                 NodeSplit* split) {
    tiles_.Load(candidates);
    tiles_.SplitNode(node, split);
  }

 private:
  const MinHashFamily& family_;
  SignatureMatrix* signatures_;
  std::vector<uint64_t>* scores_;
  CandidateTiles tiles_;
  std::vector<uint32_t> row_;        // h(x) of the current row id
  std::vector<uint32_t> range_min_;  // running minimum over a range / leaf
  std::vector<size_t> dominators_;   // candidate columns dominating a point
};

}  // namespace skydiver
