// Corner-pruned skyline blocks — the read-only layout the exhaustive
// "which skyline points dominate this row?" passes sweep (SigGen-IF, its
// pooled twin, and the Γ-set builder).
//
// A flat tiling of the skyline makes every row pay one test per skyline
// point, although almost all of those tests fail. `SkylineBlocks` orders
// the points so that each 64-row tile covers a tight region, and keeps
// every tile's lower corner (the per-dimension minimum over its rows):
//
//   * Order: Sort-Tile-Recursive over all d dimensions — sort by dimension
//     0, cut into ceil(P^(1/d)) slabs of whole tiles (P tiles in all),
//     then recurse into each slab on the next dimension until a slab fits
//     one tile. Ties break by column index, so the order is a pure
//     function of the input.
//   * Tiles: the ordered points in 64-row tiles whose ids are the column
//     indices j (only the last tile is ragged).
//   * Corners: tile i's lower corner is row i % 64 of corner tile i / 64,
//     whose id is i. A NaN member coordinate sets that corner dimension
//     to −∞. A single tile gets no corner: its corner would be the
//     skyline's own, which dominates almost every row.
//
// `ForEachDominator(p)` sweeps the corner tiles with FilterDominators and
// only the tiles whose corner strictly dominates p. This is exact: if a
// member s ≺ p then corner ≤ s ≤ p on every dimension and the corner is
// strictly below p where s is, so a tile whose corner does not dominate p
// holds no dominator of p. (The kernels read a NaN comparison as a tie;
// a −∞ corner dimension never blocks dominance and is strict only where
// p is a number, so the implication also holds for NaN inputs.)
//
// Counting: every FilterDominators call charges its tile's rows, under
// the scalar reference and the batched flavours alike, so a walk charges
// the corner rows swept plus the rows of every surviving tile (all m rows
// when there is one tile) whatever the kernel, thread count or morsel
// size. The visit order differs from column order; consumers whose
// updates are order-independent (min-merges, sums, set bits) produce
// bit-identical output.
//
// The structure is immutable after construction and may be shared by any
// number of threads.

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/dataset.h"
#include "core/types.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"

namespace skydiver {

class SkylineBlocks {
 public:
  /// Blocks over `points` (column j is `points[j]`; every span has `dims`
  /// coordinates).
  SkylineBlocks(Dim dims, std::span<const std::span<const Coord>> points);

  /// Blocks over the rows `rows` of `data`; column j is `data.row(rows[j])`.
  static SkylineBlocks Build(const DataSet& data, std::span<const RowId> rows);

  /// Number of columns m.
  size_t size() const { return size_; }
  const std::vector<Tile>& tiles() const { return tiles_; }
  const std::vector<Tile>& corners() const { return corners_; }

  /// Calls `fn(j)` once for every column j that strictly dominates `p`,
  /// tile by surviving tile.
  template <typename Fn>
  void ForEachDominator(std::span<const Coord> p, const DominanceKernel& kernel,
                        Fn&& fn) const {
    if (corners_.empty()) {
      for (const Tile& tile : tiles_) Sweep(p, tile, kernel, fn);
      return;
    }
    for (const Tile& corner : corners_) {
      uint64_t live = kernel.FilterDominators(p, corner.view());
      while (live != 0) {
        const int bit = std::countr_zero(live);
        live &= live - 1;
        Sweep(p, tiles_[corner.id(static_cast<size_t>(bit))], kernel, fn);
      }
    }
  }

 private:
  template <typename Fn>
  static void Sweep(std::span<const Coord> p, const Tile& tile,
                    const DominanceKernel& kernel, Fn& fn) {
    uint64_t mask = kernel.FilterDominators(p, tile.view());
    while (mask != 0) {
      const int row = std::countr_zero(mask);
      mask &= mask - 1;
      fn(static_cast<size_t>(tile.id(static_cast<size_t>(row))));
    }
  }

  size_t size_ = 0;
  std::vector<Tile> tiles_;
  std::vector<Tile> corners_;
};

}  // namespace skydiver
