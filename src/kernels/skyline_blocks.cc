#include "kernels/skyline_blocks.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace skydiver {

namespace {

using Points = std::span<const std::span<const Coord>>;

// Total order on one coordinate: NaN first, then ascending; ties fall to
// the caller's column-index tie-break.
bool CoordBefore(Coord a, Coord b) {
  const bool a_nan = std::isnan(a);
  const bool b_nan = std::isnan(b);
  if (a_nan || b_nan) return a_nan && !b_nan;
  return a < b;
}

// Smallest s with s^remaining >= tiles: the slab count along one dimension.
size_t SlabsFor(size_t tiles, size_t remaining) {
  size_t s = 1;
  for (;;) {
    size_t power = 1;
    for (size_t r = 0; r < remaining && power < tiles; ++r) power *= s;
    if (power >= tiles) return s;
    ++s;
  }
}

// Sort-Tile-Recursive: orders `order` so that consecutive kTileRows-runs
// are the tiles.
void StrOrder(std::span<uint32_t> order, Dim dim, Dim dims, Points points) {
  if (order.size() <= kTileRows || dim >= dims) return;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    const Coord va = points[a][dim];
    const Coord vb = points[b][dim];
    if (CoordBefore(va, vb)) return true;
    if (CoordBefore(vb, va)) return false;
    return a < b;
  });
  const size_t tiles = (order.size() + kTileRows - 1) / kTileRows;
  const size_t slabs = SlabsFor(tiles, static_cast<size_t>(dims - dim));
  const size_t slab_rows = (tiles + slabs - 1) / slabs * kTileRows;
  for (size_t begin = 0; begin < order.size(); begin += slab_rows) {
    const size_t len = std::min(slab_rows, order.size() - begin);
    StrOrder(order.subspan(begin, len), static_cast<Dim>(dim + 1), dims, points);
  }
}

}  // namespace

SkylineBlocks::SkylineBlocks(Dim dims, Points points)
    : size_(points.size()) {
  SKYDIVER_DCHECK_GE(dims, 1u);
  SKYDIVER_DCHECK_LE(points.size(), size_t{std::numeric_limits<uint32_t>::max()});
  std::vector<uint32_t> order(points.size());
  for (size_t j = 0; j < order.size(); ++j) order[j] = static_cast<uint32_t>(j);
  StrOrder(order, 0, dims, points);

  const size_t tile_count = (order.size() + kTileRows - 1) / kTileRows;
  tiles_.reserve(tile_count);
  if (tile_count > 1) corners_.reserve((tile_count + kTileRows - 1) / kTileRows);
  std::vector<Coord> corner(dims);
  for (size_t begin = 0; begin < order.size(); begin += kTileRows) {
    const size_t end = std::min(begin + kTileRows, order.size());
    Tile& tile = tiles_.emplace_back(dims);
    std::fill(corner.begin(), corner.end(), std::numeric_limits<Coord>::infinity());
    for (size_t k = begin; k < end; ++k) {
      const std::span<const Coord> p = points[order[k]];
      tile.PushRow(static_cast<RowId>(order[k]), p);
      for (size_t d = 0; d < dims; ++d) {
        // A NaN member makes the dimension unbounded below; -inf stays put.
        if (std::isnan(p[d])) {
          corner[d] = -std::numeric_limits<Coord>::infinity();
        } else if (p[d] < corner[d]) {
          corner[d] = p[d];
        }
      }
    }
    if (tile_count == 1) continue;  // a lone tile is swept without a corner
    if (corners_.empty() || corners_.back().full()) corners_.emplace_back(dims);
    corners_.back().PushRow(static_cast<RowId>(tiles_.size() - 1), corner);
  }
}

SkylineBlocks SkylineBlocks::Build(const DataSet& data, std::span<const RowId> rows) {
  std::vector<std::span<const Coord>> points(rows.size());
  for (size_t j = 0; j < rows.size(); ++j) points[j] = data.row(rows[j]);
  return SkylineBlocks(data.dims(), points);
}

}  // namespace skydiver
