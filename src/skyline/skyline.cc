#include "skyline/skyline.h"

#include <algorithm>
#include <numeric>

#include "core/dominance.h"
#include "kernels/tile_view.h"
#include "parallel/morsel.h"
#include "rtree/disk_rtree.h"
#include "skyline/bbs_scan.h"

namespace skydiver {

namespace {

// Tracks dominance tests performed within one algorithm invocation.
class CheckScope {
 public:
  CheckScope() : start_(DominanceCounter::Count()) {}
  uint64_t Delta() const { return DominanceCounter::Count() - start_; }

 private:
  uint64_t start_;
};

// Monotone SFS score of a row: the sum of its projected coordinates. If p
// dominates q in the projected subspace then score(p) < score(q). For the
// full-space view the additions run in dimension order 0..d-1, exactly the
// historical arithmetic.
double SfsScore(const DataView& view, RowId r) {
  const auto row = view.data().row(r);
  double s = 0.0;
  for (const Dim i : view.proj()) s += row[i];
  return s;
}

// Scalar BNL window pass over `rows`; returns survivors in window order.
std::vector<RowId> ScalarBnlWindow(const DataView& view, std::span<const RowId> rows) {
  const DataSet& data = view.data();
  const auto proj = view.proj();
  std::vector<RowId> window;
  for (RowId r : rows) {
    const auto p = data.row(r);
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const DomRelation rel = Compare(data.row(window[i]), p, proj);
      if (rel == DomRelation::kDominates) {
        dominated = true;
        // Everything before i survives; nothing after i has been filtered
        // yet, so copy the tail and stop.
        for (size_t j = i; j < window.size(); ++j) window[keep++] = window[j];
        break;
      }
      if (rel != DomRelation::kDominatedBy) {
        window[keep++] = window[i];  // incomparable: candidate survives
      }
      // Window entries dominated by p are dropped (not copied).
    }
    window.resize(keep);
    if (!dominated) window.push_back(r);
  }
  return window;
}

// Tiled BNL window pass: the window is a TileSet of projected columns;
// each arrival is classified against whole tiles. A dominated arrival
// never dominates any window entry (the window is an antichain), so
// breaking on the first dominator leaves the window untouched — exactly
// the scalar semantics.
std::vector<RowId> TiledBnlWindow(const DataView& view, std::span<const RowId> rows,
                                  const DominanceKernel& kernel) {
  TileSet window(view.dims());
  std::vector<Coord> scratch;
  std::vector<uint64_t> dominated_masks;
  for (RowId r : rows) {
    const auto p = view.ProjectedRow(r, scratch);
    const auto& tiles = window.tiles();
    dominated_masks.assign(tiles.size(), 0);
    bool dominated = false;
    for (size_t ti = 0; ti < tiles.size(); ++ti) {
      const BlockClassification cls = kernel.ClassifyBlock(p, tiles[ti].view());
      if (cls.dominators != 0) {
        dominated = true;
        break;
      }
      dominated_masks[ti] = cls.dominated;
    }
    if (dominated) continue;
    bool dropped = false;
    for (size_t ti = 0; ti < dominated_masks.size(); ++ti) {
      if (dominated_masks[ti] == 0) continue;
      window.CompactTile(ti, tiles[ti].view().FullMask() & ~dominated_masks[ti]);
      dropped = true;
    }
    if (dropped) window.DropEmptyTiles();
    window.Append(r, p);
  }
  std::vector<RowId> out;
  out.reserve(window.size());
  for (const Tile& t : window.tiles()) {
    for (size_t i = 0; i < t.rows(); ++i) out.push_back(t.id(i));
  }
  return out;
}

std::vector<RowId> BnlWindow(const DataView& view, std::span<const RowId> rows,
                             DomKernel kernel) {
  const DomKernel effective = EffectiveKernel(kernel, rows.size());
  if (!IsBatched(effective)) return ScalarBnlWindow(view, rows);
  return TiledBnlWindow(view, rows, DominanceKernel(effective));
}

}  // namespace

SkylineResult SkylineBNL(const DataView& view, DomKernel kernel) {
  CheckScope checks;
  std::vector<RowId> window = BnlWindow(view, view.rows(), kernel);
  std::sort(window.begin(), window.end());
  return SkylineResult{std::move(window), checks.Delta()};
}

SkylineResult SkylineBNL(const DataSet& data, DomKernel kernel) {
  return SkylineBNL(DataView(data), kernel);
}

SkylineResult SkylineSFSRows(const DataView& view, std::span<const RowId> rows,
                             DomKernel kernel) {
  CheckScope checks;
  const size_t n = rows.size();
  kernel = EffectiveKernel(kernel, n);
  const DataSet& data = view.data();
  const auto proj = view.proj();
  // Positions into `rows`, sorted by the monotone score: a point can only
  // be dominated by points sorted before it.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> score(n);
  for (size_t i = 0; i < n; ++i) score[i] = SfsScore(view, rows[i]);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return score[a] < score[b]; });
  std::vector<RowId> skyline;
  if (IsBatched(kernel)) {
    const DominanceKernel batch(kernel);
    TileSet admitted(view.dims());
    std::vector<Coord> scratch;
    for (size_t i : order) {
      const RowId r = rows[i];
      const auto p = view.ProjectedRow(r, scratch);
      bool dominated = false;
      for (const Tile& t : admitted.tiles()) {
        if (batch.AnyDominator(p, t.view())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) {
        skyline.push_back(r);
        admitted.Append(r, p);
      }
    }
  } else {
    for (size_t i : order) {
      const RowId r = rows[i];
      const auto p = data.row(r);
      bool dominated = false;
      for (RowId s : skyline) {
        if (Dominates(data.row(s), p, proj)) {
          dominated = true;
          break;
        }
      }
      if (!dominated) skyline.push_back(r);
    }
  }
  std::sort(skyline.begin(), skyline.end());
  return SkylineResult{std::move(skyline), checks.Delta()};
}

SkylineResult SkylineSFS(const DataView& view, DomKernel kernel, ThreadPool* pool,
                         size_t morsel_rows) {
  const std::vector<RowId>& all = view.rows();
  if (pool == nullptr) return SkylineSFSRows(view, all, kernel);
  CheckScope checks;
  // Local skylines per claim. Each claim is a contiguous slice of the
  // view's (ascending) row list, and slots index the claims (a pure
  // function of the row range), so the fold below is
  // scheduling-independent.
  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;
  MorselQueue queue(all.size(), MorselWorkers(pool), cfg);
  std::vector<std::vector<RowId>> locals(queue.slots());
  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    locals[c.slot] =
        SkylineSFSRows(view,
                       std::span<const RowId>(all).subspan(
                           static_cast<size_t>(c.begin),
                           static_cast<size_t>(c.end - c.begin)),
                       kernel)
            .rows;
  });
  // The union of local skylines is a superset of the global skyline; one
  // SFS pass over it finishes the job.
  std::vector<RowId> candidates;
  for (const auto& l : locals) candidates.insert(candidates.end(), l.begin(), l.end());
  std::sort(candidates.begin(), candidates.end());
  std::vector<RowId> out = SkylineSFSRows(view, candidates, kernel).rows;
  return SkylineResult{std::move(out), checks.Delta()};
}

SkylineResult SkylineSFS(const DataSet& data, DomKernel kernel, ThreadPool* pool,
                         size_t morsel_rows) {
  return SkylineSFS(DataView(data), kernel, pool, morsel_rows);
}

namespace {

// One direction of the D&C merge: survivors of `candidates` not dominated
// by any member of `against`.
void MergeFilter(const DataView& view, const std::vector<RowId>& candidates,
                 const std::vector<RowId>& against, DomKernel kernel,
                 std::vector<RowId>* merged) {
  const DataSet& data = view.data();
  const auto proj = view.proj();
  const DomKernel effective = EffectiveKernel(kernel, against.size());
  if (IsBatched(effective)) {
    const DominanceKernel batch(effective);
    const TileSet tiles = MaterializeTiles(view, against);
    std::vector<Coord> scratch;
    for (RowId c : candidates) {
      const auto p = view.ProjectedRow(c, scratch);
      bool dominated = false;
      for (const Tile& t : tiles.tiles()) {
        if (batch.AnyDominator(p, t.view())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) merged->push_back(c);
    }
    return;
  }
  for (RowId c : candidates) {
    bool dominated = false;
    for (RowId a : against) {
      if (Dominates(data.row(a), data.row(c), proj)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) merged->push_back(c);
  }
}

// Recursive worker over an index range [begin, end) of `rows`. Rows are
// reordered in place; returns the skyline rows of the range. `split_vd`
// is a VIEW dimension (an index into view.proj()).
std::vector<RowId> DCRec(const DataView& view, std::vector<RowId>& rows, size_t begin,
                         size_t end, Dim split_vd, size_t leaf_size,
                         DomKernel kernel) {
  const size_t n = end - begin;
  if (n <= leaf_size) {
    // BNL over the small range.
    return BnlWindow(view, std::span<const RowId>(rows).subspan(begin, n), kernel);
  }

  // Split at the median of the current dimension (ties may straddle the
  // pivot; the merge below is tie-safe regardless).
  const size_t mid = begin + n / 2;
  std::nth_element(rows.begin() + static_cast<ptrdiff_t>(begin),
                   rows.begin() + static_cast<ptrdiff_t>(mid),
                   rows.begin() + static_cast<ptrdiff_t>(end),
                   [&](RowId a, RowId b) {
                     return view.at(a, split_vd) < view.at(b, split_vd);
                   });
  const Dim next_vd = static_cast<Dim>((split_vd + 1) % view.dims());
  std::vector<RowId> left = DCRec(view, rows, begin, mid, next_vd, leaf_size, kernel);
  std::vector<RowId> right = DCRec(view, rows, mid, end, next_vd, leaf_size, kernel);

  // Merge: a left candidate survives unless some right candidate dominates
  // it, and vice versa (both directions needed when split values tie).
  std::vector<RowId> merged;
  merged.reserve(left.size() + right.size());
  MergeFilter(view, left, right, kernel, &merged);
  MergeFilter(view, right, left, kernel, &merged);
  return merged;
}

}  // namespace

std::vector<RowId> CrossFilterMerge(const DataView& view, const std::vector<RowId>& a,
                                    const std::vector<RowId>& b, DomKernel kernel) {
  std::vector<RowId> merged;
  merged.reserve(a.size() + b.size());
  MergeFilter(view, a, b, kernel, &merged);
  MergeFilter(view, b, a, kernel, &merged);
  return merged;
}

SkylineResult SkylineDC(const DataView& view, size_t leaf_size, DomKernel kernel) {
  CheckScope checks;
  std::vector<RowId> rows = view.rows();
  std::vector<RowId> skyline =
      rows.empty() ? std::vector<RowId>{}
                   : DCRec(view, rows, 0, rows.size(), 0, std::max<size_t>(1, leaf_size),
                           kernel);
  std::sort(skyline.begin(), skyline.end());
  return SkylineResult{std::move(skyline), checks.Delta()};
}

SkylineResult SkylineDC(const DataSet& data, size_t leaf_size, DomKernel kernel) {
  return SkylineDC(DataView(data), leaf_size, kernel);
}

SkylineResult SkylineSharded(const DataView& view, size_t shards, DomKernel kernel,
                             ThreadPool* pool) {
  CheckScope checks;
  const std::vector<RowId>& all = view.rows();
  if (all.empty()) return SkylineResult{{}, checks.Delta()};
  shards = std::clamp<size_t>(shards, 1, all.size());
  const size_t chunk = (all.size() + shards - 1) / shards;
  const size_t populated = (all.size() + chunk - 1) / chunk;

  // Shard phase: each contiguous chunk's local skyline (absolute row ids).
  // The claim unit is one shard (morsel_rows = 1, batch = 1), so slot ==
  // shard id.
  MorselConfig cfg;
  cfg.morsel_rows = 1;
  cfg.batch_morsels = 1;
  MorselQueue queue(populated, MorselWorkers(pool), cfg);
  std::vector<std::vector<RowId>> locals(populated);
  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    const size_t begin = c.slot * chunk;
    const size_t end = std::min(begin + chunk, all.size());
    locals[c.slot] =
        SkylineSFSRows(view, std::span<const RowId>(all).subspan(begin, end - begin),
                       kernel)
            .rows;
  });

  // Merge phase: fold the local antichains with the D&C cross-filter in
  // shard order — the skyline of a union is the cross-filtered union of
  // the skylines.
  std::vector<RowId> merged = std::move(locals.front());
  for (size_t s = 1; s < locals.size(); ++s) {
    merged = CrossFilterMerge(view, merged, locals[s], kernel);
  }
  std::sort(merged.begin(), merged.end());
  return SkylineResult{std::move(merged), checks.Delta()};
}

namespace {

// BBS over any backend exposing ReadNode / root / dims / size: validate,
// then drain the unified tile-aware traversal (bbs_scan.h) — the batch
// and progressive paths are the same code, so check counts, emission
// order, and pruning behaviour cannot diverge between them.
template <typename Tree>
Result<SkylineResult> SkylineBBSImpl(const DataView& view, const Tree& tree,
                                     DomKernel kernel) {
  if (tree.dims() != view.data().dims()) {
    return Status::InvalidArgument("tree dimensionality does not match dataset");
  }
  if (tree.size() != view.data().size()) {
    return Status::InvalidArgument("tree cardinality does not match dataset");
  }
  CheckScope checks;
  BbsScan<Tree> scan(view, tree, kernel);
  while (scan.Next()) {
  }
  // Disk-backed scans end early on a page-read failure (truncated file,
  // corrupt page); the iterator parks the error rather than emitting a
  // partial skyline as if it were complete.
  SKYDIVER_RETURN_NOT_OK(scan.status());
  std::vector<RowId> skyline = scan.emitted();
  std::sort(skyline.begin(), skyline.end());
  return SkylineResult{std::move(skyline), checks.Delta()};
}

}  // namespace

Result<SkylineResult> SkylineBBS(const DataView& view, const RTree& tree,
                                 DomKernel kernel) {
  return SkylineBBSImpl(view, tree, kernel);
}

Result<SkylineResult> SkylineBBS(const DataSet& data, const RTree& tree,
                                 DomKernel kernel) {
  return SkylineBBSImpl(DataView(data), tree, kernel);
}

Result<SkylineResult> SkylineBBS(const DataView& view, const DiskRTree& tree,
                                 DomKernel kernel) {
  return SkylineBBSImpl(view, tree, kernel);
}

Result<SkylineResult> SkylineBBS(const DataSet& data, const DiskRTree& tree,
                                 DomKernel kernel) {
  return SkylineBBSImpl(DataView(data), tree, kernel);
}

bool IsSkyline(const DataSet& data, const std::vector<RowId>& rows) {
  const RowId n = data.size();
  std::vector<bool> in_result(n, false);
  for (RowId r : rows) {
    if (r >= n) return false;
    in_result[r] = true;
  }
  for (RowId r = 0; r < n; ++r) {
    bool dominated = false;
    for (RowId q = 0; q < n; ++q) {
      if (q != r && Dominates(data.row(q), data.row(r))) {
        dominated = true;
        break;
      }
    }
    if (dominated == in_result[r]) return false;  // must be in iff not dominated
  }
  return true;
}

bool IsSkyline(const DataView& view, const std::vector<RowId>& rows) {
  const DataSet& data = view.data();
  const auto proj = view.proj();
  const RowId n = data.size();
  std::vector<bool> in_result(n, false);
  for (RowId r : rows) {
    if (r >= n || !view.InBox(data.row(r))) return false;
    in_result[r] = true;
  }
  const std::vector<RowId>& universe = view.rows();
  for (RowId r : universe) {
    bool dominated = false;
    for (RowId q : universe) {
      if (q != r && Dominates(data.row(q), data.row(r), proj)) {
        dominated = true;
        break;
      }
    }
    if (dominated == in_result[r]) return false;  // must be in iff not dominated
  }
  return true;
}

Status ValidateSkylineRows(std::span<const RowId> rows, size_t n) {
  if (rows.empty()) return Status::InvalidArgument("skyline row set is empty");
  RowId prev = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= n) {
      return Status::InvalidArgument("skyline row " + std::to_string(rows[i]) +
                                     " is out of range for n = " + std::to_string(n));
    }
    if (i > 0 && rows[i] <= prev) {
      return Status::InvalidArgument(
          "skyline rows are not strictly ascending at index " + std::to_string(i));
    }
    prev = rows[i];
  }
  return Status::OK();
}

Status ValidateSkylineRows(std::span<const RowId> rows, const DataView& view) {
  if (rows.empty()) {
    // A constraint box may legitimately exclude every point; an empty
    // full-space skyline of non-empty data is impossible.
    if (view.constrained()) return Status::OK();
    return Status::InvalidArgument("skyline row set is empty");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSkylineRows(rows, view.data().size()));
  for (RowId r : rows) {
    if (!view.InBox(view.data().row(r))) {
      return Status::InvalidArgument("skyline row " + std::to_string(r) +
                                     " lies outside the query's constraint box");
    }
  }
  return Status::OK();
}

}  // namespace skydiver
