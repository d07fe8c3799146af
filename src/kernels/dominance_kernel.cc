#include "kernels/dominance_kernel.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "kernels/isa_dispatch.h"
#include "kernels/simd_sweep.h"

namespace skydiver {

const char* ToString(DomKernel kernel) {
  switch (kernel) {
    case DomKernel::kScalar: return "scalar";
    case DomKernel::kTiled: return "tiled";
    case DomKernel::kSimd: return "simd";
  }
  return "?";
}

Result<DomKernel> ParseDomKernel(std::string_view name) {
  if (name == "scalar") return DomKernel::kScalar;
  if (name == "tiled") return DomKernel::kTiled;
  if (name == "simd") return DomKernel::kSimd;
  return Status::InvalidArgument("unknown dominance kernel '" + std::string(name) +
                                 "' (expected 'scalar', 'tiled' or 'simd')");
}

namespace kernel_internal {

/// One resolved implementation per flavour; every DominanceKernel entry
/// point forwards through exactly one of these tables, so adding a
/// flavour means adding a table — call sites never branch on the kind.
/// Each entry takes the kernel's sweep backend first; only the simd
/// flavour reads it.
struct KernelOps {
  uint64_t (*filter_dominated)(SweepFn sweep, std::span<const Coord> p,
                               const TileView& tile);
  uint64_t (*filter_dominators)(SweepFn sweep, std::span<const Coord> p,
                                const TileView& tile);
  uint64_t (*filter_weakly_dominated)(SweepFn sweep, std::span<const Coord> p,
                                      const TileView& tile);
  bool (*any_dominator)(SweepFn sweep, std::span<const Coord> p, const TileView& tile);
  BlockClassification (*classify_block)(SweepFn sweep, std::span<const Coord> p,
                                        const TileView& tile);
  uint64_t (*prune_corners)(SweepFn sweep, const TileView& corners,
                            const TileView& skyline);
};

/// The best sweep a host at `isa` runs: avx512, then avx2, then portable;
/// neon on kNeon.
IsaBackend<SweepFn> SweepFor(SimdIsa isa) {
  return PickBackend(isa, Avx512Sweep(), Avx2Sweep(), NeonSweep(), PortableSweep());
}

}  // namespace kernel_internal

namespace {

using kernel_internal::IsaBackend;
using kernel_internal::KernelOps;
using kernel_internal::SweepFn;
using kernel_internal::SweepStop;

// The batched counting rule: one point-level test per (probe, row) pair.
void ChargeTile(const TileView& tile) {
  DominanceCounter::Count() += tile.rows;
  DominanceCounter::TiledCount() += tile.rows;
}

// -------------------------------------------------------------------------
// Scalar flavour: per-row calls with the pre-kernel loops' early exits.
// -------------------------------------------------------------------------

uint64_t ScalarFilterDominated(SweepFn, std::span<const Coord> p, const TileView& tile) {
  uint64_t mask = 0;
  for (size_t r = 0; r < tile.rows; ++r) {
    ++DominanceCounter::Count();
    bool strictly_better = false;
    bool dominated = true;
    for (size_t d = 0; d < tile.dims; ++d) {
      const Coord pd = p[d];
      const Coord rv = tile.at(r, d);
      if (pd > rv) {
        dominated = false;
        break;
      }
      if (pd < rv) strictly_better = true;
    }
    if (dominated && strictly_better) mask |= uint64_t{1} << r;
  }
  return mask;
}

uint64_t ScalarFilterDominators(SweepFn, std::span<const Coord> p, const TileView& tile) {
  uint64_t mask = 0;
  for (size_t r = 0; r < tile.rows; ++r) {
    ++DominanceCounter::Count();
    bool strictly_better = false;
    bool dominates = true;
    for (size_t d = 0; d < tile.dims; ++d) {
      const Coord pd = p[d];
      const Coord rv = tile.at(r, d);
      if (rv > pd) {
        dominates = false;
        break;
      }
      if (rv < pd) strictly_better = true;
    }
    if (dominates && strictly_better) mask |= uint64_t{1} << r;
  }
  return mask;
}

uint64_t ScalarFilterWeaklyDominated(SweepFn, std::span<const Coord> p,
                                     const TileView& tile) {
  uint64_t mask = 0;
  for (size_t r = 0; r < tile.rows; ++r) {
    ++DominanceCounter::Count();
    bool weakly = true;
    for (size_t d = 0; d < tile.dims; ++d) {
      if (p[d] > tile.at(r, d)) {
        weakly = false;
        break;
      }
    }
    if (weakly) mask |= uint64_t{1} << r;
  }
  return mask;
}

bool ScalarAnyDominator(SweepFn, std::span<const Coord> p, const TileView& tile) {
  for (size_t r = 0; r < tile.rows; ++r) {
    ++DominanceCounter::Count();
    bool strictly_better = false;
    bool dominates = true;
    for (size_t d = 0; d < tile.dims; ++d) {
      const Coord pd = p[d];
      const Coord rv = tile.at(r, d);
      if (rv > pd) {
        dominates = false;
        break;
      }
      if (rv < pd) strictly_better = true;
    }
    if (dominates && strictly_better) return true;
  }
  return false;
}

BlockClassification ScalarClassifyBlock(SweepFn, std::span<const Coord> p,
                                        const TileView& tile) {
  BlockClassification out;
  for (size_t r = 0; r < tile.rows; ++r) {
    ++DominanceCounter::Count();
    bool p_better = false;
    bool r_better = false;
    for (size_t d = 0; d < tile.dims; ++d) {
      const Coord pd = p[d];
      const Coord rv = tile.at(r, d);
      if (pd < rv) {
        p_better = true;
      } else if (rv < pd) {
        r_better = true;
      }
      if (p_better && r_better) break;
    }
    if (p_better && !r_better) out.dominated |= uint64_t{1} << r;
    if (r_better && !p_better) out.dominators |= uint64_t{1} << r;
  }
  return out;
}

uint64_t ScalarPruneCorners(SweepFn, const TileView& corners, const TileView& skyline) {
  uint64_t pruned = 0;
  for (size_t c = 0; c < corners.rows; ++c) {
    for (size_t s = 0; s < skyline.rows; ++s) {
      ++DominanceCounter::Count();
      bool strictly_better = false;
      bool dominates = true;
      for (size_t d = 0; d < corners.dims; ++d) {
        const Coord cv = corners.at(c, d);
        const Coord sv = skyline.at(s, d);
        if (sv > cv) {
          dominates = false;
          break;
        }
        if (sv < cv) strictly_better = true;
      }
      if (dominates && strictly_better) {
        pruned |= uint64_t{1} << c;
        break;  // first dominator settles this corner
      }
    }
  }
  return pruned;
}

constexpr KernelOps kScalarOps = {
    &ScalarFilterDominated,       &ScalarFilterDominators,
    &ScalarFilterWeaklyDominated, &ScalarAnyDominator,
    &ScalarClassifyBlock,         &ScalarPruneCorners,
};

// -------------------------------------------------------------------------
// Tiled flavour: branch-free byte-flag sweeps (the autovectorized layout).
// -------------------------------------------------------------------------

// Per-row comparison flags accumulated across one dimension sweep:
// lt[r] != 0 iff the probe is strictly less than row r on some dimension,
// gt[r] != 0 iff strictly greater on some dimension. Every dominance
// outcome is a boolean function of (lt[r], gt[r]):
//   probe dominates row r   <=>  lt[r] && !gt[r]
//   row r dominates probe   <=>  gt[r] && !lt[r]
//   probe weakly <= row r   <=>  !gt[r]
//   equal                   <=>  !lt[r] && !gt[r]
// The two inner loops are branch-free byte ops over a 64-entry column —
// the layout the compiler's vectorizer was built for.
struct SweepFlags {
  alignas(kTileRows) uint8_t lt[kTileRows];
  alignas(kTileRows) uint8_t gt[kTileRows];
};

// The sweep may stop early once every row's outcome is frozen: with lt[r]
// set row r can never dominate the probe, with gt[r] set it can never be
// (weakly) dominated, and with both set the pair is incomparable for good.
// Callers pick the weakest condition covering the flags they read; the
// dominance charge is per (probe, row) pair and unaffected by how many
// dimensions the sweep actually visited.
enum class StopWhen : uint8_t { kNever, kAllLt, kAllGt, kAllBoth };

template <StopWhen kStop>
void SweepImpl(std::span<const Coord> p, const TileView& tile, SweepFlags* flags) {
  std::memset(flags->lt, 0, sizeof(flags->lt));
  std::memset(flags->gt, 0, sizeof(flags->gt));
  const size_t rows = tile.rows;
  for (size_t d = 0; d < tile.dims; ++d) {
    const Coord pd = p[d];
    const Coord* col = tile.cols + d * kTileRows;
    for (size_t r = 0; r < rows; ++r) {
      flags->lt[r] |= static_cast<uint8_t>(pd < col[r]);
      flags->gt[r] |= static_cast<uint8_t>(pd > col[r]);
    }
    if constexpr (kStop != StopWhen::kNever) {
      uint8_t frozen = 1;  // flag bytes are 0/1, so AND-reduction works
      for (size_t r = 0; r < rows; ++r) {
        if constexpr (kStop == StopWhen::kAllLt) {
          frozen &= flags->lt[r];
        } else if constexpr (kStop == StopWhen::kAllGt) {
          frozen &= flags->gt[r];
        } else {
          frozen &= static_cast<uint8_t>(flags->lt[r] & flags->gt[r]);
        }
      }
      if (frozen) return;
    }
  }
}

// Packs `take(r)` over the occupied rows into a bitmask.
template <typename Fn>
uint64_t Pack(const TileView& tile, Fn take) {
  uint64_t mask = 0;
  for (size_t r = 0; r < tile.rows; ++r) {
    mask |= static_cast<uint64_t>(take(r) ? 1 : 0) << r;
  }
  return mask;
}

uint64_t TiledFilterDominated(SweepFn, std::span<const Coord> p, const TileView& tile) {
  SweepFlags flags;
  SweepImpl<StopWhen::kAllGt>(p, tile, &flags);
  ChargeTile(tile);
  return Pack(tile, [&](size_t r) { return flags.lt[r] && !flags.gt[r]; });
}

uint64_t TiledFilterDominators(SweepFn, std::span<const Coord> p, const TileView& tile) {
  SweepFlags flags;
  SweepImpl<StopWhen::kAllLt>(p, tile, &flags);
  ChargeTile(tile);
  return Pack(tile, [&](size_t r) { return flags.gt[r] && !flags.lt[r]; });
}

uint64_t TiledFilterWeaklyDominated(SweepFn, std::span<const Coord> p,
                                    const TileView& tile) {
  SweepFlags flags;
  SweepImpl<StopWhen::kAllGt>(p, tile, &flags);
  ChargeTile(tile);
  return Pack(tile, [&](size_t r) { return !flags.gt[r]; });
}

bool TiledAnyDominator(SweepFn sweep, std::span<const Coord> p, const TileView& tile) {
  return TiledFilterDominators(sweep, p, tile) != 0;
}

BlockClassification TiledClassifyBlock(SweepFn, std::span<const Coord> p,
                                       const TileView& tile) {
  SweepFlags flags;
  SweepImpl<StopWhen::kAllBoth>(p, tile, &flags);
  ChargeTile(tile);
  BlockClassification out;
  out.dominated = Pack(tile, [&](size_t r) { return flags.lt[r] && !flags.gt[r]; });
  out.dominators = Pack(tile, [&](size_t r) { return flags.gt[r] && !flags.lt[r]; });
  return out;
}

// Transposes one tile row back into a contiguous probe for the sweeps.
// Thread-local scratch keeps the batched PruneCorners allocation-free in
// steady state (and race-free under the pooled backends).
std::span<const Coord> GatherRow(const TileView& tile, size_t r) {
  thread_local std::vector<Coord> buf;
  if (buf.size() < tile.dims) buf.resize(tile.dims);
  for (size_t d = 0; d < tile.dims; ++d) buf[d] = tile.at(r, d);
  return std::span<const Coord>(buf.data(), tile.dims);
}

// Componentwise maximum of a tile's occupied rows — the hi-corner of the
// tile's own bounding box. A NaN anywhere in a column makes that
// dimension's ceiling NaN: a NaN corner ties with every skyline value, so
// no number bounds the rows that may dominate it, and a NaN ceiling (a tie
// with every row) screens none out. Thread-local scratch for the same
// reason as GatherRow's.
std::span<const Coord> TileCeiling(const TileView& tile) {
  thread_local std::vector<Coord> ceiling;
  if (ceiling.size() < tile.dims) ceiling.resize(tile.dims);
  for (size_t d = 0; d < tile.dims; ++d) {
    const Coord* col = tile.cols + d * kTileRows;
    Coord hi = col[0];
    bool nan = false;
    for (size_t r = 0; r < tile.rows; ++r) {
      nan |= std::isnan(col[r]);
      hi = col[r] > hi ? col[r] : hi;
    }
    ceiling[d] = nan ? std::numeric_limits<Coord>::quiet_NaN() : hi;
  }
  return std::span<const Coord>(ceiling.data(), tile.dims);
}

// The batched prune screens the skyline tile before sweeping it: a
// skyline row can dominate SOME corner only if it sits at or below the
// corner tile's CEILING (the componentwise max) on every dimension, and
// one sweep of the ceiling over the skyline tile finds all such candidate
// rows at once. Corners are R-tree siblings — a tight box — so most
// skyline tiles hold no candidate at all and the whole (node, tile) pair
// retires for the cost of that single sweep, where the per-entry
// formulation pays one full skyline sweep per undecided corner. Each
// surviving candidate is then swept across the corner tile (transposed:
// probe = skyline row, tile = corners), accumulating the pruned mask and
// stopping once it saturates.
uint64_t TiledPruneCorners(SweepFn, const TileView& corners, const TileView& skyline) {
  if (corners.rows == 0 || skyline.rows == 0) return 0;
  SweepFlags screen;
  SweepImpl<StopWhen::kAllLt>(TileCeiling(corners), skyline, &screen);
  ChargeTile(skyline);  // the screen: one virtual probe against every row
  const uint64_t full = corners.FullMask();
  uint64_t pruned = 0;
  SweepFlags flags;
  for (size_t s = 0; s < skyline.rows && pruned != full; ++s) {
    if (screen.lt[s]) continue;  // row exceeds the ceiling somewhere
    SweepImpl<StopWhen::kAllGt>(GatherRow(skyline, s), corners, &flags);
    ChargeTile(corners);
    for (size_t c = 0; c < corners.rows; ++c) {
      if (flags.lt[c] && !flags.gt[c]) pruned |= uint64_t{1} << c;
    }
  }
  return pruned;
}

constexpr KernelOps kTiledOps = {
    &TiledFilterDominated,       &TiledFilterDominators,
    &TiledFilterWeaklyDominated, &TiledAnyDominator,
    &TiledClassifyBlock,         &TiledPruneCorners,
};

// -------------------------------------------------------------------------
// Simd flavour: word-mask sweeps on the kernel's sweep backend (AVX-512 /
// AVX2 / NEON / portable), picked at construction from the cached CPU
// probe unless a test or bench names one. Every entry point derives its
// mask from the same (lt, gt) words the tiled flavour keeps as bytes, so
// masks are bit-identical across all flavours and backends by
// construction.
// -------------------------------------------------------------------------

const IsaBackend<SweepFn>& ResolvedSweep() {
  static const IsaBackend<SweepFn> backend = kernel_internal::SweepFor(DetectSimdIsa());
  return backend;
}

uint64_t SimdFilterDominated(SweepFn sweep, std::span<const Coord> p,
                             const TileView& tile) {
  uint64_t lt = 0, gt = 0;
  sweep(p.data(), tile, SweepStop::kAllGt, &lt, &gt);
  ChargeTile(tile);
  return lt & ~gt;
}

uint64_t SimdFilterDominators(SweepFn sweep, std::span<const Coord> p,
                              const TileView& tile) {
  uint64_t lt = 0, gt = 0;
  sweep(p.data(), tile, SweepStop::kAllLt, &lt, &gt);
  ChargeTile(tile);
  return gt & ~lt;
}

uint64_t SimdFilterWeaklyDominated(SweepFn sweep, std::span<const Coord> p,
                                   const TileView& tile) {
  uint64_t lt = 0, gt = 0;
  sweep(p.data(), tile, SweepStop::kAllGt, &lt, &gt);
  ChargeTile(tile);
  return tile.FullMask() & ~gt;
}

bool SimdAnyDominator(SweepFn sweep, std::span<const Coord> p, const TileView& tile) {
  return SimdFilterDominators(sweep, p, tile) != 0;
}

BlockClassification SimdClassifyBlock(SweepFn sweep, std::span<const Coord> p,
                                      const TileView& tile) {
  uint64_t lt = 0, gt = 0;
  sweep(p.data(), tile, SweepStop::kAllBoth, &lt, &gt);
  ChargeTile(tile);
  return BlockClassification{lt & ~gt, gt & ~lt};
}

uint64_t SimdPruneCorners(SweepFn sweep, const TileView& corners,
                          const TileView& skyline) {
  if (corners.rows == 0 || skyline.rows == 0) return 0;
  uint64_t lt = 0, gt = 0;
  sweep(TileCeiling(corners).data(), skyline, SweepStop::kAllLt, &lt, &gt);
  ChargeTile(skyline);  // the ceiling screen (see TiledPruneCorners)
  uint64_t candidates = skyline.FullMask() & ~lt;
  const uint64_t full = corners.FullMask();
  uint64_t pruned = 0;
  while (candidates != 0 && pruned != full) {
    const size_t s = static_cast<size_t>(std::countr_zero(candidates));
    candidates &= candidates - 1;
    sweep(GatherRow(skyline, s).data(), corners, SweepStop::kAllGt, &lt, &gt);
    ChargeTile(corners);
    pruned |= lt & ~gt;  // this skyline row strictly dominates these corners
  }
  return pruned;
}

constexpr KernelOps kSimdOps = {
    &SimdFilterDominated,       &SimdFilterDominators,
    &SimdFilterWeaklyDominated, &SimdAnyDominator,
    &SimdClassifyBlock,         &SimdPruneCorners,
};

const KernelOps* Resolve(DomKernel kind) {
  switch (kind) {
    case DomKernel::kScalar: return &kScalarOps;
    case DomKernel::kTiled: return &kTiledOps;
    case DomKernel::kSimd: return &kSimdOps;
  }
  return &kScalarOps;
}

}  // namespace

DominanceKernel::DominanceKernel(DomKernel kind)
    : kind_(kind),
      ops_(Resolve(kind)),
      sweep_(kind == DomKernel::kSimd ? ResolvedSweep().fn : nullptr) {}

DominanceKernel DominanceKernel::SimdAt(SimdIsa isa) {
  DominanceKernel kernel(DomKernel::kSimd);
  kernel.sweep_ = kernel_internal::SweepFor(isa).fn;
  return kernel;
}

const char* SweepBackend() { return ResolvedSweep().name; }

uint64_t DominanceKernel::FilterDominated(std::span<const Coord> p,
                                          const TileView& tile) const {
  return ops_->filter_dominated(sweep_, p, tile);
}

uint64_t DominanceKernel::FilterDominators(std::span<const Coord> p,
                                           const TileView& tile) const {
  return ops_->filter_dominators(sweep_, p, tile);
}

uint64_t DominanceKernel::FilterWeaklyDominated(std::span<const Coord> p,
                                                const TileView& tile) const {
  return ops_->filter_weakly_dominated(sweep_, p, tile);
}

bool DominanceKernel::AnyDominator(std::span<const Coord> p,
                                   const TileView& tile) const {
  return ops_->any_dominator(sweep_, p, tile);
}

BlockClassification DominanceKernel::ClassifyBlock(std::span<const Coord> p,
                                                   const TileView& tile) const {
  return ops_->classify_block(sweep_, p, tile);
}

uint64_t DominanceKernel::PruneCorners(const TileView& corners,
                                       const TileView& skyline) const {
  return ops_->prune_corners(sweep_, corners, skyline);
}

}  // namespace skydiver
