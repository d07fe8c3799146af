// AVX-512 sweep backend: 8 x double compares straight into mask
// registers. This TU is compiled with -mavx512f (see CMakeLists.txt) and
// its body must only run after the runtime probe (common/cpu.h) has
// confirmed the ISA — which the dispatch in dominance_kernel.cc guarantees.
//
// The tile is swept in 8-row blocks, one cache line of each column. Per
// block, two masks stay in registers across the dimensions: "not lt"
// (probe not less than the row on any visited dim) and "not gt", each
// AND-accumulated by a masked compare; lt and gt are their complements.
// The unordered predicates make a NaN on either side read as a tie, as the
// ordered less/greater compares of the other backends do.
//
// Early exit: a block checks `stop` once per kExitStride dimensions, never
// per dimension, so tiles of up to 8 dimensions sweep without a branch. A
// per-dimension branch costs more than the compares it skips; past 8
// dimensions the skyline tiles outgrow the caches and a block that stops
// saves the column lines it would have read.
//
// Ragged tiles: columns are padded to kTileRows entries holding stale but
// finite doubles, so the sweep rounds the row count up to whole blocks and
// masks the junk bits off with FullMask() before returning.

#include "kernels/simd_sweep.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX512F__)

namespace {

constexpr size_t kExitStride = 8;

template <SweepStop kStop>
void SweepAvx512Impl(const Coord* p, const TileView& tile, uint64_t* lt_out,
                     uint64_t* gt_out) {
  const size_t dims = tile.dims;
  const size_t blocks = (tile.rows + 7) / 8;
  const uint64_t full = tile.FullMask();
  uint64_t lt = 0;
  uint64_t gt = 0;
  for (size_t b = 0; b < blocks; ++b) {
    const Coord* block = tile.cols + b * 8;
    const unsigned occupied = static_cast<uint8_t>(full >> (b * 8));
    __mmask8 not_lt = 0xff;
    __mmask8 not_gt = 0xff;
    for (size_t d = 0;;) {
      const size_t end = dims - d > kExitStride ? d + kExitStride : dims;
      for (; d < end; ++d) {
        const __m512d pv = _mm512_set1_pd(p[d]);
        const __m512d cv = _mm512_loadu_pd(block + d * kTileRows);
        not_lt = _mm512_mask_cmp_pd_mask(not_lt, pv, cv, _CMP_NLT_UQ);
        not_gt = _mm512_mask_cmp_pd_mask(not_gt, pv, cv, _CMP_NGT_UQ);
      }
      if (d == dims) break;
      // Frozen: every occupied row has the flag(s) `stop` waits for.
      unsigned open = 0;
      if constexpr (kStop == SweepStop::kNever) {
        open = occupied;
      } else if constexpr (kStop == SweepStop::kAllLt) {
        open = not_lt & occupied;
      } else if constexpr (kStop == SweepStop::kAllGt) {
        open = not_gt & occupied;
      } else {
        open = (not_lt | not_gt) & occupied;
      }
      if (open == 0) break;
    }
    lt |= static_cast<uint64_t>(static_cast<uint8_t>(~not_lt)) << (b * 8);
    gt |= static_cast<uint64_t>(static_cast<uint8_t>(~not_gt)) << (b * 8);
  }
  *lt_out = lt & full;
  *gt_out = gt & full;
}

void SweepAvx512(const Coord* p, const TileView& tile, SweepStop stop, uint64_t* lt,
                 uint64_t* gt) {
  switch (stop) {
    case SweepStop::kNever: return SweepAvx512Impl<SweepStop::kNever>(p, tile, lt, gt);
    case SweepStop::kAllLt: return SweepAvx512Impl<SweepStop::kAllLt>(p, tile, lt, gt);
    case SweepStop::kAllGt: return SweepAvx512Impl<SweepStop::kAllGt>(p, tile, lt, gt);
    case SweepStop::kAllBoth:
      return SweepAvx512Impl<SweepStop::kAllBoth>(p, tile, lt, gt);
  }
}

}  // namespace

SweepFn Avx512Sweep() { return &SweepAvx512; }

#else

SweepFn Avx512Sweep() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
