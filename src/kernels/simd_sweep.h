// Internal contract between the simd kernel flavour's dispatch point
// (dominance_kernel.cc) and its per-ISA sweep backends. Each backend
// compiles in its own translation unit so the ISA-specific ones can be
// built with the matching target flags (-mavx2, -mavx512f) without letting the
// compiler emit those instructions into code that runs before the CPUID
// probe has confirmed them.
//
// A sweep computes, for one probe against one tile, the two per-row
// comparison WORDS every dominance outcome derives from:
//
//   bit r of *lt  —  probe strictly less than row r on some visited dim
//   bit r of *gt  —  probe strictly greater than row r on some visited dim
//
// This is the word-mask analogue of the tiled flavour's byte flags: the
// ISA paths produce the bits with compare-to-mask (+ movemask on AVX2 and
// NEON) instead of byte ops. Bits at and above tile.rows are always zero
// on return. A NaN on either side compares neither less nor greater, so it
// reads as a tie in every backend, as in the scalar reference.
//
// Backends may stop sweeping dimensions early once every occupied row is
// frozen for the condition in `stop` (same contract as the tiled
// flavour's StopWhen): with gt[r] set row r can never be (weakly)
// dominated, with lt[r] set it can never dominate the probe, so the
// caller's masks are identical whether or not later dimensions were
// visited. The condition is per row, so a backend that sweeps blocks of
// rows on their own may stop each block apart (the AVX-512 backend does).
// The dominance charge is per (probe, row) pair and unaffected.

#pragma once

#include <cstdint>

#include "core/types.h"
#include "kernels/tile_view.h"

namespace skydiver::kernel_internal {

/// Which rows' flag words must saturate before a sweep may stop early.
enum class SweepStop : uint8_t { kNever, kAllLt, kAllGt, kAllBoth };

/// True once every occupied row (per `full`, the tile's FullMask) is
/// frozen for `stop`. Shared by every backend so early exits agree.
inline bool SweepFrozen(SweepStop stop, uint64_t lt, uint64_t gt, uint64_t full) {
  switch (stop) {
    case SweepStop::kNever: return false;
    case SweepStop::kAllLt: return (lt & full) == full;
    case SweepStop::kAllGt: return (gt & full) == full;
    case SweepStop::kAllBoth: return (lt & gt & full) == full;
  }
  return false;
}

// The same alias dominance_kernel.h declares for DominanceKernel's
// backend member; this header does not include it, so that the ISA
// translation units compile no more inline code than they need.
using SweepFn = void (*)(const Coord* p, const TileView& tile, SweepStop stop,
                         uint64_t* lt, uint64_t* gt);

/// Plain-C++ word-mask sweep; always available (the kSimd fallback when no
/// vector ISA is present or the forced-portable override is set).
SweepFn PortableSweep();

/// AVX2 sweep (4 x double compare + movemask); nullptr when this build has
/// no AVX2 backend (non-x86 target or a compiler without -mavx2 support).
SweepFn Avx2Sweep();

/// AVX-512 sweep (8 x double compares into mask registers); nullptr when
/// this build has no AVX-512 backend.
SweepFn Avx512Sweep();

/// NEON sweep (2 x double compare, AArch64); nullptr when not compiled in.
SweepFn NeonSweep();

}  // namespace skydiver::kernel_internal
