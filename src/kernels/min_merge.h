// Element-wise unsigned minimum of two 32-bit slot arrays — the MinHash
// merge. Every signature update in the library (a dominated row's hashes
// into a dominator's column, a bulk range minimum into each full
// dominator, and the slot-order fold of per-worker matrices) is
//
//   dst[i] = min(dst[i], src[i])   for i < n
//
// over uint32_t slots (minhash/minhash.h). Like the dominance sweeps, the
// merge has per-ISA backends in their own translation units so the AVX2
// one can be built with -mavx2 without letting that ISA leak into code
// that runs before the CPU probe (common/cpu.h): AVX2 merges 8 slots per
// `vpminud`, and a plain-C++ loop backs it up everywhere else (NEON hosts
// included — the compiler vectorizes it with their baseline ISA). All
// backends are exact, so the choice never changes a result bit.

#pragma once

#include <cstddef>
#include <cstdint>

namespace skydiver {

/// dst[i] = min(dst[i], src[i]) for i < n, on the backend the CPU probe
/// resolved (cached on first use). `dst` and `src` may not overlap.
void MergeMin(uint32_t* dst, const uint32_t* src, size_t n);

/// Name of the backend MergeMin runs on ("avx2" or "portable").
const char* MergeMinBackend();

namespace kernel_internal {

using MergeMinFn = void (*)(uint32_t* dst, const uint32_t* src, size_t n);

/// Plain-C++ merge; always available.
MergeMinFn PortableMergeMin();

/// AVX2 merge (8 x uint32 `vpminud` per step); nullptr when this build
/// has no AVX2 backend.
MergeMinFn Avx2MergeMin();

}  // namespace kernel_internal

}  // namespace skydiver
