// Element-wise unsigned minimum of two 32-bit slot arrays — the MinHash
// merge. Every signature update in the library (a dominated row's hashes
// into a dominator's column, a bulk range minimum into each full
// dominator, and the slot-order fold of per-worker matrices) is
//
//   dst[i] = min(dst[i], src[i])   for i < n
//
// over uint32_t slots (minhash/minhash.h). Like the dominance sweeps, the
// merge has per-ISA backends in their own translation units so the AVX2
// and AVX-512 ones can be built with -mavx2 / -mavx512f without letting
// that ISA leak into code that runs before the CPU probe (common/cpu.h):
// AVX-512 merges 16 slots per `vpminud` with a masked tail, AVX2 8 slots,
// and a plain-C++ loop backs them up everywhere else (NEON hosts included
// — the compiler vectorizes it with their baseline ISA). The dispatch runs
// the best one the probe allows (kernels/isa_dispatch.h). All backends are
// exact, so the choice never changes a result bit.

#pragma once

#include <cstddef>
#include <cstdint>

namespace skydiver {

/// dst[i] = min(dst[i], src[i]) for i < n, on the backend the CPU probe
/// resolved (cached on first use). `dst` and `src` may not overlap.
void MergeMin(uint32_t* dst, const uint32_t* src, size_t n);

/// Name of the backend MergeMin runs on ("avx512", "avx2" or "portable").
const char* MergeMinBackend();

namespace kernel_internal {

using MergeMinFn = void (*)(uint32_t* dst, const uint32_t* src, size_t n);

/// Plain-C++ merge; always available.
MergeMinFn PortableMergeMin();

/// AVX2 merge (8 x uint32 `vpminud` per step); nullptr when this build
/// has no AVX2 backend.
MergeMinFn Avx2MergeMin();

/// AVX-512 merge (16 x uint32 `vpminud` per step, masked tail); nullptr
/// when this build has no AVX-512 backend.
MergeMinFn Avx512MergeMin();

}  // namespace kernel_internal

}  // namespace skydiver
