// CPU feature detection for the SIMD dominance kernels.
//
// `DetectSimdIsa()` answers "which vector ISA may the `simd` kernel
// flavour use?" once per process: AVX-512 on x86-64 hosts whose CPUID
// reports AVX-512F (ranked above AVX2, which every such host also has),
// else AVX2 where CPUID reports it, NEON on AArch64 (where Advanced SIMD
// is architecturally mandatory), and kNone elsewhere. The probe result is
// cached; every dispatch point (the kernel vtables, the planner,
// `EffectiveKernel`) reads the same resolved value, so one process never
// mixes ISAs. Each per-ISA kernel (dominance sweep, MinHash merge,
// agreement row) runs the best backend the resolved level allows: avx512,
// then avx2, then portable.
//
// The `SKYDIVER_FORCE_ISA` environment variable overrides the probe FOR
// TESTING. It can only restrict — it never enables an ISA the hardware
// lacks:
//
//   SKYDIVER_FORCE_ISA=scalar (or none)  report no vector ISA; the planner
//                                        and EffectiveKernel downgrade
//                                        kSimd plans to kTiled, proving the
//                                        fallback path in CI
//   SKYDIVER_FORCE_ISA=portable         keep the simd flavour but route it
//                                        through the portable word-mask
//                                        sweep (tests the fallback backend
//                                        on any host)
//   SKYDIVER_FORCE_ISA=avx512           keep AVX-512 if the probe found
//                                        it, otherwise report kNone
//   SKYDIVER_FORCE_ISA=avx2             cap an AVX-512 or AVX2 probe at
//                                        AVX2 (the kernels run their AVX2
//                                        backends), otherwise report kNone
//   SKYDIVER_FORCE_ISA=neon             keep NEON if the probe found it,
//                                        otherwise report kNone
//
// Unrecognized values are ignored (the probe result stands).

#pragma once

#include <cstdint>

namespace skydiver {

/// Vector ISA resolved for the `simd` dominance-kernel flavour.
enum class SimdIsa : uint8_t {
  kNone,      ///< No vector ISA: kSimd downgrades to kTiled.
  kPortable,  ///< Forced portable word-mask sweep (testing only).
  kAvx2,      ///< 4 x double lanes, compare-to-mask + movemask.
  kAvx512,    ///< 8 x double lanes, compare into mask registers.
  kNeon,      ///< 2 x double lanes (AArch64 Advanced SIMD).
};

const char* ToString(SimdIsa isa);

/// True when code built for AVX2 may run at `isa`: kAvx2, or kAvx512,
/// whose hosts all have AVX2 as well.
inline bool IncludesAvx2(SimdIsa isa) {
  return isa == SimdIsa::kAvx2 || isa == SimdIsa::kAvx512;
}

/// Raw hardware/compiler probe, uncached and override-free.
SimdIsa ProbeSimdIsa();

/// Applies a SKYDIVER_FORCE_ISA-style override string to a probe result.
/// Pure (no environment access) so the clamp rules are unit-testable;
/// `force` may be nullptr or empty (no override).
SimdIsa ApplyIsaOverride(SimdIsa probed, const char* force);

/// Cached: ApplyIsaOverride(ProbeSimdIsa(), getenv("SKYDIVER_FORCE_ISA")),
/// evaluated once on first use.
SimdIsa DetectSimdIsa();

/// True when this host can run code built for `isa` (the raw probe, no
/// override): kNone and kPortable always, kAvx2 on AVX2 and AVX-512
/// hosts, kAvx512 and kNeon only where probed. Parity tests and the kernel
/// bench use it to pick the backends they may call directly.
bool HostRuns(SimdIsa isa);

/// True when DetectSimdIsa() resolved to something the simd flavour can
/// run on (any value but kNone; the forced-portable backend counts).
bool SimdAvailable();

}  // namespace skydiver
