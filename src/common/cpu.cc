#include "common/cpu.h"

#include <cstdlib>
#include <string_view>

namespace skydiver {

const char* ToString(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kNone: return "none";
    case SimdIsa::kPortable: return "portable";
    case SimdIsa::kAvx2: return "avx2";
    case SimdIsa::kAvx512: return "avx512";
    case SimdIsa::kNeon: return "neon";
  }
  return "?";
}

SimdIsa ProbeSimdIsa() {
#if defined(__aarch64__)
  // Advanced SIMD is mandatory in AArch64; no HWCAP read needed.
  return SimdIsa::kNeon;
#elif (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  if (!__builtin_cpu_supports("avx2")) return SimdIsa::kNone;
  return __builtin_cpu_supports("avx512f") ? SimdIsa::kAvx512 : SimdIsa::kAvx2;
#else
  return SimdIsa::kNone;
#endif
}

SimdIsa ApplyIsaOverride(SimdIsa probed, const char* force) {
  if (force == nullptr) return probed;
  const std::string_view name(force);
  if (name.empty()) return probed;
  if (name == "scalar" || name == "none") return SimdIsa::kNone;
  if (name == "portable") return SimdIsa::kPortable;
  // A named ISA can only be kept, never enabled: forcing one the probe did
  // not find reports kNone (fail safe — we must never execute instructions
  // the hardware lacks).
  if (name == "avx512") return probed == SimdIsa::kAvx512 ? probed : SimdIsa::kNone;
  // An override only restricts, so "avx2" caps an AVX-512 probe at AVX2.
  if (name == "avx2") return IncludesAvx2(probed) ? SimdIsa::kAvx2 : SimdIsa::kNone;
  if (name == "neon") return probed == SimdIsa::kNeon ? probed : SimdIsa::kNone;
  return probed;  // unrecognized values are ignored
}

SimdIsa DetectSimdIsa() {
  static const SimdIsa resolved =
      ApplyIsaOverride(ProbeSimdIsa(), std::getenv("SKYDIVER_FORCE_ISA"));
  return resolved;
}

bool HostRuns(SimdIsa isa) {
  const SimdIsa probed = ProbeSimdIsa();
  switch (isa) {
    case SimdIsa::kNone:
    case SimdIsa::kPortable: return true;
    case SimdIsa::kAvx2: return IncludesAvx2(probed);
    case SimdIsa::kAvx512:
    case SimdIsa::kNeon: return probed == isa;
  }
  return false;
}

bool SimdAvailable() { return DetectSimdIsa() != SimdIsa::kNone; }

}  // namespace skydiver
