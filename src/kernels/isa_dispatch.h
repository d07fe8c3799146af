// The one ranking rule of the per-ISA kernels (dominance sweep, MinHash
// merge, agreement row): given the resolved ISA level and the backends
// this build compiled (nullptr = not compiled in), run avx512, then avx2,
// then portable; NEON hosts run the neon backend where one exists.

#pragma once

#include "common/cpu.h"

namespace skydiver::kernel_internal {

/// A kernel backend and its name ("avx512", "avx2", "neon", "portable").
template <typename Fn>
struct IsaBackend {
  Fn fn;
  const char* name;
};

/// Each of the four candidates is the backend's getter result; only
/// `portable` must be non-null.
template <typename Fn>
IsaBackend<Fn> PickBackend(SimdIsa isa, Fn avx512, Fn avx2, Fn neon, Fn portable) {
  if (isa == SimdIsa::kAvx512 && avx512 != nullptr) return {avx512, "avx512"};
  if (IncludesAvx2(isa) && avx2 != nullptr) return {avx2, "avx2"};
  if (isa == SimdIsa::kNeon && neon != nullptr) return {neon, "neon"};
  return {portable, "portable"};
}

}  // namespace skydiver::kernel_internal
