// AVX-512 MinHash merge: 16 x uint32 slots per `vpminud`, the partial last
// step under a lane mask. Built with -mavx512f (see CMakeLists.txt); the
// dispatch in min_merge.cc only hands this backend out after the runtime
// probe (common/cpu.h) has confirmed AVX-512.

#include "kernels/min_merge.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX512F__)

namespace {

// The merge-masked form of `vpminud`: GCC 12's unmasked _mm512_min_epu32
// passes an undefined vector that trips -Wmaybe-uninitialized.
__m512i Min(__mmask16 lanes, __m512i a, __m512i b) {
  return _mm512_mask_min_epu32(a, lanes, a, b);
}

void MergeMinAvx512Impl(uint32_t* dst, const uint32_t* src, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i a = _mm512_loadu_si512(dst + i);
    const __m512i b = _mm512_loadu_si512(src + i);
    _mm512_storeu_si512(dst + i, Min(0xffff, a, b));
  }
  if (i < n) {
    // Masked-off lanes are neither read nor written.
    const __mmask16 tail = static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512i a = _mm512_maskz_loadu_epi32(tail, dst + i);
    const __m512i b = _mm512_maskz_loadu_epi32(tail, src + i);
    _mm512_mask_storeu_epi32(dst + i, tail, Min(tail, a, b));
  }
}

}  // namespace

MergeMinFn Avx512MergeMin() { return &MergeMinAvx512Impl; }

#else

MergeMinFn Avx512MergeMin() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
