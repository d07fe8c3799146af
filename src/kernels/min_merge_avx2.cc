// AVX2 MinHash merge: 8 x uint32 slots per `vpminud`. Built with -mavx2
// (see CMakeLists.txt); the dispatch in min_merge.cc only hands this
// backend out after the runtime probe (common/cpu.h) has confirmed AVX2.

#include "kernels/min_merge.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX2__)

namespace {

void MergeMinAvx2Impl(uint32_t* dst, const uint32_t* src, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i a = _mm256_loadu_si256(d);
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(d, _mm256_min_epu32(a, b));
  }
  for (; i < n; ++i) dst[i] = src[i] < dst[i] ? src[i] : dst[i];
}

}  // namespace

MergeMinFn Avx2MergeMin() { return &MergeMinAvx2Impl; }

#else

MergeMinFn Avx2MergeMin() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
