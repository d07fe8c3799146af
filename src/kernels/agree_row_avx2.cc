// AVX2 lane-agreement row: 8 x uint32 lanes per `vpcmpeqd`, the partial
// last step under a lane mask. Built with -mavx2 (see CMakeLists.txt); the
// dispatch in agree_row.cc only hands this backend out after the runtime
// probe (common/cpu.h) has confirmed AVX2.

#include "kernels/agree_row.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX2__)

namespace {

// Lane mask with the first `lanes` (0..8) lanes set.
__m256i TailMask(size_t lanes) {
  const __m256i index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(lanes)), index);
}

void AgreeRowAvx2Impl(const uint32_t* pivot, const uint32_t* columns, size_t width,
                      size_t n, const uint8_t* skip, uint32_t* agree) {
  const size_t full = width / 8 * 8;
  const __m256i mask = TailMask(width - full);
  const auto* p = reinterpret_cast<const int*>(pivot);
  // The pivot's tail lanes, loaded once; masked-off lanes read as 0 in
  // both operands, so the compare result is masked again below.
  const __m256i pivot_tail = _mm256_maskload_epi32(p + full, mask);
  for (size_t j = 0; j < n; ++j) {
    if (skip != nullptr && skip[j] != 0) continue;
    const auto* c = reinterpret_cast<const int*>(columns + j * width);
    // Equal lanes compare to -1: subtracting the mask counts them.
    __m256i count = _mm256_setzero_si256();
    for (size_t l = 0; l < full; l += 8) {
      const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c + l));
      const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + l));
      count = _mm256_sub_epi32(count, _mm256_cmpeq_epi32(a, b));
    }
    if (full < width) {
      const __m256i a = _mm256_maskload_epi32(c + full, mask);
      count = _mm256_sub_epi32(
          count, _mm256_and_si256(_mm256_cmpeq_epi32(a, pivot_tail), mask));
    }
    const __m128i half = _mm_add_epi32(_mm256_castsi256_si128(count),
                                       _mm256_extracti128_si256(count, 1));
    const __m128i quad = _mm_add_epi32(half, _mm_shuffle_epi32(half, 0x4e));
    const __m128i pair = _mm_add_epi32(quad, _mm_shuffle_epi32(quad, 0xb1));
    agree[j] = static_cast<uint32_t>(_mm_cvtsi128_si32(pair));
  }
}

}  // namespace

AgreeRowFn Avx2AgreeRow() { return &AgreeRowAvx2Impl; }

#else

AgreeRowFn Avx2AgreeRow() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
