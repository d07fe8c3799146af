// AVX-512 lane-agreement row: 16 x uint32 lanes per `vpcmpeqd` into a
// mask register, counted with popcnt; the partial last step compares
// under a lane mask. Built with -mavx512f (see CMakeLists.txt); the
// dispatch in agree_row.cc only hands this backend out after the runtime
// probe (common/cpu.h) has confirmed AVX-512.

#include "kernels/agree_row.h"

#include <bit>

#if defined(__AVX512F__)
#include <immintrin.h>
#endif

namespace skydiver::kernel_internal {

#if defined(__AVX512F__)

namespace {

void AgreeRowAvx512Impl(const uint32_t* pivot, const uint32_t* columns, size_t width,
                        size_t n, const uint8_t* skip, uint32_t* agree) {
  const size_t full = width / 16 * 16;
  const __mmask16 tail = static_cast<__mmask16>((1u << (width - full)) - 1);
  // The pivot's tail lanes, loaded once (masked-off lanes are not read).
  const __m512i pivot_tail = _mm512_maskz_loadu_epi32(tail, pivot + full);
  for (size_t j = 0; j < n; ++j) {
    if (skip != nullptr && skip[j] != 0) continue;
    const uint32_t* c = columns + j * width;
    uint32_t count = 0;
    for (size_t l = 0; l < full; l += 16) {
      const __m512i a = _mm512_loadu_si512(c + l);
      const __m512i b = _mm512_loadu_si512(pivot + l);
      count += static_cast<uint32_t>(
          std::popcount(static_cast<uint32_t>(_mm512_cmpeq_epi32_mask(a, b))));
    }
    if (full < width) {
      const __m512i a = _mm512_maskz_loadu_epi32(tail, c + full);
      count += static_cast<uint32_t>(std::popcount(
          static_cast<uint32_t>(_mm512_mask_cmpeq_epi32_mask(tail, a, pivot_tail))));
    }
    agree[j] = count;
  }
}

}  // namespace

AgreeRowFn Avx512AgreeRow() { return &AgreeRowAvx512Impl; }

#else

AgreeRowFn Avx512AgreeRow() { return nullptr; }

#endif

}  // namespace skydiver::kernel_internal
