// Portable MinHash merge and the runtime dispatch. This TU is never built
// with ISA flags: it holds the fallback the dispatch must be able to run
// on any host.

#include "kernels/min_merge.h"

#include "common/cpu.h"

namespace skydiver {

namespace kernel_internal {

namespace {

void MergeMinPortableImpl(uint32_t* dst, const uint32_t* src, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] < dst[i] ? src[i] : dst[i];
}

}  // namespace

MergeMinFn PortableMergeMin() { return &MergeMinPortableImpl; }

}  // namespace kernel_internal

namespace {

struct ResolvedMerge {
  kernel_internal::MergeMinFn fn;
  const char* name;
};

const ResolvedMerge& Resolved() {
  static const ResolvedMerge resolved = [] {
    if (DetectSimdIsa() == SimdIsa::kAvx2) {
      if (const auto avx2 = kernel_internal::Avx2MergeMin()) {
        return ResolvedMerge{avx2, "avx2"};
      }
    }
    return ResolvedMerge{kernel_internal::PortableMergeMin(), "portable"};
  }();
  return resolved;
}

}  // namespace

void MergeMin(uint32_t* dst, const uint32_t* src, size_t n) { Resolved().fn(dst, src, n); }

const char* MergeMinBackend() { return Resolved().name; }

}  // namespace skydiver
