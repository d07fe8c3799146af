// Portable MinHash merge and the runtime dispatch. This TU is never built
// with ISA flags: it holds the fallback the dispatch must be able to run
// on any host.

#include "kernels/min_merge.h"

#include "common/cpu.h"
#include "kernels/isa_dispatch.h"

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

const kernel_internal::IsaBackend<kernel_internal::MergeMinFn>& Resolved() {
  static const auto backend = kernel_internal::PickBackend(
      DetectSimdIsa(), kernel_internal::Avx512MergeMin(), kernel_internal::Avx2MergeMin(),
      kernel_internal::MergeMinFn{nullptr}, kernel_internal::PortableMergeMin());
  return backend;
}

}  // namespace

void MergeMin(uint32_t* dst, const uint32_t* src, size_t n) { Resolved().fn(dst, src, n); }

const char* MergeMinBackend() { return Resolved().name; }

}  // namespace skydiver
