// Portable lane-agreement row and the runtime dispatch. This TU is never
// built with ISA flags: it holds the fallback the dispatch must be able to
// run on any host.

#include "kernels/agree_row.h"

#include "common/cpu.h"

namespace skydiver {

namespace kernel_internal {

namespace {

uint32_t CountAgreeing(const uint32_t* a, const uint32_t* b, size_t width) {
  uint32_t agree = 0;
  for (size_t l = 0; l < width; ++l) agree += a[l] == b[l] ? 1u : 0u;
  return agree;
}

void AgreeRowPortableImpl(const uint32_t* pivot, const uint32_t* columns, size_t width,
                          size_t n, const uint8_t* skip, uint32_t* agree) {
  for (size_t j = 0; j < n; ++j) {
    if (skip != nullptr && skip[j] != 0) continue;
    agree[j] = CountAgreeing(columns + j * width, pivot, width);
  }
}

}  // namespace

AgreeRowFn PortableAgreeRow() { return &AgreeRowPortableImpl; }

}  // namespace kernel_internal

namespace {

struct ResolvedRow {
  kernel_internal::AgreeRowFn fn;
  const char* name;
};

const ResolvedRow& Resolved() {
  static const ResolvedRow resolved = [] {
    if (DetectSimdIsa() == SimdIsa::kAvx2) {
      if (const auto avx2 = kernel_internal::Avx2AgreeRow()) {
        return ResolvedRow{avx2, "avx2"};
      }
    }
    return ResolvedRow{kernel_internal::PortableAgreeRow(), "portable"};
  }();
  return resolved;
}

}  // namespace

void AgreeRow(const uint32_t* pivot, const uint32_t* columns, size_t width, size_t n,
              const uint8_t* skip, uint32_t* agree) {
  Resolved().fn(pivot, columns, width, n, skip, agree);
}

const char* AgreeRowBackend() { return Resolved().name; }

uint32_t AgreementDistance::Agreement(size_t i, size_t j) const {
  uint32_t agree = 0;
  AgreeRow(lanes + j * width, lanes + i * width, width, 1, nullptr, &agree);
  return agree;
}

}  // namespace skydiver
