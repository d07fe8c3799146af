// Lane agreement of one column against many — the distance row of the
// Phase-2 greedy (diversify/dispersion.h). Both of SkyDiver's working
// distances are functions of how many uint32 lanes two columns share:
//
//   * MinHash: columns are signatures of t slots, distance 1 − agree/t
//     (paper Section 4.1);
//   * LSH: columns are the ζ zone bucket ids of a point, distance
//     2·(ζ − agree), the Hamming distance of the ζ·B-bit vectors
//     (Section 4.2.2).
//
// Each greedy round compares the newest pick against every column not yet
// taken, so the kernel computes a whole row of agreement counts at once:
//
//   agree[j] = #{ l < width : columns[j·width + l] == pivot[l] }
//
// for every j < n whose `skip[j]` is 0. Like MergeMin (min_merge.h), it has
// per-ISA backends in their own translation units: AVX2 compares 8 lanes
// per `vpcmpeqd` with a masked tail, and a plain-C++ loop backs it up
// everywhere else. Counting is exact, so the backend never changes a bit.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace skydiver {

/// agree[j] = number of lanes l < width with columns[j·width + l] ==
/// pivot[l], for every j < n with skip[j] == 0 (`skip` may be null: no
/// column is skipped). Skipped entries of `agree` are left unwritten. Runs
/// on the backend the CPU probe resolved (cached on first use).
void AgreeRow(const uint32_t* pivot, const uint32_t* columns, size_t width, size_t n,
              const uint8_t* skip, uint32_t* agree);

/// Name of the backend AgreeRow runs on ("avx2" or "portable").
const char* AgreeRowBackend();

/// A distance over points stored as the columns of a column-major matrix of
/// `width` uint32 lanes that depends only on how many lanes two columns
/// share: distance(i, j) = by_agreement[agreement of columns i and j].
/// SignatureMatrix (MinHash) and LshIndex (LSH buckets) hand these out; the
/// greedy turns one AgreeRow per claim into a row of distances.
struct AgreementDistance {
  const uint32_t* lanes = nullptr;   ///< column j starts at lanes + j * width
  size_t width = 0;
  std::vector<double> by_agreement;  ///< width + 1 entries

  /// Lanes columns i and j share.
  uint32_t Agreement(size_t i, size_t j) const;

  double operator()(size_t i, size_t j) const { return by_agreement[Agreement(i, j)]; }
};

namespace kernel_internal {

using AgreeRowFn = void (*)(const uint32_t* pivot, const uint32_t* columns, size_t width,
                            size_t n, const uint8_t* skip, uint32_t* agree);

/// Plain-C++ row; always available.
AgreeRowFn PortableAgreeRow();

/// AVX2 row (8 x uint32 `vpcmpeqd` per step, masked tail); nullptr when
/// this build has no AVX2 backend.
AgreeRowFn Avx2AgreeRow();

}  // namespace kernel_internal

}  // namespace skydiver
