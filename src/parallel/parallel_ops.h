// Names kept for the end-to-end benchmark (perfbench/main.cc), which calls
// the pooled operators by these names and is held fixed so that its runs
// stay comparable across commits. Each is a one-line forwarder to the one
// implementation of its operator, which takes a `ThreadPool*` (null runs
// inline). Nothing else includes this header (skylint rule
// `perfbench-only`); call the operators themselves.

#pragma once

#include <cstdint>
#include <vector>

#include "diversify/dispersion.h"
#include "minhash/siggen.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"

namespace skydiver {

inline SkylineResult ParallelSkyline(const DataSet& data, ThreadPool& pool,
                                     DomKernel kernel = DomKernel::kSimd) {
  return SkylineSFS(data, kernel, &pool);
}

inline Result<SigGenResult> ParallelSigGenIF(const DataSet& data,
                                             const std::vector<RowId>& skyline,
                                             const MinHashFamily& family,
                                             ThreadPool& pool,
                                             DomKernel kernel = DomKernel::kSimd) {
  return SigGenIF(data, skyline, family, kernel, &pool);
}

inline Result<DispersionResult> ParallelSelectDiverseSet(
    size_t m, size_t k, const DistanceFn& distance,
    const std::vector<uint64_t>& domination_scores, ThreadPool& pool) {
  return SelectDiverseSet(m, k, distance, domination_scores, &pool);
}

}  // namespace skydiver
