// SkyDiver — the public framework API.
//
// Wires the full pipeline of the paper:
//
//   skyline (BBS over the aggregate R*-tree, or SFS when index-free)
//     -> Phase 1: fingerprinting (SigGen-IB / SigGen-IF MinHash signatures)
//     -> Phase 2: selection (greedy 2-approx k-MMDP over MinHash estimated
//        distances, or over LSH bit-vector Hamming distances)
//
// and reports per-phase CPU time, page-level I/O, and memory, under the
// paper's cost model (8 ms per charged page fault).
//
// Every entry point here is a thin adapter over the execution engine
// (src/engine/): the Planner resolves the config + resources into a Plan
// (one backend per stage; config.threads >= 1 runs every stage on a pool
// with the same output), and the Engine executes it inside a QueryContext.
// The returned report carries the resolved plan and its ExplainPlan()
// rendering. Callers needing finer control (fingerprint-only pipelines,
// shared pools across queries, trace events) can drive the engine
// directly — see engine/engine.h — or build a SkySnapshot and serve
// queries against it — see engine/snapshot.h and serve/serve.h.
//
// Quickstart:
//
//   DataSet data = GenerateIndependent(100'000, 4, /*seed=*/1);
//   SkyDiverConfig config;
//   config.k = 10;
//   auto report = SkyDiver::Run(data, config);        // index-free
//   for (RowId r : report->selected_rows) { ... }     // k diverse points

#pragma once

#include <cstdint>
#include <vector>

#include "common/io_stats.h"
#include "common/phase_metrics.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/preference.h"
#include "engine/engine.h"
#include "engine/plan.h"
#include "engine/query_context.h"
#include "engine/planner.h"
#include "rtree/rtree.h"

namespace skydiver {

class DiskRTree;

/// The framework entry point.
class SkyDiver {
 public:
  /// Runs the full pipeline on `data`, which must already be in
  /// minimization space. If `tree` is non-null it must index `data`; the
  /// skyline is then computed with BBS and (under kAuto / kIndexBased) the
  /// signatures with SigGen-IB. If `precomputed_skyline` is non-null the
  /// skyline phase is skipped and the given rows are used verbatim.
  [[nodiscard]] static Result<SkyDiverReport> Run(const DataSet& data, const SkyDiverConfig& config,
                                    const RTree* tree = nullptr,
                                    const std::vector<RowId>* precomputed_skyline = nullptr);

  /// Same, but first maps `data` into minimization space under `pref`
  /// (e.g. maximize quality, minimize price). Row ids in the report refer
  /// to the original dataset.
  [[nodiscard]] static Result<SkyDiverReport> RunWithPreference(const DataSet& data,
                                                  const Preference& pref,
                                                  const SkyDiverConfig& config);

  /// Fully indexed pipeline over a FILE-BACKED tree: BBS and SigGen-IB
  /// read real 4 KB pages through the disk tree's frame cache, so the
  /// reported fault counts are physical preads.
  [[nodiscard]] static Result<SkyDiverReport> RunOnDisk(const DataSet& data,
                                          const SkyDiverConfig& config,
                                          const DiskRTree& tree,
                                          const std::vector<RowId>* precomputed_skyline = nullptr);
};

}  // namespace skydiver
