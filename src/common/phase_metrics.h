// Per-stage CPU + I/O accounting, shared by every pipeline entry point.
//
// A pipeline stage (skyline, fingerprinting, selection) measures its own
// CPU time and page-level I/O; `CostModel` converts the fault count into
// charged seconds per the paper's measurement model (8 ms per fault).
// Lives in common/ because both the execution engine and the user-facing
// report types speak this vocabulary.

#pragma once

#include <cstdint>

#include "common/io_stats.h"

namespace skydiver {

/// CPU + I/O accounting for one pipeline phase.
struct PhaseMetrics {
  double cpu_seconds = 0.0;
  IoStats io;
  /// Dominance tests the stage performed (pooled stages fold their
  /// workers' counts back into the running thread, so this covers them).
  uint64_t dominance_checks = 0;
  /// The subset of `dominance_checks` charged by tiled kernel sweeps
  /// (equal to it on fully tiled paths, 0 on scalar ones).
  uint64_t dominance_checks_tiled = 0;

  /// CPU plus charged I/O time under `model`.
  double TotalSeconds(const CostModel& model) const {
    return model.TotalSeconds(cpu_seconds, io);
  }
};

}  // namespace skydiver
