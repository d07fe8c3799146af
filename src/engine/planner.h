// Planner — resolves a SkyDiverConfig plus available resources into an
// executable Plan, and renders plans for humans.
//
// The planner owns every "which backend?" decision that used to be
// hand-wired into SkyDiver::Run / RunOnDisk / SkyDiverSession / the CLI:
//
//   * skyline: precomputed rows > file-backed BBS > in-memory BBS >
//     pooled sharded SFS > serial SFS;
//   * fingerprint: the config's SigGenMode (kAuto prefers a tree when one
//     is supplied), with the pooled variants picked automatically when
//     config.threads >= 1;
//   * selection: the config's SelectMode, or none for fingerprint-only
//     pipelines (sessions).
//
// Config validation lives here, so every entry point rejects bad configs
// identically.

#pragma once

#include <string>

#include "common/status.h"
#include "engine/plan.h"
#include "lsh/lsh.h"

namespace skydiver {

/// A resolved Phase-2-only plan: the selection backend plus, under LSH,
/// the banding it will run with. Depends only on (mode, t, ξ, B) — never
/// on k or the seed — so a serving layer can cache one per query
/// configuration and reuse it across every k (see serve/serve.h).
struct SelectPlan {
  SelectBackend backend = SelectBackend::kMinHash;
  LshParams lsh;  ///< Meaningful only when backend == kLsh.
};

/// Resolves configs + resources into plans.
class Planner {
 public:
  /// Upper bound on `SkyDiverConfig::threads` (sanity cap; a pool wider
  /// than this is a config bug, not a deployment).
  static constexpr size_t kMaxThreads = 512;

  /// Upper bound on `SkyDiverConfig::morsel_rows` (sanity cap: one claim
  /// covering 2^20 rows is a static chunking, not morsel dispatch).
  static constexpr size_t kMaxMorselRows = 1u << 20;

  /// Validates `config` against `resources` and picks one backend per
  /// stage. With `run_selection == false` the plan stops after
  /// fingerprinting (`SelectBackend::kNone`) and `config.k` is ignored.
  [[nodiscard]] static Result<Plan> Resolve(const SkyDiverConfig& config,
                              const PlanResources& resources,
                              bool run_selection = true);

  /// Resolves one selection query's spec against signatures of size
  /// `signature_size` into a SelectPlan. Owns the per-query validation
  /// (positive k, a viable LSH banding) the same way Resolve owns the
  /// pipeline validation; k-vs-skyline-cardinality is checked at
  /// execution time, where m is known.
  [[nodiscard]] static Result<SelectPlan> ResolveSelect(const QuerySpec& spec,
                                          size_t signature_size);
};

/// Human-readable rendering of a resolved plan — one line per stage with
/// the backend and its key knobs. Stable enough to grep in CLI output,
/// not a machine interface.
std::string ExplainPlan(const Plan& plan, const SkyDiverConfig& config);

/// Debug-only verifier of planner postconditions: every resource a backend
/// needs is present (BBS => tree, disk BBS/IB => disk tree, precomputed =>
/// rows), pooled plans carry a tile-aligned morsel size and serial plans
/// none, and the kernel is a known value. Compiled out under NDEBUG; the
/// engine runs it on every plan it is handed, so hand-rolled plans get the
/// same scrutiny as planner output.
void DebugValidatePlan(const Plan& plan, const PlanResources& resources);

}  // namespace skydiver
