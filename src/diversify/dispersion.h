// Greedy k-dispersion selection — Phase 2 of the SkyDiver framework.
//
// The k-most-diverse problem is an instance of the Max-Min Dispersion
// Problem (k-MMDP), NP-hard; `GreedyMaxMin` is the paper's Fig. 6 greedy:
// seed with the skyline point of maximum domination score, then
// repeatedly add the point maximizing its minimum distance to the selected
// set (ties broken by domination score, then by the lower index). When the
// distance is a metric the result is a 2-approximation of the optimum
// (paper Lemma 4).
//
// It is the library's one k-MMDP greedy. Each round asks for a distance
// ROW — the newest pick against every point not yet taken — one morsel
// claim at a time, so the same body runs inline or morsel-parallel on a
// pool, bit-identical at every thread count and morsel size (per-claim
// argmax states folded in ascending claim order with the serial scan's
// strict comparisons; see parallel/morsel.h). Rows come from one of two
// sources:
//
//   * an AgreementDistance (kernels/agree_row.h): MinHash signatures
//     (SkyDiver-MH) and LSH bucket matrices (SkyDiver-LSH), whose row is
//     one per-ISA AgreeRow pass over the claim's columns;
//   * a per-pair DistanceFn (exact Jaccard for Simple-Greedy, anything a
//     caller supplies), evaluated pair by pair in ascending index order —
//     the DistanceFn overloads of SelectDiverseSet are this adapter.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "kernels/agree_row.h"
#include "parallel/thread_pool.h"

namespace skydiver {

/// Distance between skyline points by index; must be symmetric and
/// non-negative. The 2-approximation additionally needs the triangle
/// inequality.
using DistanceFn = std::function<double(size_t, size_t)>;

/// Score used for seeding and tie-breaking — the domination score |Γ(p)| in
/// the paper (coverage as a secondary objective).
using ScoreFn = std::function<double(size_t)>;

/// Result of a dispersion selection.
struct DispersionResult {
  /// Indices (into the skyline set) of the selected points, in pick order.
  std::vector<size_t> selected;
  /// Minimum pairwise distance among the selected points, under the
  /// distance the selection ran with (k-MMDP objective value). 0 for k < 2.
  double min_pairwise = 0.0;
  /// Number of distance evaluations performed.
  uint64_t distance_evaluations = 0;
};

/// One greedy round's distance row over a claim: writes row[i] = the
/// distance between points i and `pivot` for every i in [begin, end) with
/// taken[i] == 0, and leaves the other entries alone. Called once per
/// morsel claim, concurrently on disjoint ranges when the greedy runs on a
/// pool.
using DistanceRowFn = std::function<void(size_t pivot, size_t begin, size_t end,
                                         const uint8_t* taken, double* row)>;

/// The row of a per-pair distance: distance(i, pivot) for each untaken i
/// of the claim, in ascending order.
DistanceRowFn PairDistanceRow(DistanceFn distance);

/// Fig. 6: greedy 2-approximate k-MMDP over `m` skyline points — the one
/// greedy body. O(k·m) distance evaluations: each round refreshes the
/// cached min-distance of every unselected point against the newest
/// member from one distance row, then takes the argmax (ties: higher
/// score, then lower index). `score` is read once per point, up front, on
/// the calling thread. With a non-null `pool` each round runs
/// morsel-parallel (`morsel_rows` per morsel, 0 = kDefaultMorselRows), and
/// `row` must be safe to call concurrently on disjoint ranges; the result
/// is bit-identical to `pool == nullptr`.
Result<DispersionResult> GreedyMaxMin(size_t m, size_t k, const DistanceRowFn& row,
                                      const ScoreFn& score, ThreadPool* pool,
                                      size_t morsel_rows = 0);

/// GreedyMaxMin over an AgreementDistance (MinHash or LSH): each claim's
/// row is one AgreeRow over its columns, mapped through
/// `distance.by_agreement`, so it equals distance(i, pivot) bit for bit.
/// Scores are the raw |Γ| domination counts (at least `m` entries).
Result<DispersionResult> SelectDiverseSet(size_t m, size_t k,
                                          const AgreementDistance& distance,
                                          const std::vector<uint64_t>& domination_scores,
                                          ThreadPool* pool, size_t morsel_rows = 0);

/// GreedyMaxMin over a per-pair distance, on `pool` when it is non-null
/// (then `distance` must be safe to call concurrently). Bit-identical at
/// every thread count and morsel size: same picks, min_pairwise and
/// distance_evaluations.
Result<DispersionResult> SelectDiverseSet(size_t m, size_t k, const DistanceFn& distance,
                                          const ScoreFn& score, ThreadPool* pool = nullptr,
                                          size_t morsel_rows = 0);

/// Convenience overload for the common case across the engine, sessions
/// and the streaming monitor: scores given as the raw |Γ| domination
/// counts, one per skyline point (must have at least `m` entries).
Result<DispersionResult> SelectDiverseSet(size_t m, size_t k, const DistanceFn& distance,
                                          const std::vector<uint64_t>& domination_scores,
                                          ThreadPool* pool = nullptr,
                                          size_t morsel_rows = 0);

/// Greedy for the Max-Sum variant (k-MSDP): adds the point maximizing the
/// SUM of distances to the selected set. Provided for the paper's
/// discussion of why k-MMDP is preferred (4- vs 2-approximation; MSDP
/// tolerates small pairwise distances). Reports the same statistics.
Result<DispersionResult> SelectMaxSumSet(size_t m, size_t k, const DistanceFn& distance,
                                         const ScoreFn& score);

}  // namespace skydiver
