// Dominated sets Γ(p) and exact Jaccard diversity.
//
// For a skyline point p, Γ(p) = { x ∈ D : p ≺ x } is its dominated set; the
// paper defines the diversity of two skyline points as the Jaccard distance
// of their dominated sets. This module materializes Γ sets exactly (used by
// the ground-truth evaluators, the Simple-Greedy baseline, and the tests
// that validate the MinHash estimators).

#pragma once

#include <cstdint>
#include <vector>

#include "common/bitvector.h"
#include "common/status.h"
#include "core/dataset.h"
#include "core/types.h"
#include "kernels/dominance_kernel.h"

namespace skydiver {

/// Materialized dominated sets for a set of skyline points over a dataset.
///
/// Γ sets are stored as bit vectors of length |D| indexed by row id, which
/// makes intersections/unions (and hence exact Jaccard) popcount-fast.
class GammaSets {
 public:
  /// Computes Γ(s) for every skyline row in `skyline` by a full scan of
  /// `data`. `data` must be in minimization space. The skyline columns are
  /// held as corner-pruned blocks (kernels/skyline_blocks.h): each data row
  /// is tested against the 64-column tiles whose lower corner dominates
  /// it, at most O(n·m) tests. Every kernel produces identical sets and
  /// dominance counts.
  static GammaSets Compute(const DataSet& data, const std::vector<RowId>& skyline,
                           DomKernel kernel = DomKernel::kScalar);

  /// Builds Γ sets directly from an explicit dominance graph: `gammas[j]`
  /// is the set of dominated items (bits over a universe of
  /// `universe_size` items) for the j-th skyline point. This serves the
  /// paper's coordinate-free setting — anonymized data, partially ordered
  /// or categorical domains — where only the dominance relation is known.
  static GammaSets FromBitVectors(size_t universe_size, std::vector<BitVector> gammas);

  /// Number of skyline points.
  size_t size() const { return gammas_.size(); }

  /// Dataset cardinality the Γ sets are defined over.
  size_t universe_size() const { return universe_; }

  /// The dominated set of the j-th skyline point as a bit vector over rows.
  const BitVector& gamma(size_t j) const { return gammas_[j]; }

  /// Domination score |Γ(s_j)|.
  size_t DominationScore(size_t j) const { return counts_[j]; }

  /// Index of the skyline point with the maximum domination score
  /// (lowest index wins ties).
  size_t MaxDominationIndex() const;

  /// Exact Jaccard similarity |Γ(i)∩Γ(j)| / |Γ(i)∪Γ(j)|.
  /// Two empty dominated sets are defined as similarity 1 (distance 0):
  /// they are identical as sets, which also matches how their all-empty
  /// MinHash signatures compare. Such zero-evidence points are never both
  /// picked by the diversifier.
  double JaccardSimilarity(size_t i, size_t j) const;

  /// Exact Jaccard distance 1 - JaccardSimilarity.
  double JaccardDistance(size_t i, size_t j) const {
    return 1.0 - JaccardSimilarity(i, j);
  }

  /// Fraction of non-skyline points dominated by at least one of the given
  /// skyline points (the coverage measure of Table 1).
  double Coverage(const std::vector<size_t>& selected) const;

  /// Sparsity of the (n-m) x m domination matrix: fraction of zero cells
  /// (Section 3.2's sampling discussion).
  double MatrixSparsity() const;

 private:
  size_t universe_ = 0;       // |D|
  size_t non_skyline_ = 0;    // |D| - m
  std::vector<BitVector> gammas_;
  std::vector<size_t> counts_;
};

}  // namespace skydiver
