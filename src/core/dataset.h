// In-memory multidimensional dataset.
//
// `DataSet` is a dense row-major n x d matrix of attribute values. All
// skyline / diversification kernels in this library operate in
// "minimization space" (smaller is better on every dimension, the paper's
// w.l.o.g. convention); `Canonicalize` maps an arbitrary Preference into
// that space at the API boundary.

#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/preference.h"
#include "core/types.h"

namespace skydiver {

/// Dense row-major collection of d-dimensional points.
class DataSet {
 public:
  /// Empty dataset with the given dimensionality (d >= 1).
  explicit DataSet(Dim dims) : dims_(dims) { SKYDIVER_DCHECK_GE(dims, 1u); }

  /// Dataset adopting pre-built storage; `values.size()` must be a multiple
  /// of `dims`.
  DataSet(Dim dims, std::vector<Coord> values) : dims_(dims), values_(std::move(values)) {
    SKYDIVER_DCHECK_GE(dims, 1u);
    SKYDIVER_DCHECK(values_.size() % dims_ == 0);
  }

  Dim dims() const { return dims_; }
  RowId size() const { return static_cast<RowId>(values_.size() / dims_); }
  bool empty() const { return values_.empty(); }

  /// Read-only view of row `r`.
  std::span<const Coord> row(RowId r) const {
    SKYDIVER_DCHECK_LT(r, size());
    return {values_.data() + static_cast<size_t>(r) * dims_, dims_};
  }

  Coord at(RowId r, Dim d) const {
    SKYDIVER_DCHECK(r < size() && d < dims_);
    return values_[static_cast<size_t>(r) * dims_ + d];
  }

  /// Appends a row; `point.size()` must equal dims().
  void Append(std::span<const Coord> point) {
    SKYDIVER_DCHECK_EQ(point.size(), dims_);
    // Grow, then copy: GCC 12 at -O3 reports a false -Wstringop-overflow
    // for vector::insert of a span inlined from an initializer_list.
    const size_t old = values_.size();
    values_.resize(old + point.size());
    std::copy(point.begin(), point.end(), values_.data() + old);
  }

  void Append(std::initializer_list<Coord> point) {
    Append(std::span<const Coord>(point.begin(), point.size()));
  }

  /// Pre-allocates storage for `n` rows.
  void Reserve(RowId n) { values_.reserve(static_cast<size_t>(n) * dims_); }

  /// Raw contiguous storage (row-major).
  const std::vector<Coord>& values() const { return values_; }

  /// Returns a copy of this dataset mapped into minimization space under
  /// `pref` (maximized dimensions are negated).
  Result<DataSet> Canonicalize(const Preference& pref) const;

  /// Returns the dataset restricted to the first `k` dimensions (projection),
  /// used when sweeping dimensionality over one generated dataset.
  Result<DataSet> Project(Dim k) const;

  /// Projection onto an arbitrary ordered subset of dimensions — subspace
  /// skyline analysis ("what are the diverse options considering only
  /// price and rating?"). Dimensions may not repeat.
  Result<DataSet> ProjectDims(std::span<const Dim> dims) const;

  /// Returns a subset containing the given rows, in order.
  DataSet Select(std::span<const RowId> rows) const;

 private:
  Dim dims_;
  std::vector<Coord> values_;
};

/// Rejects datasets containing NaN or infinite values. NaN poisons the
/// dominance relation (every comparison with NaN is false, so a NaN point
/// is never dominated and always "skyline"); call this at ingestion
/// boundaries before running any algorithm.
Status CheckFinite(const DataSet& data);

}  // namespace skydiver
