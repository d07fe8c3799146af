// Output checks for the end-to-end benchmark, written apart from the
// library: dominance, dominated sets and signature minima are recomputed
// here with plain scalar loops, so a fault in the program's kernels, trees
// or schedulers cannot hide behind a shared helper. Every check returns an
// empty string when the output is correct, or a one-line reason otherwise.
//
// skybench_selftest feeds each check a mutated output and expects a reason.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "minhash/minhash.h"

namespace skybench {

using skydiver::Coord;
using skydiver::DataSet;
using skydiver::RowId;

/// True iff row p strictly dominates row q (minimisation on every column).
bool Dominates(const DataSet& data, RowId p, RowId q);

/// Rows of `data` inside the closed box [lo, hi]; empty lo/hi = all rows.
std::vector<RowId> RowsInBox(const DataSet& data, std::span<const Coord> lo,
                             std::span<const Coord> hi);

/// `sky` must be exactly the skyline of `candidates`: every returned row is
/// a candidate, no returned row is dominated by another, and every other
/// candidate is dominated by a returned row. Together these imply that no
/// candidate dominates a returned row (dominance is transitive).
std::string CheckSkyline(const DataSet& data, std::span<const RowId> candidates,
                         std::span<const RowId> sky);

/// For each sampled skyline index j, scores[j] must equal |Γ(sky[j])|.
std::string CheckScores(const DataSet& data, std::span<const RowId> sky,
                        std::span<const uint64_t> scores,
                        std::span<const size_t> sample);

/// For each sampled skyline index j and every slot i, the IF signature
/// entry must be min over r in Γ(sky[j]) of family.Apply(i, r), or the
/// empty-slot marker when Γ is empty.
std::string CheckIfSignatures(const DataSet& data, std::span<const RowId> sky,
                              const skydiver::SignatureMatrix& signatures,
                              const skydiver::MinHashFamily& family,
                              std::span<const size_t> sample);

/// A MinHash selection: k distinct skyline indices whose rows are
/// `selected_rows`, and `objective` equal to their minimum pairwise
/// estimated distance (1 - agreeing slots / t) recomputed from the
/// signature matrix.
std::string CheckSelection(std::span<const RowId> sky, std::span<const size_t> selected,
                           std::span<const RowId> selected_rows, double objective,
                           const skydiver::SignatureMatrix& signatures, size_t k);

/// The exact minimum pairwise Jaccard distance between the dominated sets
/// of `rows` (two empty sets are at distance 0). 0 for fewer than 2 rows.
double ExactDiversity(const DataSet& data, std::span<const RowId> rows);

/// Deterministic sample of `count` distinct indices in [0, m), drawn from
/// `seed` with the benchmark's own generator (ascending).
std::vector<size_t> SampleIndices(size_t m, size_t count, uint64_t seed);

/// SplitMix64 step: the benchmark's generator for seeds and samples.
uint64_t Mix(uint64_t x);

}  // namespace skybench
