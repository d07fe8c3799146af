#include "minhash/ib_accumulator.h"

#include <algorithm>
#include <bit>

#include "core/dominance.h"

namespace skydiver {

namespace {

// Up to this many row ids apart, stepping the previous row's hash forward
// is cheaper than t divisions.
constexpr uint64_t kMaxHashSteps = 8;

}  // namespace

IbAccumulator::IbAccumulator(std::span<const std::span<const Coord>> sky,
                             const MinHashFamily& family, DomKernel kernel,
                             SignatureMatrix* signatures, std::vector<uint64_t>* scores)
    : sky_(sky),
      family_(family),
      kernel_(EffectiveKernel(kernel, kTileRows)),
      batch_(kernel_),
      signatures_(signatures),
      scores_(scores),
      row_(family.size()),
      range_min_(family.size()) {
  SKYDIVER_DCHECK(family.fits_slots());
}

void IbAccumulator::AddRange(uint64_t base, uint64_t count, std::span<const size_t> full) {
  if (full.empty() || count == 0) return;
  const size_t t = family_.size();
  family_.HashRow(base, range_min_.data());
  if (count > 1) {
    std::copy(range_min_.begin(), range_min_.end(), row_.begin());
    for (uint64_t c = 1; c < count; ++c) {
      family_.StepRow(row_.data());
      MergeMin(range_min_.data(), row_.data(), t);
    }
  }
  for (size_t j : full) {
    (*scores_)[j] += count;
    signatures_->MergeMin(j, range_min_.data());
  }
}

void IbAccumulator::TileCandidates(std::span<const size_t> candidates) {
  const Dim dims = static_cast<Dim>(sky_[candidates[0]].size());
  used_tiles_ = 0;
  for (size_t j : candidates) {
    if (used_tiles_ == 0 || tiles_[used_tiles_ - 1].full()) {
      if (used_tiles_ == tiles_.size()) tiles_.emplace_back(dims);
      tiles_[used_tiles_++].Clear();
    }
    tiles_[used_tiles_ - 1].PushRow(static_cast<RowId>(j), sky_[j]);
  }
}

void IbAccumulator::AddLeaf(const RTreeNode& leaf, uint64_t base,
                            std::span<const size_t> full,
                            std::span<const size_t> candidates) {
  const size_t points = leaf.entries.size();
  const size_t t = family_.size();
  const bool batched = IsBatched(kernel_) && candidates.size() >= kTileRows;
  if (batched) TileCandidates(candidates);
  // Every point of the leaf belongs to each column of `full`: fold the
  // points' hashes into one range minimum and merge it once per column.
  const bool any_full = !full.empty();
  if (any_full) std::fill(range_min_.begin(), range_min_.end(), kEmptySlot32);
  bool hashed = false;
  uint64_t hashed_row = 0;
  for (size_t k = 0; k < points; ++k) {
    const std::span<const Coord> point = leaf.entries[k].mbr.lo();
    dominators_.clear();
    if (batched) {
      for (size_t ti = 0; ti < used_tiles_; ++ti) {
        const Tile& tile = tiles_[ti];
        uint64_t mask = batch_.FilterDominators(point, tile.view());
        while (mask != 0) {
          const int bit = std::countr_zero(mask);
          mask &= mask - 1;
          dominators_.push_back(tile.id(static_cast<size_t>(bit)));
        }
      }
    } else {
      for (size_t j : candidates) {
        if (Dominates(sky_[j], point)) dominators_.push_back(j);
      }
    }
    if (!any_full && dominators_.empty()) continue;
    const uint64_t row = base + k;
    if (hashed && row - hashed_row <= kMaxHashSteps) {
      for (; hashed_row < row; ++hashed_row) family_.StepRow(row_.data());
    } else {
      family_.HashRow(row, row_.data());
      hashed_row = row;
      hashed = true;
    }
    if (any_full) MergeMin(range_min_.data(), row_.data(), t);
    for (size_t j : dominators_) {
      ++(*scores_)[j];
      signatures_->MergeMin(j, row_.data());
    }
  }
  if (!any_full || points == 0) return;
  for (size_t j : full) {
    (*scores_)[j] += points;
    signatures_->MergeMin(j, range_min_.data());
  }
}

}  // namespace skydiver
