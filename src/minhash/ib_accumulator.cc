#include "minhash/ib_accumulator.h"

#include <algorithm>
#include <bit>

namespace skydiver {

namespace {

// Up to this many row ids apart, stepping the previous row's hash forward
// is cheaper than t divisions.
constexpr uint64_t kMaxHashSteps = 8;

}  // namespace

CandidateTiles::CandidateTiles(std::span<const std::span<const Coord>> sky,
                               DomKernel kernel)
    : sky_(sky),
      batch_(EffectiveKernel(kernel, kTileRows)),
      scalar_(DomKernel::kScalar) {}

void CandidateTiles::Load(std::span<const size_t> candidates) {
  used_tiles_ = 0;
  batched_ = batch_.batched() && candidates.size() >= kTileRows;
  if (candidates.empty()) return;
  const Dim dims = static_cast<Dim>(sky_[candidates[0]].size());
  for (size_t j : candidates) {
    if (used_tiles_ == 0 || tiles_[used_tiles_ - 1].full()) {
      if (used_tiles_ == tiles_.size()) tiles_.emplace_back(dims);
      tiles_[used_tiles_++].Clear();
    }
    tiles_[used_tiles_ - 1].PushRow(static_cast<RowId>(j), sky_[j]);
  }
}

void CandidateTiles::SplitNode(const RTreeNode& node, NodeSplit* split) const {
  const size_t entries = node.entries.size();
  split->tiles_ = used_tiles_;
  split->upper_.resize(entries * used_tiles_);
  split->lower_.resize(entries * used_tiles_);
  const DominanceKernel& kernel = active();
  for (size_t i = 0; i < entries; ++i) {
    const Mbr& mbr = node.entries[i].mbr;
    for (size_t ti = 0; ti < used_tiles_; ++ti) {
      const TileView tile = tiles_[ti].view();
      const uint64_t upper = kernel.FilterDominators(mbr.hi(), tile);
      split->upper_[i * used_tiles_ + ti] = upper;
      split->lower_[i * used_tiles_ + ti] = kernel.FilterDominators(mbr.lo(), tile) & upper;
    }
  }
}

std::span<const size_t> NodeSplit::Expand(size_t i, std::span<const size_t> candidates,
                                          std::span<const size_t> inherited,
                                          std::vector<size_t>* full,
                                          std::vector<size_t>* partial) const {
  partial->clear();
  full->clear();
  bool any_full = false;
  for (size_t ti = 0; ti < tiles_; ++ti) {
    const uint64_t lower = lower_[i * tiles_ + ti];
    if (lower != 0 && !any_full) {
      full->assign(inherited.begin(), inherited.end());
      any_full = true;
    }
    // Bits ascend within a tile and tiles follow the candidate list, so
    // both lists come out in candidate order.
    for (uint64_t mask = upper_[i * tiles_ + ti]; mask != 0; mask &= mask - 1) {
      const int bit = std::countr_zero(mask);
      const size_t j = candidates[ti * kTileRows + static_cast<size_t>(bit)];
      if ((lower >> bit & 1) != 0) {
        full->push_back(j);
      } else {
        partial->push_back(j);
      }
    }
  }
  if (!any_full) return inherited;
  return *full;
}

IbAccumulator::IbAccumulator(std::span<const std::span<const Coord>> sky,
                             const MinHashFamily& family, DomKernel kernel,
                             SignatureMatrix* signatures, std::vector<uint64_t>* scores)
    : family_(family),
      signatures_(signatures),
      scores_(scores),
      tiles_(sky, kernel),
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

void IbAccumulator::AddLeaf(const RTreeNode& leaf, uint64_t base,
                            std::span<const size_t> full,
                            std::span<const size_t> candidates) {
  const size_t points = leaf.entries.size();
  const size_t t = family_.size();
  tiles_.Load(candidates);
  // Every point of the leaf belongs to each column of `full`: fold the
  // points' hashes into one range minimum and merge it once per column.
  const bool any_full = !full.empty();
  if (any_full) std::fill(range_min_.begin(), range_min_.end(), kEmptySlot32);
  bool hashed = false;
  uint64_t hashed_row = 0;
  for (size_t k = 0; k < points; ++k) {
    dominators_.clear();
    tiles_.ForEachDominator(leaf.entries[k].mbr.lo(),
                            [&](size_t j) { dominators_.push_back(j); });
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
