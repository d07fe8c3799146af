#include "stream/streaming.h"

#include <algorithm>
#include <bit>

#include "core/dominance.h"
#include "diversify/dispersion.h"
#include "parallel/morsel.h"

namespace skydiver {

StreamingSkyDiver::StreamingSkyDiver(Dim dims, size_t signature_size, uint64_t seed,
                                     uint64_t max_points, DomKernel kernel,
                                     ThreadPool* pool)
    : dims_(dims),
      t_(signature_size),
      seed_(seed),
      max_points_(max_points),
      family_(MinHashFamily::Create(signature_size, max_points, seed)),
      // Resolve the flavour once at construction: the streaming mirror is
      // re-swept on every insert, so only the missing-ISA half of the
      // downgrade policy applies (the small-input half would flip the
      // flavour back and forth as the skyline grows).
      kernel_(EffectiveKernel(kernel, kTileRows)),
      pool_(pool),
      data_(dims),
      sky_tiles_(dims) {}

void StreamingSkyDiver::UpdateSignature(SkylineEntry* entry, RowId row) {
  // Hash the row once; consecutive calls for the same row (one per
  // dominator) reuse the cached values — the same optimization batch
  // SigGen-IF applies per scanned row.
  if (hash_cache_row_ != row) {
    hash_cache_.resize(t_);
    for (size_t i = 0; i < t_; ++i) hash_cache_[i] = family_.Apply(i, row);
    hash_cache_row_ = row;
  }
  ++entry->domination_score;
  stats_.signature_updates += t_;
  for (size_t i = 0; i < t_; ++i) {
    if (hash_cache_[i] < entry->signature[i]) entry->signature[i] = hash_cache_[i];
  }
}

Status StreamingSkyDiver::Insert(std::span<const Coord> point) {
  if (point.size() != dims_) {
    return Status::InvalidArgument("point has " + std::to_string(point.size()) +
                                   " dims, expected " + std::to_string(dims_));
  }
  if (data_.size() >= max_points_) {
    return Status::OutOfRange("stream exceeded the configured maximum of " +
                              std::to_string(max_points_) + " points");
  }
  const RowId row = data_.size();
  data_.Append(point);

  MutexLock lock(monitor_mutex_);
  ++stats_.inserts;

  if (IsBatched(kernel_)) {
    const DominanceKernel batch(kernel_);

    // Pass 1 over the tiled skyline mirror: is the arrival dominated? If
    // so, fold its id into the signature of every skyline dominator.
    bool dominated = false;
    for (const Tile& tile : sky_tiles_.tiles()) {
      uint64_t mask = batch.FilterDominators(point, tile.view());
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        mask &= mask - 1;
        dominated = true;
        UpdateSignature(&skyline_.at(tile.id(static_cast<size_t>(bit))), row);
      }
    }
    if (dominated) {
      ++stats_.dominated_arrivals;
      return Status::OK();
    }

    // Demote every skyline point the arrival dominates; the map erases use
    // each tile's ids BEFORE the tile is compacted.
    const auto& tiles = sky_tiles_.tiles();
    bool dropped = false;
    for (size_t ti = 0; ti < tiles.size(); ++ti) {
      const uint64_t demoted = batch.FilterDominated(point, tiles[ti].view());
      if (demoted == 0) continue;
      uint64_t mask = demoted;
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        mask &= mask - 1;
        skyline_.erase(tiles[ti].id(static_cast<size_t>(bit)));
        ++stats_.demotions;
      }
      sky_tiles_.CompactTile(ti, tiles[ti].view().FullMask() & ~demoted);
      dropped = true;
    }
    if (dropped) sky_tiles_.DropEmptyTiles();

    skyline_.emplace(row, StoreScan(point, row));
    sky_tiles_.Append(row, point);
    ++stats_.skyline_insertions;
    return Status::OK();
  }

  // Pass 1 over the skyline: is the arrival dominated? If so, fold its id
  // into the signature of every skyline dominator.
  bool dominated = false;
  for (auto& [sky_row, entry] : skyline_) {
    if (Dominates(data_.row(sky_row), point)) {
      dominated = true;
      UpdateSignature(&entry, row);
    }
  }
  if (dominated) {
    ++stats_.dominated_arrivals;
    return Status::OK();
  }

  // The arrival joins the skyline: demote every skyline point it now
  // dominates (their signatures are discarded — only skyline points carry
  // dominated sets), and build its own signature by scanning the store.
  for (auto it = skyline_.begin(); it != skyline_.end();) {
    if (Dominates(point, data_.row(it->first))) {
      it = skyline_.erase(it);
      ++stats_.demotions;
    } else {
      ++it;
    }
  }
  SkylineEntry entry;
  entry.signature.assign(t_, kEmptySlot);
  for (RowId r = 0; r < row; ++r) {
    if (skyline_.count(r)) continue;  // current skyline points are in no Γ
    if (Dominates(point, data_.row(r))) UpdateSignature(&entry, r);
  }
  skyline_.emplace(row, std::move(entry));
  ++stats_.skyline_insertions;
  return Status::OK();
}

StreamingSkyDiver::SkylineEntry StreamingSkyDiver::StoreScan(std::span<const Coord> point,
                                                             RowId row) {
  // Snapshot the exclusion set (current skyline rows are in no Γ — the
  // same rows the scalar scan skips) under the monitor lock; the claims
  // read only this snapshot plus immutable state — the arrival's
  // coordinates, the hash family, and store rows below `row`, which no
  // concurrent Insert can touch (single-writer contract on data_).
  std::vector<uint8_t> excluded(row, 0);
  for (const auto& [r, e] : skyline_) {
    if (r < row) excluded[r] = 1;
  }

  // Per-claim reduction slots: signature minima plus the dominated-row
  // count (slot = claim id, folded in ascending order below — identical
  // to the serial scan because MinHash minima and sums are
  // associative/commutative).
  struct ScanSlot {
    std::vector<uint64_t> sig;
    uint64_t dominated = 0;
  };
  MorselQueue queue(row, MorselWorkers(pool_), MorselConfig{});
  std::vector<ScanSlot> slots(queue.slots());
  const DomKernel kernel = kernel_;
  RunMorsels(pool_, queue, [&](const MorselQueue::Claim& c) {
    ScanSlot& slot = slots[c.slot];
    slot.sig.assign(t_, kEmptySlot);
    const DominanceKernel batch(kernel);
    Tile scan(dims_);
    auto flush = [&] {
      uint64_t mask = batch.FilterDominated(point, scan.view());
      while (mask != 0) {
        const int bit = std::countr_zero(mask);
        mask &= mask - 1;
        const RowId r = scan.id(static_cast<size_t>(bit));
        ++slot.dominated;
        for (size_t i = 0; i < t_; ++i) {
          const uint64_t h = family_.Apply(i, r);
          if (h < slot.sig[i]) slot.sig[i] = h;
        }
      }
      scan.Clear();
    };
    for (uint64_t r = c.begin; r < c.end; ++r) {
      if (excluded[r] != 0) continue;
      scan.PushRow(static_cast<RowId>(r), data_.row(static_cast<RowId>(r)));
      if (scan.full()) flush();
    }
    if (!scan.empty()) flush();
  });
  SkylineEntry entry;
  entry.signature.assign(t_, kEmptySlot);
  for (const ScanSlot& slot : slots) {
    entry.domination_score += slot.dominated;
    for (size_t i = 0; i < t_; ++i) {
      if (slot.sig[i] < entry.signature[i]) entry.signature[i] = slot.sig[i];
    }
  }
  stats_.signature_updates += t_ * entry.domination_score;
  return entry;
}

std::vector<RowId> StreamingSkyDiver::SkylineRows() const {
  MutexLock lock(monitor_mutex_);
  return SkylineRowsLocked();
}

std::vector<RowId> StreamingSkyDiver::SkylineRowsLocked() const {
  std::vector<RowId> rows;
  rows.reserve(skyline_.size());
  for (const auto& [row, entry] : skyline_) rows.push_back(row);
  std::sort(rows.begin(), rows.end());
  return rows;
}

Result<uint64_t> StreamingSkyDiver::DominationScore(RowId skyline_row) const {
  MutexLock lock(monitor_mutex_);
  auto it = skyline_.find(skyline_row);
  if (it == skyline_.end()) {
    return Status::NotFound("row " + std::to_string(skyline_row) +
                            " is not on the current skyline");
  }
  return it->second.domination_score;
}

Result<std::vector<uint64_t>> StreamingSkyDiver::Signature(RowId skyline_row) const {
  MutexLock lock(monitor_mutex_);
  auto it = skyline_.find(skyline_row);
  if (it == skyline_.end()) {
    return Status::NotFound("row " + std::to_string(skyline_row) +
                            " is not on the current skyline");
  }
  return it->second.signature;
}

Result<StreamFingerprints> StreamingSkyDiver::ExportFingerprints() const {
  MutexLock lock(monitor_mutex_);
  StreamFingerprints out;
  out.skyline = SkylineRowsLocked();
  if (out.skyline.empty()) {
    return Status::InvalidArgument("stream has no skyline points to export");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSignatureFamily(family_));
  out.seed = seed_;
  const size_t m = out.skyline.size();
  out.domination_scores.reserve(m);
  out.signatures = SignatureMatrix(t_, m);
  for (size_t j = 0; j < m; ++j) {
    const SkylineEntry& entry = skyline_.at(out.skyline[j]);
    out.domination_scores.push_back(entry.domination_score);
    for (size_t i = 0; i < t_; ++i) {
      out.signatures.UpdateMin(j, i, entry.signature[i]);
    }
  }
  return out;
}

Result<std::vector<RowId>> StreamingSkyDiver::SelectDiverse(size_t k) const {
  MutexLock lock(monitor_mutex_);
  const std::vector<RowId> rows = SkylineRowsLocked();
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > rows.size()) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds current skyline cardinality m = " +
                                   std::to_string(rows.size()));
  }
  // Phase 2 on live state, through the same primitives as the batch
  // engine: slot-agreement distance, max-dominance seeding.
  std::vector<const SkylineEntry*> entries;
  std::vector<uint64_t> scores;
  entries.reserve(rows.size());
  scores.reserve(rows.size());
  for (RowId r : rows) {
    entries.push_back(&skyline_.at(r));
    scores.push_back(entries.back()->domination_score);
  }

  auto distance = [&](size_t a, size_t b) {
    return 1.0 - SlotAgreementSimilarity(entries[a]->signature, entries[b]->signature);
  };
  auto selection = SelectDiverseSet(rows.size(), k, distance, scores);
  if (!selection.ok()) return selection.status();
  std::vector<RowId> out;
  out.reserve(k);
  for (size_t idx : selection->selected) out.push_back(rows[idx]);
  return out;
}

}  // namespace skydiver
