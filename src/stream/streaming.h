// Streaming skyline diversification (the paper's future-work direction i,
// in the spirit of Drosou & Pitoura's dynamic diversification [13]).
//
// Points arrive one at a time. The structure maintains, incrementally:
//   * the current skyline (insertions may demote existing skyline points);
//   * a MinHash signature per skyline point over its CURRENT dominated set;
//   * exact domination scores.
//
// The key observation making incremental maintenance exact: a point's
// dominators all arrive AFTER it was demoted to (or born into) the
// dominated set, and every arriving point inspects the whole store. Hence
// the maintained signatures are bit-for-bit identical to re-running the
// batch SigGen-IF over the final dataset with the same hash family (a
// property the tests assert).
//
// Deletions are not supported: MinHash minima cannot be decreased
// incrementally. For windowed deployments, rebuild per window.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "core/dataset.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"
#include "minhash/minhash.h"

namespace skydiver {

class ThreadPool;

/// Maintenance counters for observability.
struct StreamingStats {
  uint64_t inserts = 0;
  uint64_t skyline_insertions = 0;  ///< arrivals that joined the skyline
  uint64_t demotions = 0;           ///< skyline points knocked out later
  uint64_t dominated_arrivals = 0;  ///< arrivals dominated on entry
  uint64_t signature_updates = 0;   ///< column min-merges performed
};

/// A frozen copy of the streaming monitor's live fingerprints, in the
/// batch pipeline's shapes (ascending skyline rows, column-major signature
/// matrix). Engine-free on purpose — the serving layer (serve/serve.h)
/// turns one into a SkySnapshot without this module depending on the
/// engine.
struct StreamFingerprints {
  std::vector<RowId> skyline;
  std::vector<uint64_t> domination_scores;
  SignatureMatrix signatures;
  uint64_t seed = 0;
};

/// Incremental skyline + signature maintenance over an insert-only stream.
///
/// Thread-safety: the monitor state (skyline map, tiled mirror, stats,
/// hash memo) sits behind `monitor_mutex_`, so inspection calls
/// (SkylineRows / DominationScore / Signature / SelectDiverse /
/// ExportFingerprints / stats) are safe against a concurrent Insert. The
/// point store `data_` is the one exception: data() hands out a long-lived
/// reference (snapshots adopted from the stream keep pointing at it), so it
/// cannot be lock-guarded — callers must not read data() (or query a
/// snapshot adopted from this stream) concurrently with Insert. The
/// guarded fingerprint state is what Insert and the inspection API
/// genuinely race on.
class StreamingSkyDiver {
 public:
  /// `max_points` bounds the stream length (the hash family's prime must
  /// exceed every row id); exceeding it makes Insert fail. Under a batched
  /// kernel (tiled or simd) the skyline is mirrored in column-major tiles
  /// and every arrival is classified one tile sweep at a time (the store
  /// scan after a skyline insertion is tiled on the fly); maintained state
  /// is bit-identical to the scalar kernel's. kSimd downgrades to kTiled
  /// at construction when the host has no vector ISA.
  ///
  /// The batched store scan (the O(n) pass a skyline insertion triggers)
  /// runs in morsel claims over tile-aligned row ranges, each accumulating
  /// its own signature minima, folded in slot order (parallel/morsel.h):
  /// inline when `pool` is null, on its workers otherwise, with the same
  /// maintained state. The pool must outlive this object and must not run
  /// tasks that touch this monitor (its workers execute the scan while
  /// Insert holds the monitor lock).
  StreamingSkyDiver(Dim dims, size_t signature_size, uint64_t seed,
                    uint64_t max_points = 1ULL << 22,
                    DomKernel kernel = DomKernel::kScalar,
                    ThreadPool* pool = nullptr);

  /// Inserts the next point; assigns it the next row id.
  [[nodiscard]] Status Insert(std::span<const Coord> point);
  [[nodiscard]] Status Insert(std::initializer_list<Coord> point) {
    return Insert(std::span<const Coord>(point.begin(), point.size()));
  }

  /// All points seen so far (row id = arrival order).
  const DataSet& data() const { return data_; }

  /// Current skyline row ids, ascending.
  std::vector<RowId> SkylineRows() const;

  /// Exact |Γ(row)| for a current skyline row.
  [[nodiscard]] Result<uint64_t> DominationScore(RowId skyline_row) const;

  /// Greedy k-most-diverse selection over the maintained signatures
  /// (estimated Jaccard distances, max-dominance seeding — the batch
  /// pipeline's Phase 2 on live state).
  [[nodiscard]] Result<std::vector<RowId>> SelectDiverse(size_t k) const;

  /// A consistent copy of the maintenance counters (by value: a reference
  /// into guarded state would escape the critical section).
  StreamingStats stats() const {
    MutexLock lock(monitor_mutex_);
    return stats_;
  }

  /// Seed the hash family was drawn with (also seeds queries against a
  /// snapshot exported from this stream).
  uint64_t seed() const { return seed_; }

  /// Signature column of a current skyline row (for tests/inspection).
  [[nodiscard]] Result<std::vector<uint64_t>> Signature(RowId skyline_row) const;

  /// Copies the current skyline's fingerprints (rows ascending, signatures
  /// column-major, exact scores) out of the live maps. Fails on an empty
  /// skyline. The export is bit-identical to batch SigGen-IF over data()
  /// with the same hash family — the invariant the streaming tests assert
  /// — so a snapshot adopted from it answers queries exactly like one
  /// built from scratch. Fails with InvalidArgument when the stream's hash
  /// family does not fit 32-bit signature slots (ValidateSignatureFamily).
  [[nodiscard]] Result<StreamFingerprints> ExportFingerprints() const;

 private:
  struct SkylineEntry {
    std::vector<uint64_t> signature;  // t slots, kEmptySlot when Γ empty
    uint64_t domination_score = 0;
  };

  // Folds row id `row` into the signature of `entry`.
  void UpdateSignature(SkylineEntry* entry, RowId row)
      SKYDIVER_REQUIRES(monitor_mutex_);

  // The batched store scan: builds the arriving skyline point's entry over
  // store rows [0, row), claim by claim, inline or on pool_. Requires the
  // monitor lock to snapshot the exclusion set and charge stats; the
  // claims themselves touch no guarded state.
  SkylineEntry StoreScan(std::span<const Coord> point, RowId row)
      SKYDIVER_REQUIRES(monitor_mutex_);

  // SkylineRows for callers already inside the monitor's critical section
  // (ExportFingerprints, SelectDiverse) — taking the public entry point
  // there would self-deadlock.
  std::vector<RowId> SkylineRowsLocked() const SKYDIVER_REQUIRES(monitor_mutex_);

  // Immutable after construction; readable from any thread without the
  // monitor lock.
  Dim dims_;
  size_t t_;
  uint64_t seed_;
  uint64_t max_points_;
  MinHashFamily family_;
  DomKernel kernel_;
  // Optional scan pool (see the constructor comment); immutable after
  // construction. Workers only ever read immutable state (`data_` rows
  // below the arrival, the hash family) plus scan-local snapshots, never
  // the guarded monitor members.
  ThreadPool* pool_ = nullptr;

  // The point store. Deliberately NOT guarded: data() exposes a reference
  // that outlives any critical section (see class comment), so the
  // single-writer contract is documented rather than lock-enforced.
  DataSet data_;

  // The monitor capability: everything the inspection API reads while
  // Insert mutates it.
  mutable Mutex monitor_mutex_;
  std::unordered_map<RowId, SkylineEntry> skyline_
      SKYDIVER_GUARDED_BY(monitor_mutex_);
  // Column-major mirror of the skyline rows, maintained only under kTiled
  // (tile ids = skyline row ids).
  TileSet sky_tiles_ SKYDIVER_GUARDED_BY(monitor_mutex_);
  StreamingStats stats_ SKYDIVER_GUARDED_BY(monitor_mutex_);
  // Per-row hash memo: a row is folded into one signature per dominator;
  // hash it only once.
  std::vector<uint64_t> hash_cache_ SKYDIVER_GUARDED_BY(monitor_mutex_);
  RowId hash_cache_row_ SKYDIVER_GUARDED_BY(monitor_mutex_) = kInvalidRowId;
};

}  // namespace skydiver
