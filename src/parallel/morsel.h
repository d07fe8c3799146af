// Morsel-driven work dispatch (Leis et al., "Morsel-Driven Parallelism"):
// instead of cutting [0, n) into one static chunk per worker — where one
// slow shard strands the rest of the pool — workers repeatedly claim small
// tile-aligned row ranges ("morsels") from a shared atomic counter until
// the range is exhausted. A worker that finishes early simply claims more;
// load balancing falls out of the claim loop with no stealing deques.
//
// Deterministic reduction protocol. Every claim carries a `slot` index
// that is a pure function of its row range (claim 0 = rows [0, R), claim 1
// = rows [R, 2R), ...), NOT of the thread that ran it. Workers accumulate
// into per-slot state; callers fold slots in ascending order. Because the
// slot->rows mapping is fixed at queue construction, the folded result is
// bit-identical for every thread count, morsel size, and scheduling order.
// Accumulating into thread-id-indexed state is banned (skylint rule
// `thread-id-reduction`): slots filled in scheduling order fold in
// scheduling order, which is nondeterministic. See DESIGN.md §10.
//
// To keep per-slot reduction state bounded (a SigGen slot is a whole t x m
// signature matrix), consecutive morsels are claimed in batches: one
// fetch_add hands a worker `batch_morsels` consecutive morsels (its local
// batch), and the slot indexes the batch. The auto batch size targets
// kClaimsPerWorker claims per worker — enough claims for the fast workers
// to absorb a slow one, few enough that slot state stays ~4x pool size.

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "parallel/thread_pool.h"

namespace skydiver {

/// Default morsel size: two kernel tiles. Small enough that claims
/// interleave under skewed per-row costs, large enough that the claim
/// counter is not contended (one fetch_add per 2 tile sweeps minimum).
inline constexpr size_t kDefaultMorselRows = 128;

/// Auto batch sizing targets this many claims per worker.
inline constexpr size_t kClaimsPerWorker = 4;

/// Tuning knobs for a MorselQueue. The zero values mean "auto".
struct MorselConfig {
  /// Rows per morsel; 0 = kDefaultMorselRows. The planner validates
  /// tile-alignment (multiple of kTileRows) for plan-carried sizes;
  /// the queue itself accepts any positive size (tests use ragged ones).
  size_t morsel_rows = 0;
  /// Morsels per claim (slot granularity); 0 = auto (targets
  /// kClaimsPerWorker claims per worker). 1 = one slot per morsel.
  size_t batch_morsels = 0;
};

/// Hands out claims over [0, n) to pool workers. Thread-safe: Next() may be
/// called concurrently from any number of workers. The claim counter is a
/// relaxed atomic (atomicity is all it needs: fetch_add uniqueness gives
/// each claim exclusive rows and an exclusive slot; result publication
/// ordering is carried by ThreadPool's mutex via Wait(), exactly like the
/// documented harvest protocol).
class SKYDIVER_CAPABILITY("mutex") MorselQueue {
 public:
  /// One claimed unit of work: rows [begin, end), reduction slot `slot`.
  /// `slot` is a pure function of `begin` (begin / claim rows), never of
  /// the claiming thread.
  struct Claim {
    size_t slot = 0;
    uint64_t begin = 0;
    uint64_t end = 0;
  };

  /// Dispatch counters, for tests and observability.
  struct Stats {
    uint64_t claims = 0;  ///< successful Next() calls
    uint64_t rows = 0;    ///< rows handed out across those claims
  };

  /// A queue over [0, n) sized for `workers` concurrent claimants.
  MorselQueue(uint64_t n, size_t workers, MorselConfig config = {});

  MorselQueue(const MorselQueue&) = delete;
  MorselQueue& operator=(const MorselQueue&) = delete;

  /// Claims the next batch of morsels. Returns false when [0, n) is
  /// exhausted (and forever after: the queue is single-use).
  bool Next(Claim* out);

  /// Number of reduction slots = number of claims Next() will ever grant.
  /// Size per-slot accumulator arrays with this.
  size_t slots() const { return slots_; }

  /// Total rows covered ([0, n)).
  uint64_t size() const { return n_; }

  /// Resolved rows per morsel (config value or the default).
  size_t morsel_rows() const { return morsel_rows_; }

  /// Resolved morsels per claim.
  size_t batch_morsels() const { return batch_morsels_; }

  /// Rows per claim (morsel_rows() * batch_morsels(); the last claim may
  /// cover fewer).
  uint64_t claim_rows() const { return claim_rows_; }

  /// Snapshot of the dispatch counters (by value, house style).
  Stats stats() const {
    MutexLock lock(mutex_);
    return stats_;
  }

 private:
  uint64_t n_ = 0;
  size_t morsel_rows_ = kDefaultMorselRows;
  size_t batch_morsels_ = 1;
  uint64_t claim_rows_ = kDefaultMorselRows;
  size_t slots_ = 0;

  // The work-stealing heart: one fetch_add claims one slot. Deliberately
  // NOT guarded — atomicity is all it needs (see class comment); the
  // mutex below guards only the observational counters.
  std::atomic<uint64_t> next_claim_{0};

  mutable Mutex mutex_;
  Stats stats_ SKYDIVER_GUARDED_BY(mutex_);
};

/// Drains `queue`, running `body` once per claim: inline on the calling
/// thread when `pool` is null, else on min(pool->size(), queue.slots())
/// pool tasks, each looping `while (queue.Next(&c)) body(c);`, and waits
/// for completion. `body` must be safe to run concurrently on distinct
/// claims (claims never share rows or slots). If the pool is shutting down
/// the queue is drained inline, so the reduction is always complete when
/// this returns.
///
/// A pooled run keeps the dominance-count protocol of
/// ThreadPool::HarvestDominanceChecks: counts earlier users left on the
/// pool are dropped before the claims run, and the workers' counts are
/// folded into the calling thread's DominanceCounter after, so callers
/// measure a pooled run exactly like an inline one.
///
/// `stall` is a test hook run after each claim BEFORE its body — the
/// determinism stress suite injects random per-claim delays with it to
/// scramble scheduling order. It must depend only on the claim (never on
/// thread identity). Pass nullptr outside tests.
void RunMorsels(ThreadPool* pool, MorselQueue& queue,
                const std::function<void(const MorselQueue::Claim&)>& body,
                const std::function<void(const MorselQueue::Claim&)>* stall = nullptr);

/// The worker count to size a MorselQueue with when it is drained on
/// `pool`: the pool's size, or one when the claims run inline.
inline size_t MorselWorkers(const ThreadPool* pool) {
  return pool != nullptr ? pool->size() : 1;
}

}  // namespace skydiver
