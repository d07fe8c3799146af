#include "parallel/morsel.h"

#include <algorithm>
#include <vector>

#include "core/dominance.h"

namespace skydiver {

MorselQueue::MorselQueue(uint64_t n, size_t workers, MorselConfig config) : n_(n) {
  morsel_rows_ = config.morsel_rows == 0 ? kDefaultMorselRows : config.morsel_rows;
  workers = std::max<size_t>(1, workers);
  const uint64_t morsels = n == 0 ? 0 : (n + morsel_rows_ - 1) / morsel_rows_;
  size_t batch = config.batch_morsels;
  if (batch == 0) {
    // Auto: enough claims that fast workers absorb a slow one, few enough
    // that per-slot reduction state stays ~kClaimsPerWorker x pool size.
    const uint64_t target_claims = static_cast<uint64_t>(kClaimsPerWorker) * workers;
    batch = morsels <= target_claims
                ? 1
                : static_cast<size_t>((morsels + target_claims - 1) / target_claims);
  }
  batch_morsels_ = batch;
  claim_rows_ = static_cast<uint64_t>(batch) * morsel_rows_;
  slots_ = morsels == 0 ? 0 : static_cast<size_t>((morsels + batch - 1) / batch);
}

bool MorselQueue::Next(Claim* out) {
  // skylint:allow(relaxed-ordering): atomicity-only claim counter. The
  // fetch_add's uniqueness gives this claim exclusive rows and an
  // exclusive reduction slot; the ordering edge that publishes slot
  // contents to the reducing caller is carried by the mutex of RunMorsels'
  // per-call group (worker finishes its claims -> --pending_ under the
  // group's mutex -> the caller's wait sees pending_ == 0 under it).
  const uint64_t claim = next_claim_.fetch_add(1, std::memory_order_relaxed);
  if (claim >= slots_) return false;
  out->slot = static_cast<size_t>(claim);
  out->begin = claim * claim_rows_;
  out->end = std::min<uint64_t>(n_, out->begin + claim_rows_);
  {
    MutexLock lock(mutex_);
    ++stats_.claims;
    stats_.rows += out->end - out->begin;
  }
  return true;
}

namespace {

// The claims of one RunMorsels call on a shared pool: how many of its
// tasks are still running, and the dominance checks those tasks charged.
// The caller waits on this group alone, so callers sharing a pool neither
// wait for nor count each other's claims.
class ClaimGroup {
 public:
  explicit ClaimGroup(size_t tasks) : pending_(tasks) {}

  // Runs one task's claims and charges its checks to the group. The
  // notify happens under the lock, so the caller cannot see the group
  // drain (and destroy it) while this task still touches it.
  void RunTask(const std::function<void()>& drain) {
    const uint64_t total_before = DominanceCounter::Count();
    const uint64_t tiled_before = DominanceCounter::TiledCount();
    drain();
    MutexLock lock(mutex_);
    checks_.total += DominanceCounter::Count() - total_before;
    checks_.tiled += DominanceCounter::TiledCount() - tiled_before;
    if (--pending_ == 0) done_.NotifyAll();
  }

  // Blocks until every task has run, then returns their checks.
  DominanceHarvest Wait() {
    MutexLock lock(mutex_);
    while (pending_ != 0) done_.Wait(mutex_);
    return checks_;
  }

 private:
  Mutex mutex_;
  CondVar done_;
  size_t pending_ SKYDIVER_GUARDED_BY(mutex_);
  DominanceHarvest checks_ SKYDIVER_GUARDED_BY(mutex_);
};

}  // namespace

void RunMorsels(ThreadPool* pool, MorselQueue& queue,
                const std::function<void(const MorselQueue::Claim&)>& body,
                const std::function<void(const MorselQueue::Claim&)>* stall) {
  if (queue.slots() == 0) return;
  const std::function<void()> drain = [&queue, &body, stall] {
    MorselQueue::Claim claim;
    while (queue.Next(&claim)) {
      if (stall != nullptr && *stall) (*stall)(claim);
      body(claim);
    }
  };
  if (pool == nullptr) {
    drain();
    return;
  }
  const size_t workers = std::min(std::max<size_t>(1, pool->size()), queue.slots());
  ClaimGroup group(workers);
  std::vector<std::function<void()>> tasks(
      workers, [&group, &drain] { group.RunTask(drain); });
  if (!pool->SubmitBatch(tasks)) {
    // The pool is shutting down: finish the claims inline, where the
    // calling thread's own counters charge them.
    drain();
    return;
  }
  const DominanceHarvest h = group.Wait();
  DominanceCounter::Count() += h.total;
  DominanceCounter::TiledCount() += h.tiled;
}

}  // namespace skydiver
