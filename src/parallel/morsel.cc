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
  // contents to the reducing caller is carried by ThreadPool's mutex_
  // (worker finishes task -> --in_flight_ under mutex_ -> Wait() returns),
  // the same protocol as the documented dominance-check harvest.
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

void RunMorsels(ThreadPool* pool, MorselQueue& queue,
                const std::function<void(const MorselQueue::Claim&)>& body,
                const std::function<void(const MorselQueue::Claim&)>* stall) {
  if (queue.slots() == 0) return;
  const auto drain = [&queue, &body, stall] {
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
  (void)pool->HarvestDominanceChecks();  // drop leftovers from earlier pool users
  const size_t workers = std::min(std::max<size_t>(1, pool->size()), queue.slots());
  std::vector<std::function<void()>> tasks(workers, std::function<void()>(drain));
  if (!pool->SubmitBatch(tasks)) drain();  // pool shutting down: finish inline
  pool->Wait();
  const DominanceHarvest h = pool->HarvestDominanceChecks();
  DominanceCounter::Count() += h.total;
  DominanceCounter::TiledCount() += h.tiled;
}

}  // namespace skydiver
