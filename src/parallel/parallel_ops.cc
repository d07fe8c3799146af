#include "parallel/parallel_ops.h"

#include <algorithm>
#include <atomic>

#include "common/mutex.h"
#include "core/dominance.h"
#include "minhash/ib_accumulator.h"
#include "parallel/morsel.h"

namespace skydiver {

namespace {

// Folds pool-side dominance work into the calling thread's counters so that
// surrounding scopes (CheckScope, QueryContext stage accounting) observe it;
// returns the harvested total for the result struct.
uint64_t FoldHarvest(ThreadPool& pool) {
  const DominanceHarvest h = pool.HarvestDominanceChecks();
  DominanceCounter::Count() += h.total;
  DominanceCounter::TiledCount() += h.tiled;
  return h.total;
}

}  // namespace

SkylineResult ParallelSkyline(const DataView& view, ThreadPool& pool,
                              DomKernel kernel, size_t morsel_rows) {
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users
  const std::vector<RowId>& all = view.rows();

  // Phase 1: local skylines per claim. Each claim is a contiguous slice of
  // the view's (ascending) row list; SkylineSFSRows works on the shared
  // view in place, so no per-shard dataset copies are made. Slots index
  // the claims (pure function of the row range), so the fold below is
  // scheduling-independent.
  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;
  MorselQueue queue(all.size(), pool.size(), cfg);
  std::vector<std::vector<RowId>> locals(queue.slots());
  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    locals[c.slot] =
        SkylineSFSRows(view,
                       std::span<const RowId>(all).subspan(
                           static_cast<size_t>(c.begin),
                           static_cast<size_t>(c.end - c.begin)),
                       kernel)
            .rows;
  });
  FoldHarvest(pool);

  // Phase 2: merge — the union of local skylines is a superset of the
  // global skyline; one SFS pass over it finishes the job.
  std::vector<RowId> candidates;
  for (const auto& l : locals) candidates.insert(candidates.end(), l.begin(), l.end());
  std::sort(candidates.begin(), candidates.end());
  std::vector<RowId> out = SkylineSFSRows(view, candidates, kernel).rows;
  return SkylineResult{std::move(out), DominanceCounter::Count() - checks_before};
}

SkylineResult ParallelSkyline(const DataSet& data, ThreadPool& pool,
                              DomKernel kernel, size_t morsel_rows) {
  return ParallelSkyline(DataView(data), pool, kernel, morsel_rows);
}

SkylineResult ShardedSkyline(const DataView& view, size_t shards, ThreadPool* pool,
                             DomKernel kernel) {
  if (pool == nullptr || shards <= 1 || view.empty()) {
    return SkylineSharded(view, shards, kernel);
  }
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool->HarvestDominanceChecks();  // drop leftovers from earlier pool users
  const std::vector<RowId>& all = view.rows();
  shards = std::clamp<size_t>(shards, 1, all.size());
  // SkylineSharded's exact chunking (ceil-sized chunks, short tail), so the
  // per-shard inputs — and with them the dominance-check tally — match the
  // serial backend, not just the merged row set.
  const size_t chunk = (all.size() + shards - 1) / shards;
  const size_t populated = (all.size() + chunk - 1) / chunk;
  std::vector<std::vector<RowId>> locals(populated);

  // Shard phase on the pool: the claim unit is one shard (morsel_rows = 1,
  // batch = 1 over [0, populated)), so slot == shard id and the merge below
  // folds in shard order — the result set is order-independent (the
  // skyline of a union is unique), but a fixed fold order also makes the
  // dominance-check tally deterministic.
  MorselConfig cfg;
  cfg.morsel_rows = 1;
  cfg.batch_morsels = 1;
  MorselQueue queue(populated, pool->size(), cfg);
  RunMorsels(*pool, queue, [&](const MorselQueue::Claim& c) {
    const size_t s = c.slot;
    const size_t begin = s * chunk;
    const size_t end = std::min(begin + chunk, all.size());
    locals[s] = SkylineSFSRows(
                    view, std::span<const RowId>(all).subspan(begin, end - begin),
                    kernel)
                    .rows;
  });
  FoldHarvest(*pool);

  // Merge phase: left-fold the local antichains with the cross-filter.
  std::vector<RowId> merged;
  for (auto& l : locals) {
    if (merged.empty()) {
      merged = std::move(l);
    } else if (!l.empty()) {
      merged = CrossFilterMerge(view, merged, l, kernel);
    }
  }
  std::sort(merged.begin(), merged.end());
  return SkylineResult{std::move(merged), DominanceCounter::Count() - checks_before};
}

Result<SigGenResult> ParallelSigGenIF(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, ThreadPool& pool,
                                      DomKernel kernel, size_t morsel_rows) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  if (family.prime() <= data.size()) {
    return Status::InvalidArgument("hash family prime must exceed the dataset size");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSignatureFamily(family));
  const size_t t = family.size();
  const size_t m = skyline.size();
  const RowId n = data.size();
  for (RowId s : skyline) {
    if (s >= n) return Status::InvalidArgument("skyline row out of range");
  }
  kernel = EffectiveKernel(kernel, m);
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users

  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) is_skyline[s] = true;

  // Shared read-only corner-pruned blocks of the skyline columns, built
  // once and swept by every claim (SkylineBlocks is immutable).
  const SkylineBlocks blocks = SkylineBlocks::Build(data, skyline);
  const DominanceKernel batch(kernel);

  // One reduction slot per claim (a batch of consecutive morsels — see
  // parallel/morsel.h); the auto batch size bounds the per-slot t x m
  // matrices to ~kClaimsPerWorker x pool size.
  MorselConfig cfg;
  cfg.morsel_rows = morsel_rows;
  MorselQueue queue(n, pool.size(), cfg);
  const size_t slots = queue.slots();
  std::vector<SignatureMatrix> slot_sig(slots, SignatureMatrix(t, m));
  std::vector<std::vector<uint64_t>> slot_scores(slots,
                                                 std::vector<uint64_t>(m, 0));

  RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
    SigGenIfRows(data, is_skyline, blocks, batch, family, c.begin, c.end,
                 &slot_sig[c.slot], &slot_scores[c.slot]);
  });
  FoldHarvest(pool);

  // Min-merge slot matrices in ascending slot order; add slot scores.
  // (MinHash minima and sums are associative/commutative, so any order
  // yields the serial result — the fixed order is belt-and-braces and
  // keeps this loop trivially auditable against the determinism bar.)
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);
  for (size_t s = 0; s < slots; ++s) {
    for (size_t j = 0; j < m; ++j) out.domination_scores[j] += slot_scores[s][j];
    out.signatures.MergeMin(slot_sig[s]);
  }
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// One unit of parallel IB work: either a subtree with its dominance
// context (page valid), or a pure range update over `count` row ids for
// a subtree that needs no descent (page == kInvalidPageId).
struct IbTask {
  PageId page = kInvalidPageId;
  uint64_t base = 0;               // first row id of this subtree
  uint64_t count = 0;              // range length for pure range updates
  std::vector<size_t> full;        // columns dominating the whole subtree
  std::vector<size_t> candidates;  // columns partially dominating it
};

// Per-worker state for the recursive subtree processing.
struct IbWorker {
  SignatureMatrix signatures;
  std::vector<uint64_t> scores;
  uint64_t pages_read = 0;

  IbWorker(size_t t, size_t m) : signatures(t, m), scores(m, 0) {}
};

// Processes one subtree recursively against the candidate columns;
// row-id ranges come from the DFS prefix sums of the entry counts. The
// node's entries are all classified before any child is descended into,
// since the children reuse the accumulator's candidate tiles.
void IbProcessSubtree(const RTree& tree, const IbTask& task, IbAccumulator& acc,
                      IbWorker* worker) {
  const RTreeNode& node = tree.PeekNode(task.page);
  ++worker->pages_read;
  if (node.is_leaf) {
    acc.AddLeaf(node, task.base, task.full, task.candidates);
    return;
  }
  NodeSplit split;
  acc.SplitNode(node, task.candidates, &split);
  std::vector<size_t> full, partial;
  uint64_t offset = task.base;
  for (size_t i = 0; i < node.entries.size(); ++i) {
    const RTreeEntry& e = node.entries[i];
    const std::span<const size_t> entry_full =
        split.Expand(i, task.candidates, task.full, &full, &partial);
    if (partial.empty()) {
      acc.AddRange(offset, e.count, entry_full);
    } else {
      IbProcessSubtree(
          tree,
          IbTask{e.child, offset, 0, {entry_full.begin(), entry_full.end()}, partial},
          acc, worker);
    }
    offset += e.count;
  }
}

}  // namespace

Result<SigGenResult> ParallelSigGenIB(const DataSet& data,
                                      const std::vector<RowId>& skyline,
                                      const MinHashFamily& family, const RTree& tree,
                                      ThreadPool& pool, DomKernel kernel) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  if (family.prime() <= data.size()) {
    return Status::InvalidArgument("hash family prime must exceed the dataset size");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSignatureFamily(family));
  if (tree.dims() != data.dims() || tree.size() != data.size()) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  const size_t t = family.size();
  const size_t m = skyline.size();
  for (RowId s : skyline) {
    if (s >= data.size()) return Status::InvalidArgument("skyline row out of range");
  }
  std::vector<std::span<const Coord>> sky(m);
  for (size_t j = 0; j < m; ++j) sky[j] = data.row(skyline[j]);
  const uint64_t checks_before = DominanceCounter::Count();
  (void)pool.HarvestDominanceChecks();  // drop leftovers from earlier pool users

  // Split the tree's top levels into tasks with DFS base offsets, until
  // there are enough tasks to feed the pool (or nothing is expandable).
  std::vector<IbTask> tasks;
  {
    CandidateTiles tiles(sky, kernel);
    NodeSplit split;
    std::vector<size_t> full, partial;
    std::vector<size_t> all(m);
    for (size_t j = 0; j < m; ++j) all[j] = j;
    tasks.push_back(IbTask{tree.root(), 0, 0, {}, std::move(all)});
    bool expanded = true;
    while (expanded && tasks.size() < 4 * std::max<size_t>(1, pool.size())) {
      expanded = false;
      std::vector<IbTask> next;
      next.reserve(tasks.size() * 4);
      for (IbTask& task : tasks) {
        if (task.page == kInvalidPageId) {
          next.push_back(std::move(task));  // pure range update: nothing to expand
          continue;
        }
        const RTreeNode& node = tree.PeekNode(task.page);
        if (node.is_leaf) {
          next.push_back(std::move(task));  // per-point work stays one task
          continue;
        }
        expanded = true;
        tiles.Load(task.candidates);
        tiles.SplitNode(node, &split);
        uint64_t offset = task.base;
        for (size_t i = 0; i < node.entries.size(); ++i) {
          const RTreeEntry& e = node.entries[i];
          const std::span<const size_t> entry_full =
              split.Expand(i, task.candidates, task.full, &full, &partial);
          if (partial.empty()) {
            next.push_back(IbTask{kInvalidPageId, offset, e.count,
                                  {entry_full.begin(), entry_full.end()}, {}});
          } else {
            next.push_back(IbTask{e.child, offset, 0,
                                  {entry_full.begin(), entry_full.end()}, partial});
          }
          offset += e.count;
        }
      }
      tasks = std::move(next);
    }
  }

  // Workers.
  const size_t shards = std::max<size_t>(1, pool.size());
  std::vector<IbWorker> workers;
  workers.reserve(shards);
  for (size_t s = 0; s < shards; ++s) workers.emplace_back(t, m);
  std::atomic<size_t> next_task{0};
  std::atomic<size_t> next_worker{0};
  for (size_t s = 0; s < shards; ++s) {
    const bool submitted = pool.Submit([&] {
      const size_t my_id = next_worker.fetch_add(1);
      IbWorker& worker = workers[my_id];
      IbAccumulator acc(sky, family, kernel, &worker.signatures, &worker.scores);
      for (;;) {
        const size_t idx = next_task.fetch_add(1);
        if (idx >= tasks.size()) return;
        const IbTask& task = tasks[idx];
        if (task.page == kInvalidPageId) {
          acc.AddRange(task.base, task.count, task.full);
        } else {
          IbProcessSubtree(tree, task, acc, &worker);
        }
      }
    });
    if (!submitted) break;  // pool shutting down; completed work still merges
  }
  pool.Wait();
  FoldHarvest(pool);

  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);
  for (const IbWorker& worker : workers) {
    for (size_t j = 0; j < m; ++j) out.domination_scores[j] += worker.scores[j];
    out.signatures.MergeMin(worker.signatures);
  }
  uint64_t pages = 0;
  for (const IbWorker& worker : workers) pages += worker.pages_read;
  out.io.page_reads = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

Result<DispersionResult> ParallelSelectDiverseSet(size_t m, size_t k,
                                                  const DistanceFn& distance,
                                                  const ScoreFn& score,
                                                  ThreadPool& pool,
                                                  size_t morsel_rows) {
  return GreedyMaxMin(m, k, PairDistanceRow(distance), score, &pool, morsel_rows);
}

Result<DispersionResult> ParallelSelectDiverseSet(
    size_t m, size_t k, const DistanceFn& distance,
    const std::vector<uint64_t>& domination_scores, ThreadPool& pool,
    size_t morsel_rows) {
  if (domination_scores.size() < m) {
    return Status::InvalidArgument("domination scores cover " +
                                   std::to_string(domination_scores.size()) +
                                   " points but m = " + std::to_string(m));
  }
  return ParallelSelectDiverseSet(
      m, k, distance,
      [&](size_t j) { return static_cast<double>(domination_scores[j]); }, pool,
      morsel_rows);
}

}  // namespace skydiver
