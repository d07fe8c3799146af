#include "minhash/siggen.h"

#include <algorithm>
#include <atomic>
#include <utility>

#include "core/dominance.h"
#include "minhash/ib_accumulator.h"
#include "parallel/morsel.h"
#include "rtree/disk_rtree.h"

namespace skydiver {

namespace {

// Validates the shared preconditions of both generators.
Status ValidateInputs(const DataSet& data, const std::vector<RowId>& skyline,
                      const MinHashFamily& family) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  if (family.size() == 0) return Status::InvalidArgument("hash family is empty");
  if (family.prime() <= data.size()) {
    return Status::InvalidArgument("hash family prime must exceed the dataset size");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSignatureFamily(family));
  for (RowId s : skyline) {
    if (s >= data.size()) {
      return Status::InvalidArgument("skyline row " + std::to_string(s) +
                                     " out of range");
    }
  }
  return Status::OK();
}

}  // namespace

uint64_t SequentialScanPages(uint64_t n, Dim dims, uint32_t page_size) {
  const uint64_t record_bytes = sizeof(Coord) * dims + sizeof(RowId);
  const uint64_t records_per_page = std::max<uint64_t>(1, page_size / record_bytes);
  return (n + records_per_page - 1) / records_per_page;
}

void SigGenIfRows(const DataSet& data, const std::vector<bool>& is_skyline,
                  const SkylineBlocks& blocks, const DominanceKernel& kernel,
                  const MinHashFamily& family, uint64_t begin, uint64_t end,
                  SignatureMatrix* signatures, std::vector<uint64_t>* scores) {
  // Hash values of the current row, computed once and min-merged into every
  // dominating column (equivalent to the paper's per-column UpdateMatrix,
  // which re-evaluates the same t hashes). Dominated rows sit close
  // together, so the hasher mostly steps from the previous one.
  RowHasher hasher(family);
  for (uint64_t r = begin; r < end; ++r) {
    if (is_skyline[r]) continue;  // skyline points belong to no Γ set
    const uint32_t* row_hash = nullptr;
    blocks.ForEachDominator(data.row(static_cast<RowId>(r)), kernel, [&](size_t j) {
      ++(*scores)[j];
      if (row_hash == nullptr) row_hash = hasher.Row(r);
      signatures->MergeMin(j, row_hash);
    });
  }
}

Result<SigGenResult> SigGenIF(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, DomKernel kernel,
                              ThreadPool* pool, size_t morsel_rows) {
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(data, skyline, family));
  const uint64_t checks_before = DominanceCounter::Count();

  const size_t t = family.size();
  const size_t m = skyline.size();
  const RowId n = data.size();
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);

  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) is_skyline[s] = true;
  // Read-only corner-pruned blocks of the skyline columns, built once and
  // swept by every claim.
  const SkylineBlocks blocks = SkylineBlocks::Build(data, skyline);
  const DominanceKernel batch(EffectiveKernel(kernel, m));
  if (pool == nullptr) {
    SigGenIfRows(data, is_skyline, blocks, batch, family, 0, n, &out.signatures,
                 &out.domination_scores);
  } else {
    // One reduction slot per claim (a batch of consecutive morsels); the
    // auto batch size bounds the per-slot t x m matrices to
    // ~kClaimsPerWorker x pool size.
    MorselConfig cfg;
    cfg.morsel_rows = morsel_rows;
    MorselQueue queue(n, MorselWorkers(pool), cfg);
    std::vector<SignatureMatrix> slot_sig(queue.slots(), SignatureMatrix(t, m));
    std::vector<std::vector<uint64_t>> slot_scores(queue.slots(),
                                                   std::vector<uint64_t>(m, 0));
    RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
      SigGenIfRows(data, is_skyline, blocks, batch, family, c.begin, c.end,
                   &slot_sig[c.slot], &slot_scores[c.slot]);
    });
    // Min-merge the slot matrices and add the slot scores in ascending
    // slot order (any order gives the same bits; a fixed one keeps this
    // loop trivially auditable).
    for (size_t slot = 0; slot < slot_sig.size(); ++slot) {
      for (size_t j = 0; j < m; ++j) out.domination_scores[j] += slot_scores[slot][j];
      out.signatures.MergeMin(slot_sig[slot]);
    }
  }

  // Sequential scan of the data file: every page is a physical read.
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// Each subtree carries its dominance context: `full` holds the skyline
// columns already known to dominate the whole subtree (inherited from
// ancestors), `candidates` the columns that partially dominate it and must
// be re-examined against its children. Columns that do not even dominate
// an ancestor's upper corner can dominate nothing below and are dropped —
// this candidate propagation computes exactly the paper's Fig. 4
// classification while skipping checks Fig. 4 would repeat.
//
// Descends the subtree at `page`, whose rows take the ids from `base` on
// (paper Fig. 4's "rowcount" in depth-first order). The node's pin is
// released before any child is read, so one page is pinned at a time.
template <typename Tree>
Status DescendIb(const Tree& tree, PageId page, uint64_t base,
                 std::span<const size_t> full, std::span<const size_t> candidates,
                 IbAccumulator& acc) {
  NodeSplit split;
  std::vector<std::pair<PageId, uint64_t>> children;  // (page, count) per entry
  {
    // Pin discipline (rtree/page_cache.h): name the ref, check it, borrow
    // the node. RTree's infallible shape compiles the check away.
    decltype(auto) ref = tree.ReadNode(page);
    if (!RefOk(ref)) return RefStatus(ref);
    const RTreeNode& node = NodeOf(ref);
    if (node.is_leaf) {
      // Leaf entries are data points: their dominators are the inherited
      // full set plus every candidate that dominates the point itself.
      acc.AddLeaf(node, base, full, candidates);
      return Status::OK();
    }
    acc.SplitNode(node, candidates, &split);
    children.reserve(node.entries.size());
    for (const RTreeEntry& e : node.entries) children.emplace_back(e.child, e.count);
  }
  std::vector<size_t> entry_full, partial;  // one entry's columns
  for (size_t i = 0; i < children.size(); ++i) {
    const auto [child, count] = children[i];
    const std::span<const size_t> columns =
        split.Expand(i, candidates, full, &entry_full, &partial);
    if (partial.empty()) {
      // Exclusively full (or no) dominance: bulk-update without reading
      // the subtree — the aggregate count stands in for its points.
      acc.AddRange(base, count, columns);
    } else {
      SKYDIVER_RETURN_NOT_OK(DescendIb(tree, child, base, columns, partial, acc));
    }
    base += count;
  }
  return Status::OK();
}

// One unit of pooled IB work: a subtree to descend, or (page ==
// kInvalidPageId) a range update over the `count` ids from `base` for a
// subtree that needs no descent.
struct IbTask {
  PageId page = kInvalidPageId;
  uint64_t base = 0;
  uint64_t count = 0;
  std::vector<size_t> full;
  std::vector<size_t> candidates;
};

// Expands the tree's top levels, one level at a time, into tasks in
// depth-first order until there are `target` of them or the next level
// holds leaves. Only inner nodes are read here, each once, and a task's
// page is read by the worker that descends it, so the pooled descent reads
// exactly the pages of the inline one.
template <typename Tree>
Status SplitTopLevels(const Tree& tree, std::span<const std::span<const Coord>> sky,
                      DomKernel kernel, size_t target, std::vector<IbTask>* tasks) {
  CandidateTiles tiles(sky, kernel);
  NodeSplit split;
  std::vector<size_t> full, partial;
  std::vector<size_t> all(sky.size());
  for (size_t j = 0; j < all.size(); ++j) all[j] = j;
  tasks->assign(1, IbTask{tree.root(), 0, 0, {}, std::move(all)});
  bool leaf_seen = false;
  for (uint32_t depth = 0;
       !leaf_seen && depth + 1 < tree.height() && tasks->size() < target; ++depth) {
    std::vector<IbTask> next;
    for (IbTask& task : *tasks) {
      if (task.page == kInvalidPageId) {
        next.push_back(std::move(task));
        continue;
      }
      decltype(auto) ref = tree.ReadNode(task.page);
      if (!RefOk(ref)) return RefStatus(ref);
      const RTreeNode& node = NodeOf(ref);
      if (node.is_leaf) {  // the height is wrong: stop; the worker reads it again
        leaf_seen = true;
        next.push_back(std::move(task));
        continue;
      }
      tiles.Load(task.candidates);
      tiles.SplitNode(node, &split);
      uint64_t base = task.base;
      for (size_t i = 0; i < node.entries.size(); ++i) {
        const RTreeEntry& e = node.entries[i];
        const std::span<const size_t> columns =
            split.Expand(i, task.candidates, task.full, &full, &partial);
        next.push_back(IbTask{partial.empty() ? kInvalidPageId : e.child, base, e.count,
                              {columns.begin(), columns.end()}, partial});
        base += e.count;
      }
    }
    *tasks = std::move(next);
  }
  return Status::OK();
}

}  // namespace

template <typename Tree>
Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const Tree& tree,
                              DomKernel kernel, ThreadPool* pool) {
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(data, skyline, family));
  if (tree.dims() != data.dims() || tree.size() != data.size()) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  const uint64_t checks_before = DominanceCounter::Count();
  const IoStats io_before = tree.io_stats();

  const size_t t = family.size();
  const size_t m = skyline.size();
  SigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);

  // Skyline coordinates, resolved once.
  std::vector<std::span<const Coord>> sky(m);
  for (size_t j = 0; j < m; ++j) sky[j] = data.row(skyline[j]);

  if (pool == nullptr) {
    std::vector<size_t> all(m);
    for (size_t j = 0; j < m; ++j) all[j] = j;
    IbAccumulator acc(sky, family, kernel, &out.signatures, &out.domination_scores);
    SKYDIVER_RETURN_NOT_OK(DescendIb(tree, tree.root(), 0, {}, all, acc));
  } else {
    std::vector<IbTask> tasks;
    SKYDIVER_RETURN_NOT_OK(
        SplitTopLevels(tree, sky, kernel, kClaimsPerWorker * pool->size(), &tasks));
    // One claim per worker; each drains the shared task list into its own
    // slot. Which slot takes which task depends on scheduling, but the
    // slots fold by min-merges and sums, which no order changes.
    struct Slot {
      SignatureMatrix signatures;
      std::vector<uint64_t> scores;
      Status status;
    };
    const size_t workers = pool->size();
    std::vector<Slot> slots;
    slots.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      slots.push_back(Slot{SignatureMatrix(t, m), std::vector<uint64_t>(m, 0), {}});
    }
    MorselConfig cfg;
    cfg.morsel_rows = 1;
    cfg.batch_morsels = 1;
    MorselQueue queue(workers, workers, cfg);
    std::atomic<size_t> next_task{0};
    RunMorsels(pool, queue, [&](const MorselQueue::Claim& c) {
      Slot& slot = slots[c.slot];
      IbAccumulator acc(sky, family, kernel, &slot.signatures, &slot.scores);
      for (size_t i = next_task++; i < tasks.size() && slot.status.ok();
           i = next_task++) {
        const IbTask& task = tasks[i];
        if (task.page == kInvalidPageId) {
          acc.AddRange(task.base, task.count, task.full);
        } else {
          slot.status =
              DescendIb(tree, task.page, task.base, task.full, task.candidates, acc);
        }
      }
    });
    for (const Slot& slot : slots) {
      SKYDIVER_RETURN_NOT_OK(slot.status);
      for (size_t j = 0; j < m; ++j) out.domination_scores[j] += slot.scores[j];
      out.signatures.MergeMin(slot.signatures);
    }
  }

  const IoStats io_after = tree.io_stats();
  out.io.page_reads = io_after.page_reads - io_before.page_reads;
  out.io.page_faults = io_after.page_faults - io_before.page_faults;
  out.io.page_writes = io_after.page_writes - io_before.page_writes;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

template Result<SigGenResult> SigGenIB<RTree>(const DataSet&, const std::vector<RowId>&,
                                              const MinHashFamily&, const RTree&,
                                              DomKernel, ThreadPool*);
template Result<SigGenResult> SigGenIB<DiskRTree>(const DataSet&,
                                                  const std::vector<RowId>&,
                                                  const MinHashFamily&, const DiskRTree&,
                                                  DomKernel, ThreadPool*);

}  // namespace skydiver
