#include "minhash/siggen.h"

#include <algorithm>
#include <deque>

#include "core/dominance.h"
#include "minhash/ib_accumulator.h"
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
  // which re-evaluates the same t hashes).
  std::vector<uint32_t> row_hash(family.size());
  for (uint64_t r = begin; r < end; ++r) {
    if (is_skyline[r]) continue;  // skyline points belong to no Γ set
    bool hashed = false;
    blocks.ForEachDominator(data.row(static_cast<RowId>(r)), kernel, [&](size_t j) {
      ++(*scores)[j];
      if (!hashed) {
        family.HashRow(r, row_hash.data());
        hashed = true;
      }
      signatures->MergeMin(j, row_hash.data());
    });
  }
}

Result<SigGenResult> SigGenIF(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, DomKernel kernel) {
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(data, skyline, family));
  const uint64_t checks_before = DominanceCounter::Count();

  const size_t m = skyline.size();
  const RowId n = data.size();
  SigGenResult out;
  out.signatures = SignatureMatrix(family.size(), m);
  out.domination_scores.assign(m, 0);

  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) is_skyline[s] = true;
  const SkylineBlocks blocks = SkylineBlocks::Build(data, skyline);
  SigGenIfRows(data, is_skyline, blocks, DominanceKernel(EffectiveKernel(kernel, m)),
               family, 0, n, &out.signatures, &out.domination_scores);

  // Sequential scan of the data file: every page is a physical read.
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

namespace {

// Shared implementation over any tree backend exposing ReadNode / root /
// dims / size / io_stats (RTree and DiskRTree).
template <typename Tree>
Result<SigGenResult> SigGenIBImpl(const DataSet& data, const std::vector<RowId>& skyline,
                                  const MinHashFamily& family, const Tree& tree,
                                  DomKernel kernel) {
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
  IbAccumulator acc(sky, family, kernel, &out.signatures, &out.domination_scores);

  // Row-id counter: the traversal assigns consecutive ids to data points in
  // visit order. MinHash only needs *distinct* ids under a random
  // permutation, so the enumeration order is free (paper Fig. 4, rowcount).
  uint64_t rowcount = 0;

  // Each queued subtree carries its dominance context: `full` holds the
  // skyline columns already known to dominate the whole subtree (inherited
  // from ancestors), `candidates` the columns that partially dominate it
  // and must be re-examined against its children. Columns that do not even
  // dominate an ancestor's upper corner can dominate nothing below and are
  // dropped — this candidate propagation computes exactly the paper's
  // Fig. 4 classification while skipping checks Fig. 4 would repeat.
  struct Task {
    PageId page;
    std::vector<size_t> full;
    std::vector<size_t> candidates;
  };
  std::deque<Task> queue;
  {
    Task root;
    root.page = tree.root();
    root.candidates.resize(m);
    for (size_t j = 0; j < m; ++j) root.candidates[j] = j;
    queue.push_back(std::move(root));
  }
  NodeSplit split;                    // classification of the current node
  std::vector<size_t> full, partial;  // one entry's columns (scratch)
  while (!queue.empty()) {
    Task task = std::move(queue.front());
    queue.pop_front();
    // Pin discipline (rtree/page_cache.h): name the ref, check it, borrow
    // the node. RTree's infallible shape compiles the check away.
    decltype(auto) ref = tree.ReadNode(task.page);
    if (!RefOk(ref)) return RefStatus(ref);
    const RTreeNode& node = NodeOf(ref);
    if (node.is_leaf) {
      // Leaf entries are data points: their dominators are the inherited
      // full set plus every candidate that dominates the point itself.
      acc.AddLeaf(node, rowcount, task.full, task.candidates);
      rowcount += node.entries.size();
      continue;
    }
    acc.SplitNode(node, task.candidates, &split);
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const RTreeEntry& e = node.entries[i];
      const std::span<const size_t> entry_full =
          split.Expand(i, task.candidates, task.full, &full, &partial);
      if (partial.empty()) {
        // Exclusively full (or no) dominance: bulk-update without reading
        // the subtree — the aggregate count stands in for its points.
        acc.AddRange(rowcount, e.count, entry_full);
        rowcount += e.count;
      } else {
        // Must look inside. The queue can hold a whole tree level, so the
        // child's lists are copies of exactly their size.
        queue.push_back(Task{e.child, {entry_full.begin(), entry_full.end()}, partial});
      }
    }
  }

  const IoStats io_after = tree.io_stats();
  out.io.page_reads = io_after.page_reads - io_before.page_reads;
  out.io.page_faults = io_after.page_faults - io_before.page_faults;
  out.io.page_writes = io_after.page_writes - io_before.page_writes;
  out.dominance_checks = DominanceCounter::Count() - checks_before;
  return out;
}

}  // namespace

Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const RTree& tree,
                              DomKernel kernel) {
  return SigGenIBImpl(data, skyline, family, tree, kernel);
}

Result<SigGenResult> SigGenIB(const DataSet& data, const std::vector<RowId>& skyline,
                              const MinHashFamily& family, const DiskRTree& tree,
                              DomKernel kernel) {
  return SigGenIBImpl(data, skyline, family, tree, kernel);
}

}  // namespace skydiver
