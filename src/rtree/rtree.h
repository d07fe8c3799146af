// Aggregate R*-tree over a simulated page file.
//
// This is the index substrate of the paper: an aggregate R*-tree (Papadias
// et al.'s aRtree) where every internal entry carries the COUNT of data
// points in its subtree. The SkyDiver experiments use it for: BBS skyline
// computation, the index-based signature generator (Fig. 4), and the
// Simple-Greedy baseline's range-count queries.
//
// Node layout follows a 4 KB page discipline: the node fanout is derived
// from the configured page size and the dimensionality exactly as a
// disk-resident tree's would be, and every node access goes through an LRU
// `BufferPool` so that page faults can be charged per the paper's 8 ms
// cost model. Construction supports both dynamic R*-style insertion
// (choose-subtree by minimum overlap enlargement, split by the R* axis /
// distribution criteria) and STR bulk loading.

#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "rtree/buffer_pool.h"
#include "rtree/mbr.h"

namespace skydiver {

/// Construction and paging parameters.
struct RTreeConfig {
  /// Simulated disk page size in bytes (paper: 4 KB).
  uint32_t page_size = 4096;
  /// Minimum node fill as a fraction of capacity (R* default 40%).
  double min_fill = 0.4;
  /// Buffer-pool size as a fraction of the tree's pages (paper: 20%).
  double cache_fraction = 0.2;
};

/// Checks the values a tree over `dims`-dimensional points pages with:
/// a page that holds at least two internal entries, `min_fill` in
/// (0, 0.5] and `cache_fraction` in (0, 1] (NaN fails every range).
/// Trees built or loaded from a file are checked with it, so a cache is
/// never sized from a value outside these ranges.
[[nodiscard]] Status ValidateRTreeConfig(const RTreeConfig& config, Dim dims);

/// One slot of a node: a child subtree (internal) or a data point (leaf).
struct RTreeEntry {
  Mbr mbr;
  PageId child = kInvalidPageId;  ///< Child page (internal entries only).
  uint64_t count = 0;             ///< Aggregate: points below (1 for leaf entries).
  RowId row = kInvalidRowId;      ///< Data row (leaf entries only).
};

/// One node, occupying one simulated page.
struct RTreeNode {
  PageId id = kInvalidPageId;
  bool is_leaf = true;
  std::vector<RTreeEntry> entries;

  /// Tight bounding box of all entries.
  Mbr ComputeMbr(Dim dims) const;
  /// Sum of entry counts.
  uint64_t TotalCount() const;
};

/// Aggregate R*-tree.
class RTree {
 public:
  /// Creates an empty tree over `dims`-dimensional points. `config` must
  /// pass ValidateRTreeConfig (checked: the process aborts otherwise).
  RTree(Dim dims, RTreeConfig config = {});

  /// Bulk-loads the whole dataset with Sort-Tile-Recursive packing, then
  /// finalizes the buffer pool. Replaces any existing content.
  [[nodiscard]] static Result<RTree> BulkLoad(const DataSet& data, RTreeConfig config = {});

  /// Builds by repeated dynamic insertion (exercises the R* split paths).
  [[nodiscard]] static Result<RTree> InsertLoad(const DataSet& data, RTreeConfig config = {});

  /// Inserts one point. O(log n) amortized.
  void Insert(std::span<const Coord> point, RowId row);

  /// Sizes the buffer pool to `cache_fraction` of the current page count
  /// and clears its contents. Call after construction, before measuring.
  void FinalizeCache();

  Dim dims() const { return dims_; }
  uint64_t size() const { return size_; }
  size_t PageCount() const { return store_.size(); }
  PageId root() const { return root_; }
  uint32_t height() const { return height_; }
  const RTreeConfig& config() const { return config_; }

  /// Maximum entries per leaf / internal page for this dimensionality.
  size_t LeafCapacity() const { return leaf_capacity_; }
  size_t InternalCapacity() const { return internal_capacity_; }

  /// Reads a node through the buffer pool (records a logical page read and
  /// possibly a fault).
  const RTreeNode& ReadNode(PageId id) const;

  /// Reads a node WITHOUT touching the buffer pool: no lock, no I/O
  /// accounting. For serialization and inspection, which are not queries;
  /// every traversal, pooled ones included, reads through ReadNode (the
  /// pool is internally locked).
  const RTreeNode& PeekNode(PageId id) const { return store_[id]; }

  /// Number of points inside the closed box [lo, hi] — aggregate-aware:
  /// fully contained subtrees contribute their count without descending.
  uint64_t RangeCount(std::span<const Coord> lo, std::span<const Coord> hi) const;

  /// Row ids of all points inside the closed box [lo, hi].
  std::vector<RowId> RangeSearch(std::span<const Coord> lo,
                                 std::span<const Coord> hi) const;

  /// A nearest-neighbor result.
  struct Neighbor {
    RowId row = kInvalidRowId;
    double distance = 0.0;  ///< Euclidean distance to the query point.
  };

  /// The k nearest neighbors of `point` (Euclidean), nearest first — the
  /// classic best-first search over MBR mindists (Hjaltason & Samet).
  /// Returns fewer than k when the tree is smaller than k.
  std::vector<Neighbor> NearestNeighbors(std::span<const Coord> point, size_t k) const;

  /// Number of points strictly dominated by `p` (weak-region count minus
  /// duplicates of p), computed with aggregate range counting — the
  /// primitive behind the Simple-Greedy baseline. |Γ(p)|.
  uint64_t DominatedCount(std::span<const Coord> p) const;

  /// |Γ(p) ∩ Γ(q)| for two distinct skyline points: the count of points
  /// weakly dominated by the component-wise maximum corner of p and q.
  uint64_t CommonDominatedCount(std::span<const Coord> p,
                                std::span<const Coord> q) const;

  /// I/O statistics of the underlying buffer pool (a consistent copy; the
  /// pool is internally locked).
  IoStats io_stats() const { return pool_.stats(); }
  void ResetIoStats() const { pool_.ResetStats(); }
  BufferPool& pool() const { return pool_; }

  /// Structural invariant check (tests): MBR tightness, aggregate-count
  /// consistency, fill factors, uniform leaf depth. Returns a non-OK status
  /// describing the first violation found.
  [[nodiscard]] Status CheckInvariants() const;

  /// Persists the whole tree (config, nodes, aggregates) to a checksummed
  /// binary file, so an index built once can be reloaded without another
  /// bulk load.
  [[nodiscard]] Status SaveToFile(const std::string& path) const;

  /// Loads a tree written by SaveToFile; verifies magic and checksum, and
  /// finalizes a fresh buffer pool.
  [[nodiscard]] static Result<RTree> LoadFromFile(const std::string& path);

 private:
  RTreeNode& Node(PageId id) { return store_[id]; }
  const RTreeNode& NodeNoIo(PageId id) const { return store_[id]; }
  PageId AllocateNode(bool is_leaf);

  // Returns the index of the child entry to descend for `mbr`.
  size_t ChooseSubtree(const RTreeNode& node, const Mbr& mbr) const;
  // Splits an over-full node; returns the new sibling's page id.
  PageId SplitNode(PageId node_id);
  // Recursive insert; returns sibling page id if `node_id` split, else
  // kInvalidPageId. Updates entry MBRs/counts along the path.
  PageId InsertRec(PageId node_id, const RTreeEntry& entry);

  void BulkLoadInternal(const DataSet& data);

  Dim dims_;
  RTreeConfig config_;
  size_t leaf_capacity_;
  size_t internal_capacity_;
  std::deque<RTreeNode> store_;  // the simulated page file
  PageId root_ = kInvalidPageId;
  uint64_t size_ = 0;
  uint32_t height_ = 0;
  // skylint:allow(guarded-mutex): internally synchronized — the pool owns
  // a SharedMutex capability guarding all of its state (buffer_pool.h).
  mutable BufferPool pool_;
};

}  // namespace skydiver
