#include "rtree/rtree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <queue>

#include "common/check.h"
#include "rtree/traversal.h"

namespace skydiver {

namespace {

// Per-node on-page header bytes: leaf flag, entry count, padding.
constexpr size_t kNodeHeaderBytes = 16;

size_t LeafEntryBytes(Dim d) { return sizeof(Coord) * d + sizeof(RowId); }
size_t InternalEntryBytes(Dim d) {
  return 2 * sizeof(Coord) * d + sizeof(PageId) + sizeof(uint64_t);
}

size_t CapacityFor(uint32_t page_size, size_t entry_bytes) {
  const size_t usable = page_size > kNodeHeaderBytes ? page_size - kNodeHeaderBytes : 0;
  return std::max<size_t>(2, usable / entry_bytes);
}

// Evenly splits [0, size) into `k` contiguous chunks; returns chunk borders.
std::vector<size_t> EvenChunks(size_t size, size_t k) {
  std::vector<size_t> borders(k + 1);
  for (size_t g = 0; g <= k; ++g) borders[g] = g * size / k;
  return borders;
}

}  // namespace

Status ValidateRTreeConfig(const RTreeConfig& config, Dim dims) {
  // Written as negated in-range tests so that NaN, which fails every
  // comparison, is rejected too.
  if (!(config.cache_fraction > 0.0 && config.cache_fraction <= 1.0)) {
    return Status::InvalidArgument("cache fraction " +
                                   std::to_string(config.cache_fraction) +
                                   " is outside (0, 1]");
  }
  if (!(config.min_fill > 0.0 && config.min_fill <= 0.5)) {
    return Status::InvalidArgument("minimum fill " + std::to_string(config.min_fill) +
                                   " is outside (0, 0.5]");
  }
  const size_t usable =
      config.page_size > kNodeHeaderBytes ? config.page_size - kNodeHeaderBytes : 0;
  if (dims == 0 || usable / InternalEntryBytes(dims) < 2) {
    return Status::InvalidArgument("page size " + std::to_string(config.page_size) +
                                   " holds fewer than two entries of " +
                                   std::to_string(dims) + " dimensions");
  }
  return Status::OK();
}

Mbr RTreeNode::ComputeMbr(Dim dims) const {
  Mbr m(dims);
  for (const auto& e : entries) m.Expand(e.mbr);
  return m;
}

uint64_t RTreeNode::TotalCount() const {
  uint64_t c = 0;
  for (const auto& e : entries) c += e.count;
  return c;
}

RTree::RTree(Dim dims, RTreeConfig config)
    : dims_(dims),
      config_(config),
      leaf_capacity_(CapacityFor(config.page_size, LeafEntryBytes(dims))),
      internal_capacity_(CapacityFor(config.page_size, InternalEntryBytes(dims))) {
  SKYDIVER_DCHECK_GE(dims, 1u);
}

Result<RTree> RTree::BulkLoad(const DataSet& data, RTreeConfig config) {
  if (data.empty()) return Status::InvalidArgument("cannot bulk-load an empty dataset");
  SKYDIVER_RETURN_NOT_OK(ValidateRTreeConfig(config, data.dims()));
  RTree tree(data.dims(), config);
  tree.BulkLoadInternal(data);
  tree.FinalizeCache();
  return tree;
}

Result<RTree> RTree::InsertLoad(const DataSet& data, RTreeConfig config) {
  if (data.empty()) return Status::InvalidArgument("cannot load an empty dataset");
  SKYDIVER_RETURN_NOT_OK(ValidateRTreeConfig(config, data.dims()));
  RTree tree(data.dims(), config);
  const RowId n = data.size();
  for (RowId r = 0; r < n; ++r) tree.Insert(data.row(r), r);
  tree.FinalizeCache();
  return tree;
}

PageId RTree::AllocateNode(bool is_leaf) {
  const PageId id = static_cast<PageId>(store_.size());
  store_.emplace_back();
  store_.back().id = id;
  store_.back().is_leaf = is_leaf;
  pool_.RecordWrite();
  return id;
}

void RTree::FinalizeCache() {
  const auto pages = static_cast<double>(PageCount());
  const auto cap = static_cast<size_t>(std::ceil(config_.cache_fraction * pages));
  pool_.SetCapacity(std::max<size_t>(1, cap));
  pool_.Clear();
  pool_.ResetStats();
}

const RTreeNode& RTree::ReadNode(PageId id) const {
  pool_.Access(id);
  return store_[id];
}

// ---------------------------------------------------------------------------
// Dynamic insertion (R*-style).
// ---------------------------------------------------------------------------

size_t RTree::ChooseSubtree(const RTreeNode& node, const Mbr& mbr) const {
  SKYDIVER_DCHECK(!node.is_leaf && !node.entries.empty());
  const bool children_are_leaves = NodeNoIo(node.entries[0].child).is_leaf;
  size_t best = 0;
  if (children_are_leaves) {
    // R*: minimize overlap enlargement; break ties by area enlargement, then area.
    double best_overlap_delta = std::numeric_limits<double>::infinity();
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      Mbr grown = node.entries[i].mbr;
      grown.Expand(mbr);
      double overlap_before = 0.0;
      double overlap_after = 0.0;
      for (size_t j = 0; j < node.entries.size(); ++j) {
        if (j == i) continue;
        overlap_before += node.entries[i].mbr.OverlapArea(node.entries[j].mbr);
        overlap_after += grown.OverlapArea(node.entries[j].mbr);
      }
      const double overlap_delta = overlap_after - overlap_before;
      const double area_delta = node.entries[i].mbr.Enlargement(mbr);
      const double area = node.entries[i].mbr.Area();
      if (overlap_delta < best_overlap_delta ||
          (overlap_delta == best_overlap_delta &&
           (area_delta < best_area_delta ||
            (area_delta == best_area_delta && area < best_area)))) {
        best = i;
        best_overlap_delta = overlap_delta;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  } else {
    // Minimize area enlargement; break ties by area.
    double best_area_delta = std::numeric_limits<double>::infinity();
    double best_area = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < node.entries.size(); ++i) {
      const double area_delta = node.entries[i].mbr.Enlargement(mbr);
      const double area = node.entries[i].mbr.Area();
      if (area_delta < best_area_delta ||
          (area_delta == best_area_delta && area < best_area)) {
        best = i;
        best_area_delta = area_delta;
        best_area = area;
      }
    }
  }
  return best;
}

PageId RTree::SplitNode(PageId node_id) {
  RTreeNode& node = Node(node_id);
  const size_t total = node.entries.size();
  const size_t cap = node.is_leaf ? leaf_capacity_ : internal_capacity_;
  const auto min_entries =
      std::max<size_t>(1, static_cast<size_t>(std::floor(config_.min_fill * static_cast<double>(cap))));
  SKYDIVER_DCHECK_GT(total, cap);
  SKYDIVER_DCHECK_GE(total, 2 * min_entries);

  // R* split, step 1: choose the axis minimizing the total margin over all
  // legal distributions of the lo-sorted order.
  std::vector<size_t> order(total);
  std::iota(order.begin(), order.end(), 0);
  auto margin_for_axis = [&](Dim axis, std::vector<size_t>* out_order) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const auto& ma = node.entries[a].mbr;
      const auto& mb = node.entries[b].mbr;
      if (ma.lo(axis) != mb.lo(axis)) return ma.lo(axis) < mb.lo(axis);
      return ma.hi(axis) < mb.hi(axis);
    });
    // Prefix / suffix MBRs of the sorted order.
    std::vector<Mbr> prefix(total, Mbr(dims_));
    std::vector<Mbr> suffix(total, Mbr(dims_));
    for (size_t i = 0; i < total; ++i) {
      prefix[i] = i ? prefix[i - 1] : Mbr(dims_);
      prefix[i].Expand(node.entries[order[i]].mbr);
    }
    for (size_t i = total; i-- > 0;) {
      suffix[i] = (i + 1 < total) ? suffix[i + 1] : Mbr(dims_);
      suffix[i].Expand(node.entries[order[i]].mbr);
    }
    double margin_sum = 0.0;
    for (size_t k = min_entries; k <= total - min_entries; ++k) {
      margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
    }
    if (out_order) *out_order = order;
    return margin_sum;
  };

  Dim best_axis = 0;
  double best_margin = std::numeric_limits<double>::infinity();
  for (Dim axis = 0; axis < dims_; ++axis) {
    const double m = margin_for_axis(axis, nullptr);
    if (m < best_margin) {
      best_margin = m;
      best_axis = axis;
    }
  }

  // Step 2: on the chosen axis, pick the split position minimizing overlap,
  // breaking ties by combined area.
  std::vector<size_t> axis_order;
  margin_for_axis(best_axis, &axis_order);
  std::vector<Mbr> prefix(total, Mbr(dims_));
  std::vector<Mbr> suffix(total, Mbr(dims_));
  for (size_t i = 0; i < total; ++i) {
    prefix[i] = i ? prefix[i - 1] : Mbr(dims_);
    prefix[i].Expand(node.entries[axis_order[i]].mbr);
  }
  for (size_t i = total; i-- > 0;) {
    suffix[i] = (i + 1 < total) ? suffix[i + 1] : Mbr(dims_);
    suffix[i].Expand(node.entries[axis_order[i]].mbr);
  }
  size_t best_k = min_entries;
  double best_overlap = std::numeric_limits<double>::infinity();
  double best_area = std::numeric_limits<double>::infinity();
  for (size_t k = min_entries; k <= total - min_entries; ++k) {
    const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap || (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // Materialize the two groups.
  const PageId sibling_id = AllocateNode(node.is_leaf);
  RTreeNode& fresh = Node(node_id);  // re-fetch: AllocateNode may not move (deque) but be safe
  RTreeNode& sibling = Node(sibling_id);
  std::vector<RTreeEntry> group1, group2;
  group1.reserve(best_k);
  group2.reserve(total - best_k);
  for (size_t i = 0; i < total; ++i) {
    (i < best_k ? group1 : group2).push_back(std::move(fresh.entries[axis_order[i]]));
  }
  fresh.entries = std::move(group1);
  sibling.entries = std::move(group2);
  pool_.RecordWrite();  // both pages rewritten
  return sibling_id;
}

PageId RTree::InsertRec(PageId node_id, const RTreeEntry& entry) {
  RTreeNode& node = Node(node_id);
  if (node.is_leaf) {
    node.entries.push_back(entry);
  } else {
    const size_t idx = ChooseSubtree(node, entry.mbr);
    const PageId child = node.entries[idx].child;
    const PageId sibling = InsertRec(child, entry);
    RTreeNode& refreshed = Node(node_id);
    refreshed.entries[idx].mbr = NodeNoIo(child).ComputeMbr(dims_);
    refreshed.entries[idx].count = NodeNoIo(child).TotalCount();
    if (sibling != kInvalidPageId) {
      RTreeEntry se;
      se.mbr = NodeNoIo(sibling).ComputeMbr(dims_);
      se.child = sibling;
      se.count = NodeNoIo(sibling).TotalCount();
      refreshed.entries.push_back(se);
    }
  }
  RTreeNode& current = Node(node_id);
  const size_t cap = current.is_leaf ? leaf_capacity_ : internal_capacity_;
  if (current.entries.size() > cap) return SplitNode(node_id);
  return kInvalidPageId;
}

void RTree::Insert(std::span<const Coord> point, RowId row) {
  SKYDIVER_DCHECK_EQ(point.size(), dims_);
  if (root_ == kInvalidPageId) {
    root_ = AllocateNode(/*is_leaf=*/true);
    height_ = 1;
  }
  RTreeEntry entry;
  entry.mbr = Mbr::OfPoint(point);
  entry.count = 1;
  entry.row = row;
  const PageId sibling = InsertRec(root_, entry);
  if (sibling != kInvalidPageId) {
    const PageId new_root = AllocateNode(/*is_leaf=*/false);
    RTreeNode& root_node = Node(new_root);
    for (PageId child : {root_, sibling}) {
      RTreeEntry e;
      e.mbr = NodeNoIo(child).ComputeMbr(dims_);
      e.child = child;
      e.count = NodeNoIo(child).TotalCount();
      root_node.entries.push_back(e);
    }
    root_ = new_root;
    ++height_;
  }
  ++size_;
}

// ---------------------------------------------------------------------------
// STR bulk load.
// ---------------------------------------------------------------------------

namespace {

// Recursive Sort-Tile-Recursive partitioning of `idx` into groups of at
// most `cap` rows, tiling one dimension at a time. Groups are balanced so
// every group holds at least ~cap/2 rows (satisfying the min-fill invariant).
void TileRec(const DataSet& data, std::span<RowId> idx, Dim dim, size_t cap,
             std::vector<std::pair<size_t, size_t>>* groups, size_t base) {
  const size_t n = idx.size();
  if (n <= cap) {
    groups->emplace_back(base, base + n);
    return;
  }
  const size_t num_groups = (n + cap - 1) / cap;
  const Dim dims = data.dims();
  auto sort_by = [&](Dim d) {
    std::sort(idx.begin(), idx.end(),
              [&](RowId a, RowId b) { return data.at(a, d) < data.at(b, d); });
  };
  if (dim + 1 >= dims) {
    sort_by(dim);
    const auto borders = EvenChunks(n, num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      groups->emplace_back(base + borders[g], base + borders[g + 1]);
    }
    return;
  }
  const auto slabs = static_cast<size_t>(std::ceil(
      std::pow(static_cast<double>(num_groups), 1.0 / static_cast<double>(dims - dim))));
  sort_by(dim);
  const auto borders = EvenChunks(n, std::max<size_t>(1, slabs));
  for (size_t s = 0; s + 1 < borders.size(); ++s) {
    TileRec(data, idx.subspan(borders[s], borders[s + 1] - borders[s]), dim + 1, cap,
            groups, base + borders[s]);
  }
}

}  // namespace

void RTree::BulkLoadInternal(const DataSet& data) {
  const RowId n = data.size();
  std::vector<RowId> idx(n);
  std::iota(idx.begin(), idx.end(), RowId{0});
  std::vector<std::pair<size_t, size_t>> groups;
  TileRec(data, idx, 0, leaf_capacity_, &groups, 0);

  // Leaf level.
  std::vector<PageId> level;
  level.reserve(groups.size());
  for (const auto& [begin, end] : groups) {
    const PageId id = AllocateNode(/*is_leaf=*/true);
    RTreeNode& node = Node(id);
    node.entries.reserve(end - begin);
    for (size_t i = begin; i < end; ++i) {
      RTreeEntry e;
      e.mbr = Mbr::OfPoint(data.row(idx[i]));
      e.count = 1;
      e.row = idx[i];
      node.entries.push_back(std::move(e));
    }
    level.push_back(id);
  }
  height_ = 1;

  // Upper levels: pack sequential runs (leaves are already space-ordered).
  while (level.size() > 1) {
    const size_t num_groups = (level.size() + internal_capacity_ - 1) / internal_capacity_;
    const auto borders = EvenChunks(level.size(), num_groups);
    std::vector<PageId> next;
    next.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      const PageId id = AllocateNode(/*is_leaf=*/false);
      RTreeNode& node = Node(id);
      for (size_t i = borders[g]; i < borders[g + 1]; ++i) {
        RTreeEntry e;
        e.mbr = NodeNoIo(level[i]).ComputeMbr(dims_);
        e.child = level[i];
        e.count = NodeNoIo(level[i]).TotalCount();
        node.entries.push_back(std::move(e));
      }
      next.push_back(id);
    }
    level = std::move(next);
    ++height_;
  }
  root_ = level.front();
  size_ = n;
}

// ---------------------------------------------------------------------------
// Queries.
// ---------------------------------------------------------------------------

uint64_t RTree::RangeCount(std::span<const Coord> lo, std::span<const Coord> hi) const {
  // Infallible unwrap: RTree::ReadNode cannot fail, so the shared
  // traversal's Result is always OK here (DiskRTree's is the fallible one).
  return traversal::RangeCount(*this, lo, hi).value();
}

std::vector<RowId> RTree::RangeSearch(std::span<const Coord> lo,
                                      std::span<const Coord> hi) const {
  return traversal::RangeSearch(*this, lo, hi).value();
}

std::vector<RTree::Neighbor> RTree::NearestNeighbors(std::span<const Coord> point,
                                                     size_t k) const {
  std::vector<Neighbor> out;
  if (root_ == kInvalidPageId || k == 0) return out;
  SKYDIVER_DCHECK_EQ(point.size(), dims_);

  // Squared Euclidean distance from `point` to the nearest corner of `m`.
  auto min_dist2 = [&](const Mbr& m) {
    double s = 0.0;
    for (Dim i = 0; i < dims_; ++i) {
      double diff = 0.0;
      if (point[i] < m.lo(i)) {
        diff = m.lo(i) - point[i];
      } else if (point[i] > m.hi(i)) {
        diff = point[i] - m.hi(i);
      }
      s += diff * diff;
    }
    return s;
  };

  struct HeapItem {
    double dist2;
    bool is_point;
    PageId child;
    RowId row;
    bool operator>(const HeapItem& other) const { return dist2 > other.dist2; }
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  heap.push(HeapItem{0.0, false, root_, kInvalidRowId});
  while (!heap.empty() && out.size() < k) {
    const HeapItem item = heap.top();
    heap.pop();
    if (item.is_point) {
      out.push_back(Neighbor{item.row, std::sqrt(item.dist2)});
      continue;
    }
    // skylint:allow(pin-discipline): RTree's own ReadNode hands out stable
    // references into the deque store — nothing to pin.
    const RTreeNode& node = ReadNode(item.child);
    for (const auto& e : node.entries) {
      if (node.is_leaf) {
        heap.push(HeapItem{min_dist2(e.mbr), true, kInvalidPageId, e.row});
      } else {
        heap.push(HeapItem{min_dist2(e.mbr), false, e.child, kInvalidRowId});
      }
    }
  }
  return out;
}

uint64_t RTree::DominatedCount(std::span<const Coord> p) const {
  return traversal::DominatedCount(*this, p).value();
}

uint64_t RTree::CommonDominatedCount(std::span<const Coord> p,
                                     std::span<const Coord> q) const {
  return traversal::CommonDominatedCount(*this, p, q).value();
}

// ---------------------------------------------------------------------------
// Invariants.
// ---------------------------------------------------------------------------

Status RTree::CheckInvariants() const {
  if (root_ == kInvalidPageId) {
    return size_ == 0 ? Status::OK() : Status::Internal("no root but non-zero size");
  }
  struct Item {
    PageId id;
    uint32_t depth;
  };
  std::vector<Item> stack{{root_, 1}};
  uint64_t points = 0;
  while (!stack.empty()) {
    const auto [id, depth] = stack.back();
    stack.pop_back();
    const RTreeNode& node = NodeNoIo(id);
    const size_t cap = node.is_leaf ? leaf_capacity_ : internal_capacity_;
    if (node.entries.size() > cap) {
      return Status::Internal("node " + std::to_string(id) + " overflows capacity");
    }
    if (node.entries.empty() && id != root_) {
      return Status::Internal("non-root node " + std::to_string(id) + " is empty");
    }
    if (node.is_leaf) {
      if (depth != height_) {
        return Status::Internal("leaf " + std::to_string(id) + " at depth " +
                                std::to_string(depth) + ", expected " +
                                std::to_string(height_));
      }
      for (const auto& e : node.entries) {
        if (e.count != 1 || e.row == kInvalidRowId) {
          return Status::Internal("malformed leaf entry in node " + std::to_string(id));
        }
        ++points;
      }
    } else {
      for (const auto& e : node.entries) {
        const RTreeNode& child = NodeNoIo(e.child);
        if (!(e.mbr == child.ComputeMbr(dims_))) {
          return Status::Internal("stale MBR for child " + std::to_string(e.child));
        }
        if (e.count != child.TotalCount()) {
          return Status::Internal("stale aggregate count for child " +
                                  std::to_string(e.child));
        }
        stack.push_back({e.child, depth + 1});
      }
    }
  }
  if (points != size_) {
    return Status::Internal("leaf entries " + std::to_string(points) +
                            " != tree size " + std::to_string(size_));
  }
  return Status::OK();
}

}  // namespace skydiver
