// Binary persistence for the aggregate R*-tree (format SKYDRTR1).
//
// Layout after the magic: dims, page size, min_fill, cache_fraction, tree
// size, root page, height, node count; then each node as (id, is_leaf,
// entry count, entries). Leaf entries store the point (as a degenerate
// MBR) and the row id; internal entries store the MBR, child page and
// aggregate count. A trailing FNV-1a checksum covers everything.

#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/binio.h"
#include "rtree/rtree.h"

namespace skydiver {

namespace {
constexpr char kMagic[8] = {'S', 'K', 'Y', 'D', 'R', 'T', 'R', '1'};
}  // namespace

Status RTree::SaveToFile(const std::string& path) const {
  BinaryWriter writer(path, kMagic);
  if (!writer.ok()) return Status::IoError("cannot open '" + path + "' for writing");
  writer.WriteU32(dims_);
  writer.WriteU32(config_.page_size);
  writer.WriteDouble(config_.min_fill);
  writer.WriteDouble(config_.cache_fraction);
  writer.WriteU64(size_);
  writer.WriteU32(root_);
  writer.WriteU32(height_);
  writer.WriteU64(store_.size());
  for (const RTreeNode& node : store_) {
    writer.WriteU32(node.id);
    writer.WriteU8(node.is_leaf ? 1 : 0);
    writer.WriteU32(static_cast<uint32_t>(node.entries.size()));
    for (const RTreeEntry& e : node.entries) {
      for (Dim i = 0; i < dims_; ++i) writer.WriteDouble(e.mbr.lo(i));
      for (Dim i = 0; i < dims_; ++i) writer.WriteDouble(e.mbr.hi(i));
      writer.WriteU32(e.child);
      writer.WriteU64(e.count);
      writer.WriteU32(e.row);
    }
  }
  return writer.Finish();
}

Result<RTree> RTree::LoadFromFile(const std::string& path) {
  BinaryReader reader(path, kMagic);
  SKYDIVER_RETURN_NOT_OK(reader.status());
  auto truncated = [&path]() {
    return Status::IoError("'" + path + "': truncated R-tree file");
  };
  uint32_t dims = 0;
  RTreeConfig config;
  uint64_t size = 0;
  uint32_t root = kInvalidPageId;
  uint32_t height = 0;
  uint64_t node_count = 0;
  if (!reader.ReadU32(&dims) || !reader.ReadU32(&config.page_size) ||
      !reader.ReadDouble(&config.min_fill) || !reader.ReadDouble(&config.cache_fraction) ||
      !reader.ReadU64(&size) || !reader.ReadU32(&root) || !reader.ReadU32(&height) ||
      !reader.ReadU64(&node_count)) {
    return truncated();
  }
  if (dims == 0) return Status::InvalidArgument("'" + path + "': zero dimensionality");
  // Check the counts against the file before sizing anything from them:
  // a node takes at least its 9-byte header, an entry its two corners
  // plus child, count and row.
  constexpr uint64_t kNodeHeaderBytes = 4 + 1 + 4;
  const uint64_t entry_bytes = 2 * sizeof(Coord) * uint64_t{dims} + 4 + 8 + 4;
  if (node_count > reader.BytesLeft() / kNodeHeaderBytes) {
    return Status::IoError("'" + path + "': header claims " + std::to_string(node_count) +
                           " nodes, more than the file holds");
  }

  // The nodes are read before the tree exists: its constructor checks the
  // paging values, which are validated below, after the file's own checks.
  std::deque<RTreeNode> nodes;
  std::vector<Coord> lo, hi;
  for (uint64_t nidx = 0; nidx < node_count; ++nidx) {
    uint32_t id = 0;
    uint8_t is_leaf = 0;
    uint32_t entry_count = 0;
    if (!reader.ReadU32(&id) || !reader.ReadU8(&is_leaf) || !reader.ReadU32(&entry_count)) {
      return truncated();
    }
    if (id != nidx) {
      return Status::InvalidArgument("'" + path + "': node ids out of order");
    }
    if (entry_count > reader.BytesLeft() / entry_bytes) {
      return Status::IoError("'" + path + "': node " + std::to_string(nidx) + " claims " +
                             std::to_string(entry_count) +
                             " entries, more than the file holds");
    }
    RTreeNode& node = nodes.emplace_back();
    node.id = id;
    node.is_leaf = is_leaf != 0;
    node.entries.reserve(entry_count);
    if (entry_count > 0) {
      lo.resize(dims);
      hi.resize(dims);
    }
    for (uint32_t eidx = 0; eidx < entry_count; ++eidx) {
      RTreeEntry e;
      for (Dim i = 0; i < dims; ++i) {
        if (!reader.ReadDouble(&lo[i])) return truncated();
      }
      for (Dim i = 0; i < dims; ++i) {
        if (!reader.ReadDouble(&hi[i])) return truncated();
      }
      e.mbr = Mbr::OfPoint(lo);
      e.mbr.Expand(hi);
      if (!reader.ReadU32(&e.child) || !reader.ReadU64(&e.count) || !reader.ReadU32(&e.row)) {
        return truncated();
      }
      node.entries.push_back(std::move(e));
    }
  }
  SKYDIVER_RETURN_NOT_OK(reader.VerifyChecksum());
  // The paging values size the buffer pool (FinalizeCache) and shape the
  // fill checks below.
  if (Status s = ValidateRTreeConfig(config, dims); !s.ok()) {
    return Status::InvalidArgument("'" + path + "': " + s.message());
  }
  if (root >= nodes.size() && node_count > 0) {
    return Status::InvalidArgument("'" + path + "': root page out of range");
  }
  RTree tree(dims, config);
  tree.store_ = std::move(nodes);
  tree.root_ = root;
  tree.height_ = height;
  tree.size_ = size;
  SKYDIVER_RETURN_NOT_OK(tree.CheckInvariants());
  tree.FinalizeCache();
  return tree;
}

}  // namespace skydiver
