#include "rtree/disk_rtree.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/binio.h"
#include "common/check.h"
#include "parallel/thread_pool.h"
#include "rtree/traversal.h"

namespace skydiver {

namespace {

constexpr char kMagic[8] = {'S', 'K', 'Y', 'D', 'P', 'A', 'G', '1'};

/// Fixed node-page header: u8 leaf flag + 3 pad + u32 entry count + 8
/// reserved.
constexpr size_t kNodeHeaderBytes = 16;

constexpr size_t EntryBytes(bool is_leaf, Dim dims) {
  // Leaf: dims lo-coordinates + row id. Internal: lo + hi corners + child
  // page + aggregate count.
  return is_leaf ? dims * sizeof(double) + sizeof(uint32_t)
                 : 2 * dims * sizeof(double) + sizeof(uint32_t) + sizeof(uint64_t);
}

// Little-endian scalar (de)serialization into/out of a page buffer. The
// callers bound-check before every Put/Get group (that is the OOB fix —
// the old code serialized first and range-checked after).
template <typename T>
void Put(std::vector<unsigned char>& buf, size_t* off, T v) {
  for (size_t i = 0; i < sizeof(T); ++i) {
    buf[*off + i] = static_cast<unsigned char>(v & 0xff);
    v = static_cast<T>(v >> 8);
  }
  *off += sizeof(T);
}

template <typename T>
T Get(std::span<const unsigned char> buf, size_t* off) {
  T v = 0;
  for (size_t i = sizeof(T); i-- > 0;) {
    v = static_cast<T>((v << 8) | buf[*off + i]);
  }
  *off += sizeof(T);
  return v;
}

void PutDouble(std::vector<unsigned char>& buf, size_t* off, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Put(buf, off, bits);
}

double GetDouble(std::span<const unsigned char> buf, size_t* off) {
  const uint64_t bits = Get<uint64_t>(buf, off);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};

}  // namespace

namespace detail {

Status SerializeNode(const RTreeNode& node, Dim dims, uint32_t page_size,
                     std::vector<unsigned char>* page) {
  page->assign(page_size, 0);
  if (page_size < kNodeHeaderBytes) {
    return Status::Internal("page size " + std::to_string(page_size) +
                            " cannot hold a node header");
  }
  size_t off = 0;
  Put<uint8_t>(*page, &off, node.is_leaf ? 1 : 0);
  off += 3;  // padding
  Put<uint32_t>(*page, &off, static_cast<uint32_t>(node.entries.size()));
  off += 8;  // reserved — completes the 16-byte node header
  const size_t entry_bytes = EntryBytes(node.is_leaf, dims);
  for (const auto& e : node.entries) {
    // Capacity check BEFORE serializing: the old code Put() the entry
    // first and compared offsets after, by which point an oversized node
    // had already written past the page buffer (heap overflow).
    if (off + entry_bytes > page_size) {
      return Status::Internal(
          "node " + std::to_string(node.id) + " overflows its page (" +
          std::to_string(node.entries.size()) + " entries of " +
          std::to_string(entry_bytes) + " bytes each in a " +
          std::to_string(page_size) + "-byte page)");
    }
    if (node.is_leaf) {
      for (Dim i = 0; i < dims; ++i) PutDouble(*page, &off, e.mbr.lo(i));
      Put<uint32_t>(*page, &off, e.row);
    } else {
      for (Dim i = 0; i < dims; ++i) PutDouble(*page, &off, e.mbr.lo(i));
      for (Dim i = 0; i < dims; ++i) PutDouble(*page, &off, e.mbr.hi(i));
      Put<uint32_t>(*page, &off, e.child);
      Put<uint64_t>(*page, &off, e.count);
    }
  }
  return Status::OK();
}

Status DeserializeNode(std::span<const unsigned char> page, Dim dims, PageId id,
                       RTreeNode* out) {
  if (page.size() < kNodeHeaderBytes) {
    return Status::IoError("node page " + std::to_string(id) + " is only " +
                           std::to_string(page.size()) + " bytes");
  }
  size_t off = 0;
  const uint8_t leaf_flag = Get<uint8_t>(page, &off);
  if (leaf_flag > 1) {
    return Status::IoError("corrupt node page " + std::to_string(id) +
                           ": leaf flag is " + std::to_string(leaf_flag));
  }
  off += 3;
  const uint32_t entry_count = Get<uint32_t>(page, &off);
  off += 8;
  // Validate the declared geometry against the page BEFORE reading any
  // payload: a corrupted count must fail loudly, not read out of bounds.
  const uint64_t payload =
      static_cast<uint64_t>(entry_count) * EntryBytes(leaf_flag != 0, dims);
  if (kNodeHeaderBytes + payload > page.size()) {
    return Status::IoError(
        "corrupt node page " + std::to_string(id) + ": " +
        std::to_string(entry_count) + " declared entries (" +
        std::to_string(payload) + " bytes) overflow the " +
        std::to_string(page.size()) + "-byte page");
  }

  RTreeNode node;
  node.id = id;
  node.is_leaf = leaf_flag != 0;
  node.entries.reserve(entry_count);
  std::vector<Coord> lo(dims), hi(dims);
  for (uint32_t e = 0; e < entry_count; ++e) {
    RTreeEntry entry;
    if (node.is_leaf) {
      for (Dim i = 0; i < dims; ++i) lo[i] = GetDouble(page, &off);
      entry.mbr = Mbr::OfPoint(lo);
      entry.row = Get<uint32_t>(page, &off);
      entry.count = 1;
    } else {
      for (Dim i = 0; i < dims; ++i) lo[i] = GetDouble(page, &off);
      for (Dim i = 0; i < dims; ++i) hi[i] = GetDouble(page, &off);
      entry.mbr = Mbr::OfPoint(lo);
      entry.mbr.Expand(hi);
      entry.child = Get<uint32_t>(page, &off);
      entry.count = Get<uint64_t>(page, &off);
    }
    node.entries.push_back(std::move(entry));
  }
  *out = std::move(node);
  return Status::OK();
}

}  // namespace detail

// The disk-resident state shared by the tree and its in-flight prefetch
// tasks. The PageCache's loader captures `this`, which is safe because the
// cache is a member: it can never outlive the Store around it.
struct DiskRTree::Store {
  PageFile file;
  Dim dims;
  uint32_t page_size;
  size_t node_count;
  PageCache cache;

  Store(PageFile file_in, Dim dims_in, uint32_t page_size_in,
        size_t node_count_in, size_t capacity)
      : file(std::move(file_in)),
        dims(dims_in),
        page_size(page_size_in),
        node_count(node_count_in),
        cache(capacity,
              [this](PageId id, RTreeNode* out) { return Load(id, out); }) {}

  Status Load(PageId id, RTreeNode* out) {
    std::vector<unsigned char> scratch;
    auto page =
        file.ViewPage(static_cast<uint64_t>(id) + 1, page_size, scratch);
    if (!page.ok()) return page.status();
    return detail::DeserializeNode(page.value(), dims, id, out);
  }
};

Status DiskRTree::Write(const RTree& tree, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot open '" + path + "' for writing");
  std::unique_ptr<std::FILE, FileCloser> file(f);

  const uint32_t page_size = tree.config().page_size;
  const Dim dims = tree.dims();

  // Header page.
  std::vector<unsigned char> page(page_size, 0);
  {
    size_t off = 0;
    std::memcpy(page.data(), kMagic, 8);
    off = 8;
    Put<uint32_t>(page, &off, dims);
    Put<uint32_t>(page, &off, page_size);
    Put<uint64_t>(page, &off, tree.size());
    Put<uint32_t>(page, &off, tree.root());
    Put<uint32_t>(page, &off, tree.height());
    Put<uint64_t>(page, &off, tree.PageCount());
    // Header checksum over the meaningful prefix.
    Fnv1a sum;
    sum.Update(page.data(), off);
    Put<uint64_t>(page, &off, sum.digest());
    if (std::fwrite(page.data(), 1, page_size, f) != page_size) {
      return Status::IoError("short write of header page");
    }
  }

  // Node pages, one per page id (dense ids by construction). PeekNode
  // bypasses the buffer pool AND its accounting, so serialization is
  // stats-neutral by construction: the tree's measured I/O counters are
  // bit-for-bit what they were before Write (asserted in
  // disk_rtree_test.cc). The old code claimed to save/restore the stats
  // around ReadNode and did neither.
  for (PageId id = 0; id < tree.PageCount(); ++id) {
    const RTreeNode& node = tree.PeekNode(id);
    SKYDIVER_RETURN_NOT_OK(detail::SerializeNode(node, dims, page_size, &page));
    if (std::fwrite(page.data(), 1, page_size, f) != page_size) {
      return Status::IoError("short write of node page " + std::to_string(id));
    }
  }
  if (std::fflush(f) != 0) return Status::IoError("flush of '" + path + "' failed");
  return Status::OK();
}

Result<DiskRTree> DiskRTree::Open(const std::string& path,
                                  const DiskTreeOptions& options) {
  auto file = PageFile::Open(path, options.backend);
  if (!file.ok()) return file.status();
  if (file.value().file_size() < 64) {
    return Status::IoError("'" + path + "': truncated header");
  }

  std::vector<unsigned char> scratch;
  auto head = file.value().ViewPage(0, 64, scratch);
  if (!head.ok()) return head.status();
  if (std::memcmp(head.value().data(), kMagic, 8) != 0) {
    return Status::InvalidArgument("'" + path + "' is not a SkyDiver page file");
  }

  DiskRTree tree;
  size_t off = 8;
  tree.dims_ = Get<uint32_t>(head.value(), &off);
  tree.page_size_ = Get<uint32_t>(head.value(), &off);
  tree.size_ = Get<uint64_t>(head.value(), &off);
  tree.root_ = Get<uint32_t>(head.value(), &off);
  tree.height_ = Get<uint32_t>(head.value(), &off);
  tree.node_count_ = static_cast<size_t>(Get<uint64_t>(head.value(), &off));
  Fnv1a sum;
  sum.Update(head.value().data(), off);
  const uint64_t stored = Get<uint64_t>(head.value(), &off);
  if (stored != sum.digest()) {
    return Status::IoError("'" + path + "': header checksum mismatch");
  }

  // The checksum says the header was written by us; the geometry checks
  // say it describes THIS file. Everything below used to be trusted.
  if (tree.dims_ == 0 || tree.page_size_ < 64) {
    return Status::InvalidArgument("'" + path + "': implausible geometry");
  }
  const uint64_t expected_size =
      (static_cast<uint64_t>(tree.node_count_) + 1) * tree.page_size_;
  if (file.value().file_size() != expected_size) {
    return Status::IoError(
        "'" + path + "': header declares " + std::to_string(tree.node_count_) +
        " node pages of " + std::to_string(tree.page_size_) + " bytes (" +
        std::to_string(expected_size) + " total) but the file holds " +
        std::to_string(file.value().file_size()) + " bytes — truncated or corrupt");
  }
  if (tree.node_count_ == 0) {
    if (tree.root_ != kInvalidPageId || tree.size_ != 0) {
      return Status::IoError("'" + path + "': empty page file with a root node");
    }
  } else if (tree.root_ >= tree.node_count_) {
    return Status::IoError("'" + path + "': root page " +
                           std::to_string(tree.root_) + " out of range (" +
                           std::to_string(tree.node_count_) + " node pages)");
  }

  RTreeConfig paging;
  paging.page_size = tree.page_size_;
  paging.cache_fraction = options.cache_fraction;
  if (Status s = ValidateRTreeConfig(paging, tree.dims_); !s.ok()) {
    return Status::InvalidArgument("'" + path + "': " + s.message());
  }
  const size_t capacity = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(options.cache_fraction *
                                       static_cast<double>(tree.node_count_))));
  tree.store_ = std::make_shared<Store>(std::move(file).value(), tree.dims_,
                                        tree.page_size_, tree.node_count_, capacity);
  tree.prefetch_pool_ = options.prefetch_pool;
  return tree;
}

Result<DiskRTree> DiskRTree::Open(const std::string& path, double cache_fraction) {
  DiskTreeOptions options;
  options.cache_fraction = cache_fraction;
  return Open(path, options);
}

size_t DiskRTree::cache_capacity() const { return store_->cache.capacity(); }

DiskBackend DiskRTree::backend() const { return store_->file.backend(); }

Result<PageRef> DiskRTree::ReadNode(PageId id) const {
  if (id >= node_count_) {
    return Status::OutOfRange("page id " + std::to_string(id) +
                              " out of range (" + std::to_string(node_count_) +
                              " node pages)");
  }
  return store_->cache.Get(id);
}

void DiskRTree::PrefetchChildren(const RTreeNode& node) const {
  if (prefetch_pool_ == nullptr || node.is_leaf || node.entries.empty()) return;

  // Morsel-style dispatch (parallel/morsel.h): workers claim child pages
  // from a shared counter, so a slow read never strands the rest of the
  // batch behind it. The batch co-owns the store: a task that runs after
  // the tree is gone still has a live file and cache.
  struct Batch {
    std::shared_ptr<Store> store;
    std::vector<PageId> pages;
    // skylint:allow(relaxed-ordering): claim counter — fetch_add
    // uniqueness is all it needs (each claim takes an exclusive page);
    // the PageCache's own mutex orders every touch of the frames the
    // loads publish, exactly like the MorselQueue claim counter.
    std::atomic<size_t> next{0};
  };
  auto batch = std::make_shared<Batch>();
  batch->store = store_;
  batch->pages.reserve(node.entries.size());
  for (const auto& e : node.entries) batch->pages.push_back(e.child);

  const size_t workers = std::min(prefetch_pool_->size(), batch->pages.size());
  for (size_t w = 0; w < workers; ++w) {
    const bool submitted = prefetch_pool_->Submit([batch] {
      size_t claim;
      // skylint:allow(relaxed-ordering): see the Batch::next comment.
      while ((claim = batch->next.fetch_add(1, std::memory_order_relaxed)) <
             batch->pages.size()) {
        batch->store->cache.Prefetch(batch->pages[claim]);
      }
    });
    if (!submitted) break;  // pool shutting down — prefetch is best-effort
  }
}

IoStats DiskRTree::io_stats() const { return store_->cache.stats(); }

void DiskRTree::ResetIoStats() const { store_->cache.ResetStats(); }

void DiskRTree::DropCache() const { store_->cache.Clear(); }

Result<uint64_t> DiskRTree::RangeCount(std::span<const Coord> lo,
                                       std::span<const Coord> hi) const {
  return traversal::RangeCount(*this, lo, hi);
}

Result<std::vector<RowId>> DiskRTree::RangeSearch(std::span<const Coord> lo,
                                                  std::span<const Coord> hi) const {
  return traversal::RangeSearch(*this, lo, hi);
}

Result<uint64_t> DiskRTree::DominatedCount(std::span<const Coord> p) const {
  return traversal::DominatedCount(*this, p);
}

Result<uint64_t> DiskRTree::CommonDominatedCount(std::span<const Coord> p,
                                                 std::span<const Coord> q) const {
  return traversal::CommonDominatedCount(*this, p, q);
}

}  // namespace skydiver
