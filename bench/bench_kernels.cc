// Dominance-kernel microbenchmark: scalar reference vs batched 64-row
// tiled sweeps vs the explicit SIMD kernel (AVX2/NEON, runtime-dispatched)
// on the two hot consumers the kernel layer rewires — SkylineSFS and
// SigGen-IF — plus a FilterDominators micro that isolates the sweep itself,
// across IND/CORR/ANT at d = 4, 8, 12.
//
// Expected shape: the batched kernels win where the candidate block is
// wide — SFS once the skyline spans many tiles (d >= 8), SigGen-IF under
// simd — and the simd flavour beats tiled wherever a vector ISA is
// present, most visibly on the pure FilterDominators sweep. SigGen-IF
// sweeps only the tiles whose lower corner dominates a row, and a scalar
// test of a row in such a tile still exits on its first failing
// dimension, so the tiled byte sweep can lose to scalar there (at d >= 8
// in the committed grid). On CORR the skyline is
// a handful of points: SigGen-IF falls below one tile and runs the scalar
// reference (ratio ~1), while SFS still pays the tile-window upkeep on a
// ~10 ms run, so its ratio dips below 1 there — as it does on low-d inputs
// where scalar window probes exit after a pair or two. That tradeoff is
// why --kernel=scalar stays a plan choice.
//
// Beside the three flavours, the FilterDominators micro runs once per
// vector sweep backend the host runs (avx2, avx512; flavour = the ISA
// name), in one process, so the backends compare cell by cell; each wider
// backend should be no slower than the one below it within the spread.
//
// --json writes the full flavour x distribution x d grid (seconds, charged
// checks, ns per check, checks/s) to a machine-readable file for tracking
// the kernel ratios across hosts. SigGen-IF sweeps corner-pruned skyline
// blocks under every flavour (kernels/skyline_blocks.h), so its check
// count is the pruned one; its records also carry the data rows tested,
// checks per row and ns per row, which compare with an exhaustive pass's
// m checks per row.
//
// Two signature rows follow the grid. `merge_min` times the MinHash merge
// kernel (kernels/min_merge.h) on every backend the host can run
// (portable, avx2, avx512): one 100-slot column merge per unit, "ns per
// merge". `siggen_ib` runs SigGen-IB over the in-memory tree at IND d = 8
// under each flavour (the flavour classifies the leaf points): one
// (point, dominator) pair — a unit of the summed domination scores — per
// unit, "ns per pair", the figure perfbench reports as
// minhash.ns_per_pair.
//
// Two Phase-2 rows follow. `select_row` times the greedy's distance row
// (kernels/agree_row.h) on every backend the host can run — one distance
// per unit, "ns per distance" — for MinHash at t = 100 and LSH at ζ = 50,
// beside the per-pair baseline the greedy used before: a std::function
// call per pair into SignatureMatrix::EstimatedDistance (MinHash) or into
// the Hamming distance of two ζ·B-bit BitVectors (LSH).
//
// Every JSON record carries its unit, its count and the spread of its
// repetitions; the file carries the host facts (cores, ISA, the resolved
// sweep, merge and agreement-row backends, compiler, build type) and the
// repetition count.
//
// A second micro isolates the tile-aware BBS node prune: every tree
// node's entry lo-corners, captured once from a full walk, are decided
// against the materialized skyline tiles two ways — per-entry (the
// pre-corner-tile traversal: corner outer, one AnyDominator skyline
// stream per corner) and corner-tile (PruneCorners over one node's
// corner tile, dominated corners compacted away between tiles). The
// batched PruneCorners screens each skyline tile with the corner tile's
// ceiling — node corners are R-tree siblings, so most skyline tiles
// hold no row that could dominate any of them and the whole (node, tile)
// pair retires in one sweep, where per-entry pays one sweep per
// undecided corner; the ratio is that screen. --bbs-json <path> writes the
// grid there (nothing is written without it).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/harness.h"
#include "common/bitvector.h"
#include "common/cpu.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/dominance.h"
#include "kernels/agree_row.h"
#include "kernels/dominance_kernel.h"
#include "kernels/min_merge.h"
#include "kernels/simd_sweep.h"
#include "kernels/tile_view.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "rtree/node_corners.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver::bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kSignatureSize = 100;

// Best and worst wall time over kReps runs; records report the best and
// the spread (worst - best) / best.
struct Timing {
  double best = 1e300;
  double worst = 0.0;
  double spread() const { return best > 0.0 ? (worst - best) / best : 0.0; }
};

template <typename Fn>
Timing BestOf(Fn&& fn) {
  Timing timing;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    fn();
    const double s = timer.ElapsedSeconds();
    timing.best = std::min(timing.best, s);
    timing.worst = std::max(timing.worst, s);
  }
  return timing;
}

constexpr DomKernel kFlavours[] = {DomKernel::kScalar, DomKernel::kTiled,
                                   DomKernel::kSimd};

// A kernel backend the host runs, by name.
template <typename Fn>
struct NamedBackend {
  const char* name;
  Fn fn;
};

// The portable backend, then each vector backend this build compiled and
// this host runs, narrowest first.
template <typename Fn>
std::vector<NamedBackend<Fn>> HostBackends(Fn portable, Fn avx2, Fn avx512) {
  std::vector<NamedBackend<Fn>> out = {{"portable", portable}};
  if (avx2 != nullptr && HostRuns(SimdIsa::kAvx2)) out.push_back({"avx2", avx2});
  if (avx512 != nullptr && HostRuns(SimdIsa::kAvx512)) out.push_back({"avx512", avx512});
  return out;
}

// The vector sweep backends this build compiled and this host runs,
// narrowest first.
std::vector<SimdIsa> VectorSweepBackends() {
  std::vector<SimdIsa> out;
  if (kernel_internal::Avx2Sweep() != nullptr && HostRuns(SimdIsa::kAvx2)) {
    out.push_back(SimdIsa::kAvx2);
  }
  if (kernel_internal::Avx512Sweep() != nullptr && HostRuns(SimdIsa::kAvx512)) {
    out.push_back(SimdIsa::kAvx512);
  }
  if (kernel_internal::NeonSweep() != nullptr && HostRuns(SimdIsa::kNeon)) {
    out.push_back(SimdIsa::kNeon);
  }
  return out;
}

// One grid cell for the JSON report: `count` units of work (dominance
// checks, column merges or dominated pairs) in `timing.best` seconds.
struct JsonRecord {
  std::string workload;
  Dim dims = 0;
  std::string flavour;
  std::string op;
  Timing timing;
  uint64_t count = 0;
  const char* unit = "check";
  // Data rows the op tested (siggen_if: the n - m non-skyline rows); when
  // set, the record also reports checks and ns per data row, which compare
  // the corner-pruned pass with an exhaustive one whatever its check count.
  uint64_t rows = 0;
};

#ifndef SKYDIVER_BUILD_TYPE
#define SKYDIVER_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;  // "Clang x.y.z ..."
#elif defined(__GNUC__)
constexpr const char* kCompiler = "GCC " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

void WriteJson(const std::string& path, const std::string& bench, RowId n,
               const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  // skylint:allow(determinism): capacity probe, not a randomness source —
  // a host fact recorded beside the timings.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  out << "{\n  \"bench\": \"" << bench << "\",\n  \"n\": " << n
      << ",\n  \"isa\": \"" << ToString(DetectSimdIsa()) << "\",\n  \"host\": {\"cores\": "
      << cores << ", \"isa\": \""
      << ToString(DetectSimdIsa()) << "\", \"sweep_backend\": \"" << SweepBackend()
      << "\", \"merge_backend\": \"" << MergeMinBackend()
      << "\", \"agree_backend\": \"" << AgreeRowBackend() << "\", \"compiler\": \""
      << kCompiler << "\", \"build_type\": \""
      << SKYDIVER_BUILD_TYPE << "\"},\n  \"repetitions\": " << kReps
      << ",\n  \"statistic\": \"best of repetitions; spread = (worst - best) / best\""
      << ",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    const double seconds = r.timing.best;
    const double ns_per_unit =
        r.count == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(r.count);
    const double per_s = seconds == 0.0 ? 0.0 : static_cast<double>(r.count) / seconds;
    out << "    {\"workload\": \"" << r.workload << "\", \"dims\": " << r.dims
        << ", \"flavour\": \"" << r.flavour << "\", \"op\": \"" << r.op
        << "\", \"seconds\": " << seconds << ", \"spread\": " << r.timing.spread()
        << ", \"unit\": \"" << r.unit << "\", \"count\": " << r.count
        << ", \"ns_per_unit\": " << ns_per_unit << ", \"per_s\": " << per_s;
    if (r.rows > 0) {
      const double rows = static_cast<double>(r.rows);
      out << ", \"rows\": " << r.rows
          << ", \"checks_per_row\": " << static_cast<double>(r.count) / rows
          << ", \"ns_per_row\": " << seconds * 1e9 / rows;
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %zu records to %s\n", records.size(), path.c_str());
}

// MinHash merge micro: `merges` 100-slot column merges of a changing row
// into the columns of a small (cache-resident) t x `columns` matrix, round
// robin, on one backend — the kernel's own cost, not the memory system's.
// `digest` folds the final matrix for the cross-backend identity check.
Timing TimeMergeMin(kernel_internal::MergeMinFn fn, size_t columns, size_t merges,
                    uint64_t* digest) {
  std::vector<uint32_t> row(kSignatureSize);
  std::vector<uint32_t> matrix(kSignatureSize * columns);
  const Timing timing = BestOf([&] {
    std::iota(row.begin(), row.end(), 1u << 20);
    std::fill(matrix.begin(), matrix.end(), kEmptySlot32);
    for (size_t k = 0; k < merges; ++k) {
      row[k % kSignatureSize] -= 1;  // keep every merge live
      fn(matrix.data() + (k % columns) * kSignatureSize, row.data(), kSignatureSize);
    }
  });
  uint64_t h = 0;
  for (uint32_t v : matrix) h = h * 31 + v;
  *digest = h;
  return timing;
}

// Distance-row micro: `rounds` greedy rounds over m columns, each a row of
// m distances against a changing pivot. The lanes are drawn from a small
// alphabet so about a quarter of them agree, as near-duplicate
// fingerprints do. `digest` sums the agreements for the cross-backend
// identity check.
struct RowWorkload {
  size_t width = 0;
  size_t columns = 0;
  std::vector<uint32_t> lanes;  // column-major, column j at j * width
};

RowWorkload MakeRowWorkload(size_t width, size_t columns, uint64_t seed) {
  RowWorkload w{width, columns, std::vector<uint32_t>(width * columns)};
  Rng rng(seed);
  for (auto& v : w.lanes) v = static_cast<uint32_t>(rng.NextBounded(4));
  return w;
}

Timing TimeAgreeRow(kernel_internal::AgreeRowFn fn, const RowWorkload& w, size_t rounds,
                    uint64_t* digest) {
  std::vector<uint32_t> agree(w.columns);
  uint64_t sum = 0;
  const Timing timing = BestOf([&] {
    sum = 0;
    for (size_t r = 0; r < rounds; ++r) {
      const uint32_t* pivot = w.lanes.data() + (r * 7919 % w.columns) * w.width;
      fn(pivot, w.lanes.data(), w.width, w.columns, nullptr, agree.data());
      for (uint32_t a : agree) sum += a;
    }
  });
  *digest = sum;
  return timing;
}

// The per-pair baseline: one std::function call per distance, as the
// greedy made before it took rows.
Timing TimePerPair(const std::function<double(size_t, size_t)>& distance, size_t columns,
                   size_t rounds, double* digest) {
  double sum = 0.0;
  const Timing timing = BestOf([&] {
    sum = 0.0;
    for (size_t r = 0; r < rounds; ++r) {
      const size_t pivot = r * 7919 % columns;
      for (size_t j = 0; j < columns; ++j) sum += distance(j, pivot);
    }
  });
  *digest = sum;
  return timing;
}

// -------------------------------------------------------------------------
// BBS node-prune micro: replay the prune decision for every node of the
// tree against the full skyline tiling, in both loop orders.

// One node chunk (<= kTileRows entries): the transposed corner tile plus
// the offset of its first corner in the flat row-major probe array the
// per-entry replay reads.
struct CornerChunk {
  Tile tile;
  size_t flat_begin;
};

struct BbsWorkload {
  std::vector<CornerChunk> chunks;
  std::vector<Coord> flat;  // row-major corners, per-entry replay probes
  size_t dims = 0;
  size_t corners = 0;
};

BbsWorkload CollectNodeCorners(const RTree& tree) {
  BbsWorkload w;
  w.dims = tree.dims();
  std::vector<PageId> stack{tree.root()};
  while (!stack.empty()) {
    const RTreeNode& node = tree.PeekNode(stack.back());
    stack.pop_back();
    for (size_t begin = 0; begin < node.entries.size(); begin += kTileRows) {
      const size_t end = std::min(begin + kTileRows, node.entries.size());
      Tile tile(tree.dims());
      MaterializeLoCorners(node, begin, end, &tile);
      const size_t flat_begin = w.flat.size();
      for (size_t i = begin; i < end; ++i) {
        const auto lo = node.entries[i].mbr.lo();
        w.flat.insert(w.flat.end(), lo.begin(), lo.end());
      }
      w.corners += end - begin;
      w.chunks.push_back(CornerChunk{std::move(tile), flat_begin});
    }
    if (!node.is_leaf) {
      for (const auto& e : node.entries) stack.push_back(e.child);
    }
  }
  return w;
}

// Order-sensitive FNV-style fold of the surviving entry ids; identical
// pruning decisions => identical digests (the cross-flavour /
// cross-order identity check).
uint64_t FoldSurvivor(uint64_t digest, RowId id) {
  return (digest ^ (id + 1)) * 1099511628211ULL;
}

// The pre-corner-tile order: corner outer, one AnyDominator probe per
// corner streaming the skyline tiles until a dominator is found.
uint64_t PerEntryReplay(const BbsWorkload& w, const TileSet& sky,
                        const DominanceKernel& kernel) {
  uint64_t digest = 0;
  for (const CornerChunk& chunk : w.chunks) {
    for (size_t r = 0; r < chunk.tile.rows(); ++r) {
      const std::span<const Coord> p(w.flat.data() + chunk.flat_begin + r * w.dims,
                                     w.dims);
      bool dominated = false;
      for (const Tile& t : sky.tiles()) {
        if (kernel.AnyDominator(p, t.view())) {
          dominated = true;
          break;
        }
      }
      if (!dominated) digest = FoldSurvivor(digest, chunk.tile.id(r));
    }
  }
  return digest;
}

// The tile-aware order: one PruneCorners call per (node corner tile,
// skyline tile) pair, dominated corners compacted away between tiles
// (bbs_scan.h's PruneAndPushNode, scratch copy included in the cost).
uint64_t CornerTileReplay(const BbsWorkload& w, const TileSet& sky,
                          const DominanceKernel& kernel, Tile* scratch) {
  uint64_t digest = 0;
  for (const CornerChunk& chunk : w.chunks) {
    *scratch = chunk.tile;
    for (const Tile& t : sky.tiles()) {
      if (scratch->empty()) break;
      const uint64_t pruned = kernel.PruneCorners(scratch->view(), t.view());
      if (pruned != 0) scratch->Compact(scratch->view().FullMask() & ~pruned);
    }
    for (size_t r = 0; r < scratch->rows(); ++r) {
      digest = FoldSurvivor(digest, scratch->id(r));
    }
  }
  return digest;
}

int Run(int argc, char** argv) {
  BenchEnv env;
  std::string json_path = "BENCH_kernels.json";
  std::string bbs_json_path;
  env.flags().AddString("json", &json_path,
                        "write the flavour x workload x d grid to this file");
  env.flags().AddString("bbs-json", &bbs_json_path,
                        "write the BBS node-prune micro grid to this file "
                        "(empty = do not write it)");
  if (!env.Init(argc, argv,
                "Dominance kernels: scalar vs tiled vs simd sweeps for "
                "SkylineSFS, SigGen-IF, and a FilterDominators micro",
                /*default_scale=*/1.0)) {
    return 0;
  }
  const RowId paper_n = 100000;
  std::printf("simd dispatch: %s (sweep %s, merge %s, agreement row %s)\n\n",
              ToString(DetectSimdIsa()), SweepBackend(), MergeMinBackend(),
              AgreeRowBackend());
  ShapeChecks shape("kernels");
  TablePrinter table({"data", "dims", "n", "m", "sfs_scalar_s", "sfs_tiled_s",
                      "sfs_simd_s", "if_scalar_s", "if_tiled_s", "if_simd_s",
                      "fd_tiled_s", "fd_simd_s", "fd_x"});
  std::vector<JsonRecord> records;
  RowId actual_n = 0;

  for (const WorkloadKind kind :
       {WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
        WorkloadKind::kAnticorrelated}) {
    for (const Dim d : {Dim{4}, Dim{8}, Dim{12}}) {
      const DataSet& data = env.Data(kind, paper_n, d);
      actual_n = data.size();
      const auto skyline = SkylineSFS(data).rows;
      const size_t m = skyline.size();
      const auto family =
          MinHashFamily::Create(kSignatureSize, data.size(), env.seed());
      const std::string workload = WorkloadKindName(kind);

      // End-to-end consumers, one column per flavour.
      double sfs_s[3], if_s[3];
      std::vector<RowId> sink;
      uint64_t checks_sink = 0;
      for (size_t f = 0; f < 3; ++f) {
        const DomKernel flavour = kFlavours[f];
        uint64_t before = DominanceCounter::Count();
        const Timing sfs = BestOf([&] { sink = SkylineSFS(data, flavour).rows; });
        sfs_s[f] = sfs.best;
        records.push_back({workload, d, ToString(flavour), "sfs", sfs,
                           (DominanceCounter::Count() - before) / kReps});
        before = DominanceCounter::Count();
        const Timing sig_if = BestOf([&] {
          checks_sink += SigGenIF(data, skyline, family, flavour)->dominance_checks;
        });
        if_s[f] = sig_if.best;
        records.push_back({workload, d, ToString(flavour), "siggen_if", sig_if,
                           (DominanceCounter::Count() - before) / kReps, "check",
                           data.size() - m});
      }
      (void)checks_sink;

      // FilterDominators micro: every data row probed against the
      // materialized skyline tiles — the pure sweep, no consumer logic.
      // The mask digest doubles as a cross-flavour identity check.
      const TileSet sky_tiles = MaterializeTiles(data, skyline);
      auto time_fd = [&](const DominanceKernel& kernel, uint64_t* digest_out) {
        return BestOf([&] {
          uint64_t digest = 0;
          for (RowId r = 0; r < data.size(); ++r) {
            const auto p = data.row(r);
            for (const Tile& t : sky_tiles.tiles()) {
              digest ^= kernel.FilterDominators(p, t.view()) + r;
            }
          }
          *digest_out = digest;
        });
      };
      double fd_s[3];
      uint64_t fd_digest[3] = {0, 0, 0};
      for (size_t f = 0; f < 3; ++f) {
        const Timing fd = time_fd(DominanceKernel(kFlavours[f]), &fd_digest[f]);
        fd_s[f] = fd.best;
        records.push_back({workload, d, ToString(kFlavours[f]),
                           "filter_dominators", fd,
                           static_cast<uint64_t>(data.size()) * m});
      }
      // The same micro on each vector sweep backend the host runs, side by
      // side in one process (the simd rows above run only the best one).
      std::vector<std::pair<SimdIsa, Timing>> fd_backends;
      for (const SimdIsa isa : VectorSweepBackends()) {
        uint64_t digest = 0;
        const Timing fd = time_fd(DominanceKernel::SimdAt(isa), &digest);
        fd_backends.emplace_back(isa, fd);
        records.push_back({workload, d, ToString(isa), "filter_dominators", fd,
                           static_cast<uint64_t>(data.size()) * m});
        shape.Check(workload + " d=" + std::to_string(d) + ": " + ToString(isa) +
                        " sweep produces the scalar dominator masks",
                    digest == fd_digest[0]);
      }

      table.Row({workload, TablePrinter::Int(d), TablePrinter::Int(data.size()),
                 TablePrinter::Int(m), TablePrinter::Secs(sfs_s[0]),
                 TablePrinter::Secs(sfs_s[1]), TablePrinter::Secs(sfs_s[2]),
                 TablePrinter::Secs(if_s[0]), TablePrinter::Secs(if_s[1]),
                 TablePrinter::Secs(if_s[2]), TablePrinter::Secs(fd_s[1]),
                 TablePrinter::Secs(fd_s[2]),
                 TablePrinter::Num(fd_s[1] / fd_s[2], 2)});

      const std::string tag = workload + " d=" + std::to_string(d);
      shape.Check(tag + ": flavours produce identical dominator masks",
                  fd_digest[0] == fd_digest[1] && fd_digest[1] == fd_digest[2]);

      // The batched sweeps should pay off wherever the skyline spans tiles;
      // 10% slack for noise. (The tiled check fails on some corner-pruned
      // cells; see the expected shape above.)
      if (m >= 256) {
        shape.Check(tag + ": tiled SigGen-IF no slower than scalar",
                    if_s[1] <= if_s[0] * 1.10);
        if (SimdAvailable()) {
          shape.Check(tag + ": simd SigGen-IF no slower than scalar",
                      if_s[2] <= if_s[0] * 1.10);
        }
      }
      // The headline acceptance ratio: the explicit SIMD sweep vs the
      // branchy tiled sweep on the isolated FilterDominators micro, at the
      // full n = 100k (scaled-down smoke runs are too noisy to gate on).
      if (SimdAvailable() && d == 8 && m >= 256 && env.scale() <= 1.0) {
        shape.Check(tag + ": simd FilterDominators >= 1.3x tiled",
                    fd_s[2] * 1.3 <= fd_s[1]);
      }
      // Each wider backend should be no slower than the one below it,
      // within the larger of the two repetition spreads.
      for (size_t b = 1; b < fd_backends.size() && m >= 256; ++b) {
        const Timing& lower = fd_backends[b - 1].second;
        const Timing& upper = fd_backends[b].second;
        shape.Check(tag + ": " + ToString(fd_backends[b].first) +
                        " FilterDominators no slower than " +
                        ToString(fd_backends[b - 1].first),
                    upper.best <=
                        lower.best * (1.0 + std::max(lower.spread(), upper.spread())));
      }
    }
  }

  // ---------------------------------------------------------------------
  // Signature rows: the MinHash merge kernel per backend, and SigGen-IB's
  // cost per (point, dominator) pair under each flavour.
  std::printf("\nMinHash merge (t = %zu) and SigGen-IB (IND d = 8)\n", kSignatureSize);
  TablePrinter sig_table({"op", "flavour", "count", "unit", "best_s", "ns_per_unit"});
  {
    const auto backends =
        HostBackends(kernel_internal::PortableMergeMin(), kernel_internal::Avx2MergeMin(),
                     kernel_internal::Avx512MergeMin());
    const size_t columns = 64;
    const auto merges = static_cast<size_t>(4'000'000 / std::max(1.0, env.scale()));
    std::vector<uint64_t> digests;
    for (const auto& b : backends) {
      uint64_t digest = 0;
      const Timing merge = TimeMergeMin(b.fn, columns, merges, &digest);
      digests.push_back(digest);
      records.push_back({"-", 0, b.name, "merge_min", merge, merges, "merge"});
      sig_table.Row({"merge_min", b.name, TablePrinter::Int(merges), "merge",
                     TablePrinter::Secs(merge.best),
                     TablePrinter::Num(merge.best * 1e9 / static_cast<double>(merges), 2)});
    }
    shape.Check("merge backends produce identical matrices",
                std::all_of(digests.begin(), digests.end(),
                            [&](uint64_t d) { return d == digests[0]; }));
  }
  {
    const DataSet& data = env.Data(WorkloadKind::kIndependent, paper_n, 8);
    const RTree& tree = env.Tree(WorkloadKind::kIndependent, paper_n, 8);
    const auto skyline = SkylineSFS(data).rows;
    const auto family = MinHashFamily::Create(kSignatureSize, data.size(), env.seed());
    uint64_t pairs[3] = {0, 0, 0};
    uint64_t checks[3] = {0, 0, 0};
    for (size_t f = 0; f < 3; ++f) {
      SigGenResult ib;
      const Timing timing = BestOf([&] {
        ib = SigGenIB(data, skyline, family, tree, kFlavours[f]).value();
      });
      pairs[f] = std::accumulate(ib.domination_scores.begin(), ib.domination_scores.end(),
                                 uint64_t{0});
      checks[f] = ib.dominance_checks;
      records.push_back({"IND", 8, ToString(kFlavours[f]), "siggen_ib", timing, pairs[f],
                         "pair"});
      sig_table.Row({"siggen_ib", ToString(kFlavours[f]), TablePrinter::Int(pairs[f]), "pair",
                     TablePrinter::Secs(timing.best),
                     TablePrinter::Num(timing.best * 1e9 / static_cast<double>(pairs[f]), 2)});
    }
    shape.Check("SigGen-IB pairs and dominance checks identical across flavours",
                pairs[0] == pairs[1] && pairs[1] == pairs[2] && checks[0] == checks[1] &&
                    checks[1] == checks[2]);
  }
  {
    // Distance rows of the Phase-2 greedy: MinHash slots (t = 100) and LSH
    // bucket ids (ζ = 50, B = 20) over m = 4096 columns, per backend and
    // against the per-pair baseline.
    std::printf("\nDistance rows (m = 4096): agreement kernel vs per-pair calls\n");
    TablePrinter row_table({"space", "width", "flavour", "count", "best_s", "ns_per_unit"});
    const auto backends =
        HostBackends(kernel_internal::PortableAgreeRow(), kernel_internal::Avx2AgreeRow(),
                     kernel_internal::Avx512AgreeRow());
    const size_t columns = 4096;
    const auto rounds = static_cast<size_t>(std::max(1.0, 200 / std::max(1.0, env.scale())));
    const uint64_t count = static_cast<uint64_t>(rounds) * columns;
    auto add = [&](const char* space, size_t width, const char* flavour, const Timing& t) {
      records.push_back({space, static_cast<Dim>(width), flavour, "select_row", t, count,
                         "distance"});
      row_table.Row({space, TablePrinter::Int(width), flavour, TablePrinter::Int(count),
                     TablePrinter::Secs(t.best),
                     TablePrinter::Num(t.best * 1e9 / static_cast<double>(count), 2)});
    };
    for (const auto& [space, width] : {std::pair<const char*, size_t>{"MH", 100},
                                       std::pair<const char*, size_t>{"LSH", 50}}) {
      const RowWorkload w = MakeRowWorkload(width, columns, env.seed() + width);
      std::vector<uint64_t> digests;
      for (const auto& b : backends) {
        uint64_t digest = 0;
        add(space, width, b.name, TimeAgreeRow(b.fn, w, rounds, &digest));
        digests.push_back(digest);
      }
      shape.Check(std::string(space) + " row backends count identical agreements",
                  std::all_of(digests.begin(), digests.end(),
                              [&](uint64_t d) { return d == digests[0]; }));
      // Per-pair baseline over the same lanes, in the representation the
      // greedy read before rows: signature slots, or ζ·B-bit vectors.
      double pair_digest = 0.0;
      Timing pair;
      if (width == 100) {
        SignatureMatrix sig(width, columns);
        for (size_t j = 0; j < columns; ++j) {
          for (size_t l = 0; l < width; ++l) {
            sig.UpdateMin(j, l, w.lanes[j * width + l]);
          }
        }
        pair = TimePerPair([&sig](size_t a, size_t b) { return sig.EstimatedDistance(a, b); },
                           columns, rounds, &pair_digest);
        const double row_digest = static_cast<double>(count) -
                                  static_cast<double>(digests[0]) / static_cast<double>(width);
        shape.Check("MH per-pair distances sum like the rows",
                    std::abs(pair_digest - row_digest) <= 1e-6 * row_digest);
      } else {
        const size_t buckets = 20;
        std::vector<BitVector> vectors(columns, BitVector(width * buckets));
        for (size_t j = 0; j < columns; ++j) {
          for (size_t z = 0; z < width; ++z) vectors[j].Set(z * buckets + w.lanes[j * width + z]);
        }
        pair = TimePerPair(
            [&vectors](size_t a, size_t b) {
              return static_cast<double>(vectors[a].HammingDistance(vectors[b]));
            },
            columns, rounds, &pair_digest);
        const double row_digest =
            2.0 * (static_cast<double>(count * width) - static_cast<double>(digests[0]));
        shape.Check("LSH per-pair distances sum like the rows", pair_digest == row_digest);
      }
      add(space, width, "per_pair", pair);
    }
  }
  if (!json_path.empty()) WriteJson(json_path, "kernels", actual_n, records);

  // ---------------------------------------------------------------------
  // BBS node-prune micro. The grid is bounded where the skyline would be
  // quadratically huge (ANT at high d): the screen story is told by IND
  // across d, with one ANT cell (large skyline, low d) and one CORR cell
  // (tiny skyline: both orders degenerate to one tile).
  std::printf("\nBBS node prune: per-entry AnyDominator vs corner-tile "
              "PruneCorners\n");
  TablePrinter bbs_table({"data", "dims", "n", "m", "corners", "pe_scalar_s",
                          "pe_tiled_s", "pe_simd_s", "ct_scalar_s", "ct_tiled_s",
                          "ct_simd_s", "ct_x"});
  std::vector<JsonRecord> bbs_records;
  struct BbsCell {
    WorkloadKind kind;
    Dim dims;
  };
  const BbsCell kBbsGrid[] = {{WorkloadKind::kIndependent, 4},
                              {WorkloadKind::kIndependent, 8},
                              {WorkloadKind::kIndependent, 12},
                              {WorkloadKind::kAnticorrelated, 4},
                              {WorkloadKind::kCorrelated, 8}};
  for (const BbsCell& cell : kBbsGrid) {
    const DataSet& data = env.Data(cell.kind, paper_n, cell.dims);
    const auto tree = RTree::BulkLoad(data).value();
    const auto skyline = SkylineSFS(data).rows;
    const size_t m = skyline.size();
    const TileSet sky_tiles = MaterializeTiles(data, skyline);
    const BbsWorkload workload = CollectNodeCorners(tree);
    const std::string workload_name = WorkloadKindName(cell.kind);
    Tile scratch(data.dims());

    double pe_s[3], ct_s[3];
    uint64_t pe_digest[3] = {0, 0, 0};
    uint64_t ct_digest[3] = {0, 0, 0};
    for (size_t f = 0; f < 3; ++f) {
      const DominanceKernel kernel(kFlavours[f]);
      uint64_t before = DominanceCounter::Count();
      const Timing pe = BestOf(
          [&] { pe_digest[f] = PerEntryReplay(workload, sky_tiles, kernel); });
      pe_s[f] = pe.best;
      bbs_records.push_back({workload_name, cell.dims, ToString(kFlavours[f]),
                             "bbs_per_entry", pe,
                             (DominanceCounter::Count() - before) / kReps});
      before = DominanceCounter::Count();
      const Timing ct = BestOf([&] {
        ct_digest[f] = CornerTileReplay(workload, sky_tiles, kernel, &scratch);
      });
      ct_s[f] = ct.best;
      bbs_records.push_back({workload_name, cell.dims, ToString(kFlavours[f]),
                             "bbs_corner_tile", ct,
                             (DominanceCounter::Count() - before) / kReps});
    }

    bbs_table.Row({workload_name, TablePrinter::Int(cell.dims),
                   TablePrinter::Int(data.size()), TablePrinter::Int(m),
                   TablePrinter::Int(workload.corners), TablePrinter::Secs(pe_s[0]),
                   TablePrinter::Secs(pe_s[1]), TablePrinter::Secs(pe_s[2]),
                   TablePrinter::Secs(ct_s[0]), TablePrinter::Secs(ct_s[1]),
                   TablePrinter::Secs(ct_s[2]),
                   TablePrinter::Num(pe_s[2] / ct_s[2], 2)});

    const std::string tag =
        std::string(workload_name) + " d=" + std::to_string(cell.dims);
    shape.Check(tag + ": prune survivors identical across orders and flavours",
                pe_digest[0] == pe_digest[1] && pe_digest[1] == pe_digest[2] &&
                    ct_digest[0] == pe_digest[0] && ct_digest[1] == pe_digest[0] &&
                    ct_digest[2] == pe_digest[0]);
    // The headline acceptance ratio: corner-tile sweep vs per-entry
    // AnyDominator under the simd flavour at the paper point (n=100k,
    // d=8, AVX2); gated to full-scale runs with a multi-tile skyline.
    if (SimdAvailable() && cell.kind == WorkloadKind::kIndependent &&
        cell.dims == 8 && m >= 256 && env.scale() <= 1.0) {
      shape.Check(tag + ": corner-tile prune >= 1.3x per-entry (simd)",
                  ct_s[2] * 1.3 <= pe_s[2]);
    }
  }
  if (!bbs_json_path.empty()) {
    WriteJson(bbs_json_path, "bbs", actual_n, bbs_records);
  }
  shape.Summarize();  // benches always exit 0; the summary is for eyeballing
  return 0;
}

}  // namespace
}  // namespace skydiver::bench

int main(int argc, char** argv) { return skydiver::bench::Run(argc, argv); }
