#include "bench/algos.h"

#include <algorithm>

#include "common/timer.h"
#include "diversify/brute_force.h"
#include "diversify/dispersion.h"
#include "diversify/simple_greedy.h"
#include "engine/snapshot.h"
#include "lsh/lsh.h"
#include "minhash/minhash.h"
#include "minhash/siggen.h"

namespace skydiver::bench {

namespace {
const CostModel kCost;
}  // namespace

AlgoResult RunBF(const DataSet& data, const std::vector<RowId>& skyline, size_t k,
                 const RTree& tree, size_t max_m) {
  AlgoResult out;
  const size_t m = skyline.size();
  if (m > max_m || k > m) return out;
  const IoStats io_before = tree.io_stats();
  CpuTimer cpu;
  // Like the paper's BF: all O(m^2) pairwise exact Jaccard distances are
  // computed up front via aggregate range-count queries, then every subset
  // is enumerated.
  std::vector<uint64_t> gamma_size(m);
  for (size_t j = 0; j < m; ++j) {
    gamma_size[j] = tree.DominatedCount(data.row(skyline[j]));
  }
  auto distance = [&](size_t a, size_t b) {
    const uint64_t inter =
        tree.CommonDominatedCount(data.row(skyline[a]), data.row(skyline[b]));
    const uint64_t uni = gamma_size[a] + gamma_size[b] - inter;
    if (uni == 0) return 0.0;
    return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
  };
  auto result = BruteForceMaxMin(m, k, distance);
  if (!result.ok()) return out;  // enumeration cap exceeded
  out.cpu_seconds = cpu.ElapsedSeconds();
  const IoStats io_after = tree.io_stats();
  IoStats io;
  io.page_reads = io_after.page_reads - io_before.page_reads;
  io.page_faults = io_after.page_faults - io_before.page_faults;
  out.total_seconds = kCost.TotalSeconds(out.cpu_seconds, io);
  out.selected = std::move(result.value().selected);
  out.ran = true;
  return out;
}

AlgoResult RunSG(const DataSet& data, const std::vector<RowId>& skyline, size_t k,
                 const RTree& tree, size_t max_m) {
  AlgoResult out;
  if (skyline.size() > max_m || k > skyline.size()) return out;
  CpuTimer cpu;
  auto result = SimpleGreedy(data, skyline, k, tree);
  if (!result.ok()) return out;
  out.cpu_seconds = cpu.ElapsedSeconds();
  out.total_seconds = kCost.TotalSeconds(out.cpu_seconds, result->io);
  out.selected = std::move(result.value().dispersion.selected);
  out.ran = true;
  return out;
}

namespace {

// Shared fingerprinting step for MH / LSH.
struct Fingerprint {
  SignatureMatrix signatures;
  std::vector<uint64_t> scores;
  double cpu_seconds;
  IoStats io;
};

Fingerprint MakeFingerprint(const DataSet& data, const std::vector<RowId>& skyline,
                            size_t t, const RTree* tree, uint64_t seed) {
  CpuTimer cpu;
  const auto family = MinHashFamily::Create(t, data.size(), seed);
  Fingerprint fp;
  if (tree != nullptr) {
    tree->ResetIoStats();
    auto result = SigGenIB(data, skyline, family, *tree).value();
    fp.signatures = std::move(result.signatures);
    fp.scores = std::move(result.domination_scores);
    fp.io = result.io;
  } else {
    auto result = SigGenIF(data, skyline, family).value();
    fp.signatures = std::move(result.signatures);
    fp.scores = std::move(result.domination_scores);
    fp.io = result.io;
  }
  fp.cpu_seconds = cpu.ElapsedSeconds();
  return fp;
}

}  // namespace

AlgoResult RunMH(const DataSet& data, const std::vector<RowId>& skyline, size_t k,
                 size_t signature_size, const RTree* tree, uint64_t seed) {
  AlgoResult out;
  if (k > skyline.size()) return out;
  Fingerprint fp = MakeFingerprint(data, skyline, signature_size, tree, seed);
  CpuTimer cpu;
  auto result = SelectDiverseSet(skyline.size(), k, fp.signatures.Distances(), fp.scores,
                                 /*pool=*/nullptr)
                    .value();
  out.cpu_seconds = fp.cpu_seconds + cpu.ElapsedSeconds();
  out.total_seconds = kCost.TotalSeconds(out.cpu_seconds, fp.io);
  out.selected = std::move(result.selected);
  out.memory_bytes = fp.signatures.MemoryBytes();
  out.ran = true;
  return out;
}

AlgoResult RunLSH(const DataSet& data, const std::vector<RowId>& skyline, size_t k,
                  size_t signature_size, double threshold, size_t buckets,
                  const RTree* tree, uint64_t seed) {
  AlgoResult out;
  if (k > skyline.size()) return out;
  Fingerprint fp = MakeFingerprint(data, skyline, signature_size, tree, seed);
  CpuTimer cpu;
  const auto params = ChooseZones(signature_size, threshold, buckets).value();
  // Salted as the library salts an unshaped run (engine/snapshot.h).
  const auto index =
      LshIndex::Build(fp.signatures, params, BandingSeed(seed, params, SkyQuery{})).value();
  auto result =
      SelectDiverseSet(skyline.size(), k, index.Distances(), fp.scores, /*pool=*/nullptr)
          .value();
  out.cpu_seconds = fp.cpu_seconds + cpu.ElapsedSeconds();
  out.total_seconds = kCost.TotalSeconds(out.cpu_seconds, fp.io);
  out.selected = std::move(result.selected);
  out.memory_bytes = index.MemoryBytes();
  out.ran = true;
  return out;
}

}  // namespace skydiver::bench
