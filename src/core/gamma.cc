#include "core/gamma.h"

#include <algorithm>

#include "kernels/skyline_blocks.h"

namespace skydiver {

GammaSets GammaSets::Compute(const DataSet& data, const std::vector<RowId>& skyline,
                             DomKernel kernel) {
  GammaSets out;
  const RowId n = data.size();
  const size_t m = skyline.size();
  out.universe_ = n;
  out.non_skyline_ = n - m;
  out.gammas_.assign(m, BitVector(n));
  out.counts_.assign(m, 0);
  // Skyline columns as corner-pruned blocks (tile ids = column index j).
  // No self-skip is needed: strict dominance is irreflexive, so a skyline
  // row's own column bit is never set.
  const SkylineBlocks blocks = SkylineBlocks::Build(data, skyline);
  const DominanceKernel batch(EffectiveKernel(kernel, m));
  for (RowId r = 0; r < n; ++r) {
    blocks.ForEachDominator(data.row(r), batch, [&](size_t j) {
      out.gammas_[j].Set(r);
      ++out.counts_[j];
    });
  }
  return out;
}

GammaSets GammaSets::FromBitVectors(size_t universe_size,
                                    std::vector<BitVector> gammas) {
  GammaSets out;
  out.universe_ = universe_size;
  out.non_skyline_ = universe_size >= gammas.size() ? universe_size - gammas.size() : 0;
  out.counts_.reserve(gammas.size());
  for (const auto& g : gammas) out.counts_.push_back(g.Count());
  out.gammas_ = std::move(gammas);
  return out;
}

size_t GammaSets::MaxDominationIndex() const {
  size_t best = 0;
  for (size_t j = 1; j < counts_.size(); ++j) {
    if (counts_[j] > counts_[best]) best = j;
  }
  return best;
}

double GammaSets::JaccardSimilarity(size_t i, size_t j) const {
  const size_t inter = gammas_[i].AndCount(gammas_[j]);
  const size_t uni = counts_[i] + counts_[j] - inter;
  if (uni == 0) return 1.0;  // both Γ empty: identical (empty) sets
  return static_cast<double>(inter) / static_cast<double>(uni);
}

double GammaSets::Coverage(const std::vector<size_t>& selected) const {
  if (non_skyline_ == 0) return 1.0;
  BitVector covered(universe_);
  for (size_t j : selected) covered |= gammas_[j];
  return static_cast<double>(covered.Count()) / static_cast<double>(non_skyline_);
}

double GammaSets::MatrixSparsity() const {
  if (non_skyline_ == 0 || gammas_.empty()) return 0.0;
  size_t ones = 0;
  for (size_t c : counts_) ones += c;
  const double cells =
      static_cast<double>(non_skyline_) * static_cast<double>(gammas_.size());
  return 1.0 - static_cast<double>(ones) / cells;
}

}  // namespace skydiver
