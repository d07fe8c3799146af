#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

namespace skybench {

namespace {

double RowSum(const DataSet& data, RowId r) {
  double s = 0.0;
  for (Coord v : data.row(r)) s += v;
  return s;
}

std::string Str(uint64_t v) { return std::to_string(v); }

// Γ(p): every row strictly dominated by p, ascending.
std::vector<RowId> DominatedSet(const DataSet& data, RowId p) {
  std::vector<RowId> out;
  for (RowId r = 0; r < data.size(); ++r) {
    if (Dominates(data, p, r)) out.push_back(r);
  }
  return out;
}

}  // namespace

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool Dominates(const DataSet& data, RowId p, RowId q) {
  const auto a = data.row(p);
  const auto b = data.row(q);
  bool strict = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strict = true;
  }
  return strict;
}

std::vector<RowId> RowsInBox(const DataSet& data, std::span<const Coord> lo,
                             std::span<const Coord> hi) {
  std::vector<RowId> rows;
  for (RowId r = 0; r < data.size(); ++r) {
    const auto x = data.row(r);
    bool inside = true;
    for (size_t i = 0; i < lo.size() && inside; ++i) inside = x[i] >= lo[i] && x[i] <= hi[i];
    if (inside) rows.push_back(r);
  }
  return rows;
}

std::string CheckSkyline(const DataSet& data, std::span<const RowId> candidates,
                         std::span<const RowId> sky) {
  std::unordered_set<RowId> in_candidates(candidates.begin(), candidates.end());
  std::unordered_set<RowId> returned;
  for (RowId r : sky) {
    if (!in_candidates.count(r)) return "skyline row " + Str(r) + " is not a candidate row";
    if (!returned.insert(r).second) return "skyline row " + Str(r) + " is returned twice";
  }
  if (sky.empty() && !candidates.empty()) return "empty skyline over a non-empty input";

  // A dominator has a coordinate sum no larger than its victim's (float
  // addition is monotone), so only the prefix of the sum order can hold one.
  std::vector<std::pair<double, RowId>> by_sum;
  by_sum.reserve(sky.size());
  for (RowId r : sky) by_sum.emplace_back(RowSum(data, r), r);
  std::sort(by_sum.begin(), by_sum.end());
  auto dominated_by_returned = [&](RowId q, RowId* who) {
    const double s = RowSum(data, q);
    for (const auto& [sum, p] : by_sum) {
      if (sum > s) break;
      if (Dominates(data, p, q)) {
        *who = p;
        return true;
      }
    }
    return false;
  };
  for (RowId r : sky) {
    RowId who = 0;
    if (dominated_by_returned(r, &who)) {
      return "skyline row " + Str(r) + " is dominated by returned row " + Str(who);
    }
  }
  for (RowId q : candidates) {
    if (returned.count(q)) continue;
    RowId who = 0;
    if (!dominated_by_returned(q, &who)) {
      return "row " + Str(q) + " is missing: no returned row dominates it";
    }
  }
  return "";
}

std::string CheckScores(const DataSet& data, std::span<const RowId> sky,
                        std::span<const uint64_t> scores, std::span<const size_t> sample) {
  if (scores.size() != sky.size()) {
    return Str(scores.size()) + " scores for " + Str(sky.size()) + " skyline rows";
  }
  for (size_t j : sample) {
    const uint64_t exact = DominatedSet(data, sky[j]).size();
    if (scores[j] != exact) {
      return "score of skyline point " + Str(j) + " is " + Str(scores[j]) +
             ", exact |dominated set| is " + Str(exact);
    }
  }
  return "";
}

std::string CheckIfSignatures(const DataSet& data, std::span<const RowId> sky,
                              const skydiver::SignatureMatrix& signatures,
                              const skydiver::MinHashFamily& family,
                              std::span<const size_t> sample) {
  const size_t t = family.size();
  if (signatures.columns() != sky.size() || signatures.signature_size() != t) {
    return "signature matrix is " + Str(signatures.columns()) + "x" +
           Str(signatures.signature_size()) + ", expected " + Str(sky.size()) + "x" + Str(t);
  }
  for (size_t j : sample) {
    std::vector<uint64_t> expect(t, std::numeric_limits<uint64_t>::max());
    for (RowId r : DominatedSet(data, sky[j])) {
      for (size_t i = 0; i < t; ++i) expect[i] = std::min(expect[i], family.Apply(i, r));
    }
    for (size_t i = 0; i < t; ++i) {
      if (signatures.at(j, i) != expect[i]) {
        return "signature entry (" + Str(j) + ", " + Str(i) + ") is " +
               Str(signatures.at(j, i)) + ", exact minimum is " + Str(expect[i]);
      }
    }
  }
  return "";
}

std::string CheckSelection(std::span<const RowId> sky, std::span<const size_t> selected,
                           std::span<const RowId> selected_rows, double objective,
                           const skydiver::SignatureMatrix& signatures, size_t k) {
  if (selected.size() != k || selected_rows.size() != k) {
    return "selected " + Str(selected.size()) + " points (" + Str(selected_rows.size()) +
           " rows), expected k = " + Str(k);
  }
  std::unordered_set<size_t> seen;
  for (size_t i = 0; i < k; ++i) {
    if (selected[i] >= sky.size()) return "pick " + Str(selected[i]) + " is out of range";
    if (!seen.insert(selected[i]).second) return "pick " + Str(selected[i]) + " repeats";
    if (selected_rows[i] != sky[selected[i]]) {
      return "pick " + Str(i) + " names row " + Str(selected_rows[i]) + ", skyline has " +
             Str(sky[selected[i]]);
    }
  }
  const size_t t = signatures.signature_size();
  double min_dist = k < 2 ? 0.0 : std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < k; ++a) {
    for (size_t b = a + 1; b < k; ++b) {
      size_t agree = 0;
      for (size_t i = 0; i < t; ++i) {
        agree += signatures.at(selected[a], i) == signatures.at(selected[b], i);
      }
      const double d = 1.0 - static_cast<double>(agree) / static_cast<double>(t);
      min_dist = std::min(min_dist, d);
    }
  }
  if (std::abs(min_dist - objective) > 1e-12) {
    return "reported objective " + std::to_string(objective) +
           " differs from the recomputed minimum pairwise distance " +
           std::to_string(min_dist);
  }
  return "";
}

double ExactDiversity(const DataSet& data, std::span<const RowId> rows) {
  if (rows.size() < 2) return 0.0;
  std::vector<std::vector<RowId>> sets;
  sets.reserve(rows.size());
  for (RowId r : rows) sets.push_back(DominatedSet(data, r));
  double best = std::numeric_limits<double>::infinity();
  for (size_t a = 0; a < sets.size(); ++a) {
    for (size_t b = a + 1; b < sets.size(); ++b) {
      std::vector<RowId> common;
      std::set_intersection(sets[a].begin(), sets[a].end(), sets[b].begin(), sets[b].end(),
                            std::back_inserter(common));
      const size_t uni = sets[a].size() + sets[b].size() - common.size();
      const double d =
          uni == 0 ? 0.0 : 1.0 - static_cast<double>(common.size()) / static_cast<double>(uni);
      best = std::min(best, d);
    }
  }
  return best;
}

std::vector<size_t> SampleIndices(size_t m, size_t count, uint64_t seed) {
  std::vector<size_t> all(m);
  std::iota(all.begin(), all.end(), size_t{0});
  count = std::min(count, m);
  for (size_t i = 0; i < count; ++i) {
    seed = Mix(seed);
    std::swap(all[i], all[i + seed % (m - i)]);
  }
  all.resize(count);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace skybench
