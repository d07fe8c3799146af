#include "poset/mixed.h"

#include <algorithm>
#include <cmath>

#include "diversify/dispersion.h"
#include "minhash/siggen.h"

namespace skydiver {

Status MixedSchema::SetCategorical(Dim d, const PartialOrder* order) {
  if (d >= dims()) {
    return Status::InvalidArgument("dimension " + std::to_string(d) + " out of range");
  }
  if (order == nullptr) {
    return Status::InvalidArgument("categorical dimension needs a partial order");
  }
  orders_[d] = order;
  return Status::OK();
}

Status MixedSchema::Validate(const DataSet& data) const {
  if (data.dims() != dims()) {
    return Status::InvalidArgument("schema covers " + std::to_string(dims()) +
                                   " dims but data has " + std::to_string(data.dims()));
  }
  const RowId n = data.size();
  for (Dim d = 0; d < dims(); ++d) {
    const PartialOrder* order = orders_[d];
    if (order == nullptr) continue;
    for (RowId r = 0; r < n; ++r) {
      const Coord v = data.at(r, d);
      if (v < 0 || v != std::floor(v) || static_cast<size_t>(v) >= order->size()) {
        return Status::InvalidArgument(
            "row " + std::to_string(r) + " dim " + std::to_string(d) + ": value " +
            std::to_string(v) + " is not a category id in [0, " +
            std::to_string(order->size()) + ")");
      }
    }
  }
  return Status::OK();
}

bool MixedDominates(std::span<const Coord> p, std::span<const Coord> q,
                    const MixedSchema& schema) {
  bool strictly_better = false;
  const Dim d = schema.dims();
  for (Dim i = 0; i < d; ++i) {
    const PartialOrder* order = schema.order(i);
    if (order == nullptr) {
      if (p[i] > q[i]) return false;
      if (p[i] < q[i]) strictly_better = true;
    } else {
      const auto a = static_cast<uint32_t>(p[i]);
      const auto b = static_cast<uint32_t>(q[i]);
      if (!order->Leq(a, b)) return false;  // worse or incomparable
      if (a != b) strictly_better = true;
    }
  }
  return strictly_better;
}

Result<std::vector<RowId>> MixedSkyline(const DataSet& data, const MixedSchema& schema) {
  SKYDIVER_RETURN_NOT_OK(schema.Validate(data));
  std::vector<RowId> window;
  const RowId n = data.size();
  for (RowId r = 0; r < n; ++r) {
    const auto p = data.row(r);
    bool dominated = false;
    size_t keep = 0;
    for (size_t i = 0; i < window.size(); ++i) {
      const auto w = data.row(window[i]);
      if (MixedDominates(w, p, schema)) {
        dominated = true;
        for (size_t j = i; j < window.size(); ++j) window[keep++] = window[j];
        break;
      }
      if (!MixedDominates(p, w, schema)) window[keep++] = window[i];
    }
    window.resize(keep);
    if (!dominated) window.push_back(r);
  }
  std::sort(window.begin(), window.end());
  return window;
}

Result<MixedSigGenResult> MixedSigGenIF(const DataSet& data, const MixedSchema& schema,
                                        const std::vector<RowId>& skyline,
                                        const MinHashFamily& family) {
  SKYDIVER_RETURN_NOT_OK(schema.Validate(data));
  if (skyline.empty()) return Status::InvalidArgument("skyline set is empty");
  if (family.prime() <= data.size()) {
    return Status::InvalidArgument("hash family prime must exceed the dataset size");
  }
  SKYDIVER_RETURN_NOT_OK(ValidateSignatureFamily(family));
  const size_t t = family.size();
  const size_t m = skyline.size();
  const RowId n = data.size();
  MixedSigGenResult out;
  out.signatures = SignatureMatrix(t, m);
  out.domination_scores.assign(m, 0);
  std::vector<bool> is_skyline(n, false);
  for (RowId s : skyline) {
    if (s >= n) return Status::InvalidArgument("skyline row out of range");
    is_skyline[s] = true;
  }
  std::vector<uint32_t> row_hash(t);
  for (RowId r = 0; r < n; ++r) {
    if (is_skyline[r]) continue;
    const auto point = data.row(r);
    bool hashed = false;
    for (size_t j = 0; j < m; ++j) {
      if (!MixedDominates(data.row(skyline[j]), point, schema)) continue;
      ++out.domination_scores[j];
      if (!hashed) {
        family.HashRow(r, row_hash.data());
        hashed = true;
      }
      out.signatures.MergeMin(j, row_hash.data());
    }
  }
  const uint64_t pages = SequentialScanPages(n, data.dims(), 4096);
  out.io.page_reads = pages;
  out.io.page_faults = pages;
  return out;
}

Result<MixedDiversifyResult> DiversifyMixed(const DataSet& data,
                                            const MixedSchema& schema, size_t k,
                                            size_t signature_size, uint64_t seed) {
  auto skyline = MixedSkyline(data, schema);
  if (!skyline.ok()) return skyline.status();
  if (k > skyline->size()) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds skyline cardinality m = " +
                                   std::to_string(skyline->size()));
  }
  const auto family = MinHashFamily::Create(signature_size, data.size(), seed);
  auto sig = MixedSigGenIF(data, schema, *skyline, family);
  if (!sig.ok()) return sig.status();

  auto distance = [&](size_t a, size_t b) {
    return sig->signatures.EstimatedDistance(a, b);
  };
  auto score = [&](size_t j) {
    return static_cast<double>(sig->domination_scores[j]);
  };
  auto selection = SelectDiverseSet(skyline->size(), k, distance, score);
  if (!selection.ok()) return selection.status();

  MixedDiversifyResult out;
  out.skyline = std::move(skyline).value();
  out.objective = selection->min_pairwise;
  out.selected_rows.reserve(k);
  for (size_t idx : selection->selected) out.selected_rows.push_back(out.skyline[idx]);
  return out;
}

}  // namespace skydiver
