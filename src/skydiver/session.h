// SkyDiverSession — fingerprint once, diversify many times.
//
// Phase 1 (skyline + MinHash fingerprinting) is the expensive part of the
// pipeline; Phase 2 (greedy selection) costs O(k·m) signature comparisons.
// A session is a thin convenience wrapper over an immutable `SkySnapshot`
// (engine/snapshot.h): Create() builds the snapshot through the engine's
// fingerprint-only plan (identical backend choice and accounting as the
// batch API), and every Select* answers one query against it. Sessions
// persist to a single checksummed file and can be reloaded WITHOUT the
// dataset: selection needs only the fingerprints (the paper's
// index-independence taken to its conclusion — ship the 100-slot
// signatures, not the 5M points).
//
// For concurrent serving — many clients querying one snapshot, with plan
// and result caching — take snapshot() and hand it to a SkyServer
// (serve/serve.h); the session itself answers queries serially.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/dataset.h"
#include "engine/snapshot.h"
#include "minhash/minhash.h"
#include "rtree/rtree.h"

namespace skydiver {

/// Reusable Phase-1 state with repeated Phase-2 queries.
class SkyDiverSession {
 public:
  /// Runs the skyline (SFS, or BBS when `tree` is given) and fingerprints
  /// it (SigGen-IF, or SigGen-IB when `tree` is given), freezing the
  /// products into a snapshot.
  [[nodiscard]] static Result<SkyDiverSession> Create(const DataSet& data, size_t signature_size,
                                        uint64_t seed, const RTree* tree = nullptr);

  /// The snapshot this session queries. Shareable: keep a copy of the
  /// shared_ptr and the Phase-1 state outlives the session.
  const std::shared_ptr<const SkySnapshot>& snapshot() const { return snapshot_; }

  /// The skyline rows the fingerprints describe, ascending.
  const std::vector<RowId>& skyline() const { return snapshot_->skyline(); }
  /// Exact |Γ(s_j)| per skyline point.
  const std::vector<uint64_t>& domination_scores() const {
    return snapshot_->domination_scores();
  }
  const SignatureMatrix& signatures() const { return snapshot_->signatures(); }

  /// k most diverse skyline rows under the MinHash estimated distance
  /// (SkyDiver-MH's Phase 2). Pick order = progressive ranking.
  [[nodiscard]] Result<std::vector<RowId>> SelectMinHash(size_t k) const;

  /// Same under an LSH banding at threshold ξ with B buckets per zone
  /// (SkyDiver-LSH's Phase 2), so the memory/accuracy knob can be explored
  /// on one set of fingerprints.
  ///
  /// Banding determinism rule: the banding is salted by a functional mix
  /// of (session seed, ζ, r, B), where (ζ, r) is the zoning ξ resolves to
  /// — see BandingSeed in engine/snapshot.h. Equal arguments therefore
  /// always derive the same banding and return the same rows, on any
  /// thread, in any call order, live or reloaded; calls differing only in
  /// k share one banding (the k-pick answer is a prefix of the larger
  /// one's), and the index is built once per banding and reused.
  [[nodiscard]] Result<std::vector<RowId>> SelectLsh(size_t k, double threshold,
                                       size_t buckets) const;

  /// Persists skyline rows, domination scores and signatures to one
  /// checksummed file (format SKYDSES1).
  [[nodiscard]] Status SaveToFile(const std::string& path) const;

  /// Reloads a session. No dataset required: every Select* works on the
  /// fingerprints alone.
  [[nodiscard]] static Result<SkyDiverSession> LoadFromFile(const std::string& path);

 private:
  SkyDiverSession() = default;

  std::shared_ptr<const SkySnapshot> snapshot_;
};

}  // namespace skydiver
