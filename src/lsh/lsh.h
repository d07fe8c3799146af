// Locality Sensitive Hashing over MinHash signatures (paper Section 4.2.2).
//
// The signature matrix is banded into ζ zones of r rows (ζ·r = t). Each
// zone of each skyline point's signature is hashed into one of B buckets;
// the point is then represented by a ζ·B-bit vector with exactly ζ set bits
// (one per zone). Two points that never share a bucket have Hamming
// distance 2ζ; each shared bucket reduces it by 2 — so the Hamming distance
// of the bit-vectors is the LSH diversity measure, and since Hamming
// distance is a metric, the 2-approximation greedy applies unchanged.
//
// Representation: the index holds each point's ζ bucket ids, a flat m × ζ
// matrix of uint32. That matrix IS the index; the paper's ζ·B-bit vector is
// its equivalent — bit z·B + bucket(z) set for each zone z — and the two
// agree on every distance: zones whose buckets differ are exactly the
// zones contributing 2 to the Hamming distance, so the distance is
// 2·(ζ − zones whose buckets agree). The greedy reads it that way off the
// bucket matrix with the lane-agreement row kernel (kernels/agree_row.h);
// vector(j) materializes the bit-vector on demand, and MemoryBytes()
// reports the bit-vectors' ζ·B-bit size, the memory side of Fig. 13.
//
// The banding threshold ξ ≈ (1/ζ)^(1/r) is the similarity level at which
// the collision probability 1 − (1 − s^r)^ζ crosses its sigmoid midpoint;
// choosing ξ picks (ζ, r) and thereby trades memory for accuracy.

#pragma once

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "common/bitvector.h"
#include "common/lru_cache.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "minhash/minhash.h"

namespace skydiver {

/// Banding parameters.
struct LshParams {
  size_t zones = 0;            ///< ζ: number of zones (bands).
  size_t rows_per_zone = 0;    ///< r: signature slots per zone; ζ·r = t.
  size_t buckets_per_zone = 20;  ///< B: hash buckets per zone.

  /// The similarity threshold this banding approximates: (1/ζ)^(1/r).
  double Threshold() const;

  /// Collision probability for a pair with Jaccard similarity `s`:
  /// 1 − (1 − s^r)^ζ.
  double CollisionProbability(double s) const;
};

/// Chooses (ζ, r) with ζ·r = t whose threshold (1/ζ)^(1/r) is closest to
/// the requested ξ. Fails when t has no divisor pair (t prime and the only
/// splits 1×t / t×1 are still considered — it always succeeds for t ≥ 2).
Result<LshParams> ChooseZones(size_t signature_size, double threshold,
                              size_t buckets_per_zone = 20);

/// The LSH representation of all skyline points: ζ zone buckets each.
class LshIndex {
 public:
  /// Hashes every signature column into zone buckets. `seed` draws the
  /// per-zone hash salts.
  static Result<LshIndex> Build(const SignatureMatrix& signatures,
                                const LshParams& params, uint64_t seed);

  size_t columns() const { return columns_; }
  const LshParams& params() const { return params_; }

  /// The bit-vector of skyline point j (ζ·B bits, ζ of them set), built
  /// from its buckets.
  BitVector vector(size_t j) const;

  /// Bucket index (within [0, B)) of column j in zone z.
  size_t Bucket(size_t j, size_t zone) const { return buckets_[j * params_.zones + zone]; }

  /// LSH diversity: the Hamming distance between the two bit-vectors,
  /// 2 × (number of zones where the points land in different buckets); a
  /// metric, so the greedy keeps its guarantee.
  double Distance(size_t i, size_t j) const;

  /// Distance() for every pair as an AgreementDistance over the bucket
  /// matrix (2·(ζ − agree)), for the greedy's row kernel. Valid while the
  /// index lives.
  AgreementDistance Distances() const;

  /// Bytes of the points' ζ·B-bit vectors — the memory side of the
  /// paper's memory-vs-accuracy trade-off (Fig. 13).
  size_t MemoryBytes() const;

  /// Heap bytes the index actually holds (its bucket matrix).
  size_t ResidentBytes() const { return buckets_.size() * sizeof(uint32_t); }

 private:
  LshParams params_;
  size_t columns_ = 0;
  std::vector<uint32_t> buckets_;  // m x ζ bucket ids, column j's zones contiguous
};

/// Built LSH indexes over one signature matrix, keyed by banding (ζ, r, B)
/// and bounded by the bytes their bucket matrices hold (least recently
/// used evicted first). Thread-safe: lookups and inserts run under the
/// cache's mutex, builds run outside it, and built indexes are immutable
/// and shared by pointer. A SkySnapshot holds one for its signatures.
class LshIndexCache {
 public:
  explicit LshIndexCache(size_t capacity_bytes) : cache_(capacity_bytes) {}

  /// The index for `banding`: the cached one, or one built from
  /// `signatures` with `seed` and cached. Every call must pass the same
  /// matrix, and the same seed for a given banding, so racing builds
  /// produce identical bits (the first insert wins). `built` (optional)
  /// reports whether this call built the index.
  [[nodiscard]] Result<std::shared_ptr<const LshIndex>> GetOrBuild(
      const SignatureMatrix& signatures, const LshParams& banding, uint64_t seed,
      bool* built = nullptr);

  /// Bytes the cached indexes hold.
  size_t bytes() const;

 private:
  using Key = std::tuple<size_t, size_t, size_t>;  // (ζ, r, B)

  mutable Mutex mutex_;
  LruCache<Key, std::shared_ptr<const LshIndex>> cache_ SKYDIVER_GUARDED_BY(mutex_);
};

}  // namespace skydiver
