#include "lsh/lsh.h"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace skydiver {

namespace {

// 64-bit mixing (splitmix64 finalizer) for zone-bucket hashing.
uint64_t Mix64(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

double LshParams::Threshold() const {
  SKYDIVER_DCHECK(zones > 0 && rows_per_zone > 0);
  return std::pow(1.0 / static_cast<double>(zones),
                  1.0 / static_cast<double>(rows_per_zone));
}

double LshParams::CollisionProbability(double s) const {
  SKYDIVER_DCHECK(zones > 0 && rows_per_zone > 0);
  const double band_hit = std::pow(s, static_cast<double>(rows_per_zone));
  return 1.0 - std::pow(1.0 - band_hit, static_cast<double>(zones));
}

Result<LshParams> ChooseZones(size_t signature_size, double threshold,
                              size_t buckets_per_zone) {
  if (signature_size < 2) {
    return Status::InvalidArgument("signature size must be at least 2 for banding");
  }
  if (threshold <= 0.0 || threshold >= 1.0) {
    return Status::InvalidArgument("LSH threshold must lie in (0, 1)");
  }
  if (buckets_per_zone < 2) {
    return Status::InvalidArgument("need at least 2 buckets per zone");
  }
  LshParams best;
  double best_err = std::numeric_limits<double>::infinity();
  for (size_t zones = 1; zones <= signature_size; ++zones) {
    if (signature_size % zones != 0) continue;
    LshParams p;
    p.zones = zones;
    p.rows_per_zone = signature_size / zones;
    p.buckets_per_zone = buckets_per_zone;
    // Degenerate bandings (1 zone of t rows, or t zones of 1 row) have
    // thresholds pinned near 1 / near 0; they are legal but rarely closest.
    const double err = std::fabs(p.Threshold() - threshold);
    if (err < best_err) {
      best_err = err;
      best = p;
    }
  }
  return best;
}

Result<LshIndex> LshIndex::Build(const SignatureMatrix& signatures,
                                 const LshParams& params, uint64_t seed) {
  if (params.zones == 0 || params.rows_per_zone == 0) {
    return Status::InvalidArgument("LSH params are unset");
  }
  if (params.zones * params.rows_per_zone != signatures.signature_size()) {
    return Status::InvalidArgument(
        "zones x rows_per_zone must equal the signature size (" +
        std::to_string(params.zones) + " x " + std::to_string(params.rows_per_zone) +
        " != " + std::to_string(signatures.signature_size()) + ")");
  }
  if (params.buckets_per_zone < 2) {
    return Status::InvalidArgument("need at least 2 buckets per zone");
  }
  if (params.buckets_per_zone > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("bucket ids are 32-bit: at most 2^32 buckets per zone");
  }
  LshIndex index;
  index.params_ = params;
  const size_t m = signatures.columns();
  index.columns_ = m;
  index.buckets_.assign(m * params.zones, 0);
  // Each zone's hash chain starts from a per-zone seed, the same for every
  // column.
  std::vector<uint64_t> zone_seed(params.zones);
  for (size_t z = 0; z < params.zones; ++z) {
    zone_seed[z] = Mix64(seed ^ (0x9e3779b97f4a7c15ULL * (z + 1)));
  }
  for (size_t j = 0; j < m; ++j) {
    for (size_t z = 0; z < params.zones; ++z) {
      uint64_t h = zone_seed[z];
      for (size_t rr = 0; rr < params.rows_per_zone; ++rr) {
        h = Mix64(h ^ signatures.at(j, z * params.rows_per_zone + rr));
      }
      index.buckets_[j * params.zones + z] =
          static_cast<uint32_t>(h % params.buckets_per_zone);
    }
  }
  return index;
}

BitVector LshIndex::vector(size_t j) const {
  BitVector bits(params_.zones * params_.buckets_per_zone);
  for (size_t z = 0; z < params_.zones; ++z) {
    bits.Set(z * params_.buckets_per_zone + Bucket(j, z));
  }
  return bits;
}

double LshIndex::Distance(size_t i, size_t j) const {
  const size_t zones = params_.zones;
  const uint32_t* a = buckets_.data() + i * zones;
  const uint32_t* b = buckets_.data() + j * zones;
  size_t differ = 0;
  for (size_t z = 0; z < zones; ++z) differ += a[z] != b[z] ? 1 : 0;
  return static_cast<double>(2 * differ);
}

AgreementDistance LshIndex::Distances() const {
  AgreementDistance distance;
  distance.lanes = buckets_.data();
  distance.width = params_.zones;
  distance.by_agreement.resize(params_.zones + 1);
  for (size_t a = 0; a <= params_.zones; ++a) {
    distance.by_agreement[a] = static_cast<double>(2 * (params_.zones - a));
  }
  return distance;
}

size_t LshIndex::MemoryBytes() const {
  // One ζ·B-bit vector per point, in 64-bit words (BitVector's layout).
  const size_t words = (params_.zones * params_.buckets_per_zone + 63) / 64;
  return columns_ * words * sizeof(uint64_t);
}

Result<std::shared_ptr<const LshIndex>> LshIndexCache::GetOrBuild(
    const SignatureMatrix& signatures, const LshParams& banding, uint64_t seed,
    bool* built) {
  if (built != nullptr) *built = false;
  const Key key{banding.zones, banding.rows_per_zone, banding.buckets_per_zone};
  {
    MutexLock lock(mutex_);
    if (const auto* hit = cache_.Get(key)) return *hit;
  }
  // Build outside the lock: readers of other bandings keep going meanwhile.
  auto index = LshIndex::Build(signatures, banding, seed);
  if (!index.ok()) return index.status();
  auto shared = std::make_shared<const LshIndex>(std::move(index).value());
  if (built != nullptr) *built = true;
  MutexLock lock(mutex_);
  if (const auto* raced = cache_.Get(key)) return *raced;
  cache_.Put(key, shared, shared->ResidentBytes());
  return shared;
}

size_t LshIndexCache::bytes() const {
  MutexLock lock(mutex_);
  return cache_.weight();
}

}  // namespace skydiver
