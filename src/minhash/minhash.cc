#include "minhash/minhash.h"

#include <cmath>
#include <string>

#include "common/binio.h"
#include "common/check.h"
#include "common/prime.h"
#include "common/rng.h"

namespace skydiver {

namespace {
constexpr char kSignatureMagic[8] = {'S', 'K', 'Y', 'D', 'S', 'I', 'G', '1'};
}  // namespace

Status SignatureMatrix::SaveToFile(const std::string& path) const {
  BinaryWriter writer(path, kSignatureMagic);
  if (!writer.ok()) return Status::IoError("cannot open '" + path + "' for writing");
  writer.WriteU64(t_);
  writer.WriteU64(m_);
  for (size_t j = 0; j < m_; ++j) {
    for (size_t i = 0; i < t_; ++i) writer.WriteU64(at(j, i));
  }
  return writer.Finish();
}

Result<SignatureMatrix> SignatureMatrix::LoadFromFile(const std::string& path) {
  BinaryReader reader(path, kSignatureMagic);
  SKYDIVER_RETURN_NOT_OK(reader.status());
  uint64_t t = 0, m = 0;
  if (!reader.ReadU64(&t) || !reader.ReadU64(&m)) {
    return Status::IoError("'" + path + "': truncated signature header");
  }
  // Check the counts against the file before sizing anything from them.
  if (m != 0 && t > reader.BytesLeft() / sizeof(uint64_t) / m) {
    return Status::IoError("'" + path + "': header claims " + std::to_string(t) + " x " +
                           std::to_string(m) + " slots, more than the file holds");
  }
  SignatureMatrix sig(t, m);
  for (size_t j = 0; j < m; ++j) {
    for (size_t i = 0; i < t; ++i) {
      uint64_t v = 0;
      if (!reader.ReadU64(&v)) {
        return Status::IoError("'" + path + "': truncated signature payload");
      }
      if (!sig.Store(j, i, v)) {
        return Status::IoError("'" + path + "': signature slot value " + std::to_string(v) +
                               " is out of range");
      }
    }
  }
  SKYDIVER_RETURN_NOT_OK(reader.VerifyChecksum());
  return sig;
}

MinHashFamily MinHashFamily::Create(size_t t, uint64_t universe, uint64_t seed) {
  SKYDIVER_DCHECK_GT(t, 0u);
  MinHashFamily family;
  family.prime_ = NextPrime(std::max<uint64_t>(universe, 2));
  Rng rng(seed);
  family.a_.resize(t);
  family.b_.resize(t);
  for (size_t i = 0; i < t; ++i) {
    // a in [1, P-1] keeps the map a bijection on Z_P; b in [0, P-1].
    family.a_[i] = 1 + rng.NextBounded(family.prime_ - 1);
    family.b_[i] = rng.NextBounded(family.prime_);
  }
  if (family.fits_slots()) {
    family.step_.resize(t);
    family.wrap_.resize(t);
    for (size_t i = 0; i < t; ++i) {
      family.step_[i] = static_cast<uint32_t>(family.a_[i]);
      family.wrap_[i] = static_cast<uint32_t>(family.prime_ - family.a_[i]);
    }
  }
  return family;
}

Status ValidateSignatureFamily(const MinHashFamily& family) {
  if (family.fits_slots()) return Status::OK();
  return Status::InvalidArgument("hash family prime " + std::to_string(family.prime()) +
                                 " exceeds 2^32: signature slots hold 32-bit values");
}

namespace {

template <typename Slot>
double AgreementOf(std::span<const Slot> a, std::span<const Slot> b) {
  SKYDIVER_DCHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  size_t agree = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] == b[i]) ++agree;
  }
  return static_cast<double>(agree) / static_cast<double>(a.size());
}

}  // namespace

double SlotAgreementSimilarity(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  return AgreementOf(a, b);
}

double SlotAgreementSimilarity(std::span<const uint32_t> a, std::span<const uint32_t> b) {
  return AgreementOf(a, b);
}

double SignatureMatrix::EstimatedSimilarity(size_t c1, size_t c2) const {
  SKYDIVER_DCHECK(c1 < m_ && c2 < m_);
  // Stored slots compare equal exactly when their widened values do.
  return SlotAgreementSimilarity(column(c1), column(c2));
}

AgreementDistance SignatureMatrix::Distances() const {
  AgreementDistance distance;
  distance.lanes = slots_.data();
  distance.width = t_;
  distance.by_agreement.resize(t_ + 1, 1.0);  // t = 0: AgreementOf reads 0
  if (t_ > 0) {
    for (size_t a = 0; a <= t_; ++a) {
      distance.by_agreement[a] = 1.0 - static_cast<double>(a) / static_cast<double>(t_);
    }
  }
  return distance;
}

size_t RecommendedSignatureSize(double epsilon, double beta, double delta) {
  SKYDIVER_DCHECK(epsilon > 0 && epsilon < 1);
  SKYDIVER_DCHECK(beta > 0 && beta < 1);
  SKYDIVER_DCHECK(delta > 0 && delta < 1);
  const double t = std::log(1.0 / delta) / (epsilon * epsilon * epsilon * beta);
  return static_cast<size_t>(std::ceil(t));
}

}  // namespace skydiver
