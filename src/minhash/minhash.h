// MinHash fingerprinting of dominated sets (paper Section 4.1).
//
// Each skyline point's dominated set Γ(s) is a subset of the data rows;
// SkyDiver compresses it into a signature of t slots, where slot i holds
// min over x ∈ Γ(s) of h_i(x) for a "min-wise independent" hash
// h_i(x) = (a_i·x + b_i) mod P, P prime > n. The key MinHash property:
// Pr[slot_i(p) = slot_i(q)] = Js(p, q), so the fraction of agreeing slots
// is an unbiased estimate of the Jaccard similarity of the dominated sets.
//
// Slot layout: every hash value is below P, and a family that produces
// signatures has P < 2³² (kMaxSignaturePrime; producers reject larger
// families with InvalidArgument), so SignatureMatrix stores each slot as a
// uint32_t with UINT32_MAX as the empty marker. That halves the matrix and
// lets the merge run 8 slots per AVX2 instruction (kernels/min_merge.h).
// The public accessors widen back to uint64_t — the empty marker to
// kEmptySlot — so banding, persistence and every consumer see the values
// the 64-bit layout held.

#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "core/dataset.h"
#include "kernels/agree_row.h"
#include "kernels/min_merge.h"

namespace skydiver {

/// Slot value meaning "no row hashed yet" (empty dominated set), as the
/// public accessors report it.
inline constexpr uint64_t kEmptySlot = std::numeric_limits<uint64_t>::max();

/// The empty marker as SignatureMatrix stores it.
inline constexpr uint32_t kEmptySlot32 = std::numeric_limits<uint32_t>::max();

/// Largest prime below 2³²: the largest P whose hash values (< P) all fit
/// a 32-bit slot below kEmptySlot32.
inline constexpr uint64_t kMaxSignaturePrime = 4294967291u;

/// Fraction of agreeing slots between two raw signature columns of equal
/// length — the MinHash similarity estimate. Shared by SignatureMatrix and
/// by callers holding signatures outside a matrix (e.g. the streaming
/// monitor's per-skyline-point vectors). Returns 0 for empty signatures.
double SlotAgreementSimilarity(std::span<const uint64_t> a, std::span<const uint64_t> b);
double SlotAgreementSimilarity(std::span<const uint32_t> a, std::span<const uint32_t> b);

/// A family of t linear hash functions h_i(x) = (a_i·x + b_i) mod P.
///
/// The family approximates min-wise independence, which is the standard
/// practical choice (Broder et al.); P is the first prime after `universe`.
class MinHashFamily {
 public:
  /// Draws a family of `t` functions able to hash row ids in [0, universe).
  static MinHashFamily Create(size_t t, uint64_t universe, uint64_t seed);

  size_t size() const { return a_.size(); }
  uint64_t prime() const { return prime_; }

  /// h_i(x). When P and x both fit 32 bits the product a_i·x + b_i fits
  /// 64 (a_i, b_i < P), so a 64-bit remainder is exact; otherwise the
  /// product is reduced in 128 bits.
  uint64_t Apply(size_t i, uint64_t x) const {
    if (((prime_ | x) >> 32) == 0) return (a_[i] * x + b_[i]) % prime_;
    return static_cast<uint64_t>(
        (static_cast<__uint128_t>(a_[i]) * x + b_[i]) % prime_);
  }

  /// Additive step of h_i: h_i(x+1) = (h_i(x) + a_i) mod P. Exposed so
  /// range updates (index-based generation over `count` consecutive row
  /// ids) can evaluate the family incrementally.
  uint64_t StepOf(size_t i) const { return a_[i]; }

  /// Offset b_i of h_i (= h_i(0)).
  uint64_t OffsetOf(size_t i) const { return b_[i]; }

  /// True when every hash value fits a signature slot (P ≤
  /// kMaxSignaturePrime); the HashRow/StepRow forms require it.
  bool fits_slots() const { return prime_ <= kMaxSignaturePrime; }

  /// row[i] = h_i(x) for every i, as 32-bit slot values.
  void HashRow(uint64_t x, uint32_t* row) const {
    SKYDIVER_DCHECK(fits_slots());
    const size_t t = a_.size();
    if ((x >> 32) == 0) {
      for (size_t i = 0; i < t; ++i) row[i] = static_cast<uint32_t>((a_[i] * x + b_[i]) % prime_);
    } else {
      for (size_t i = 0; i < t; ++i) row[i] = static_cast<uint32_t>(Apply(i, x));
    }
  }

  /// Advances a HashRow result from h(x) to h(x+1) with the additive step —
  /// no division. In 32 bits: h + a_i wraps past P exactly when
  /// h >= P - a_i, and then the next value is h - (P - a_i).
  void StepRow(uint32_t* row) const {
    SKYDIVER_DCHECK(fits_slots());
    const size_t t = a_.size();
    for (size_t i = 0; i < t; ++i) {
      const uint32_t h = row[i];
      row[i] = h >= wrap_[i] ? h - wrap_[i] : h + step_[i];
    }
  }

 private:
  MinHashFamily() = default;
  std::vector<uint64_t> a_;
  std::vector<uint64_t> b_;
  uint64_t prime_ = 0;
  // 32-bit copies of a_i and of P - a_i for StepRow (empty when the family
  // does not fit slots).
  std::vector<uint32_t> step_;
  std::vector<uint32_t> wrap_;
};

/// Up to this many row ids apart, stepping an earlier row's hashes forward
/// with StepRow is cheaper than hashing afresh (t divisions).
inline constexpr uint64_t kMaxHashSteps = 8;

/// h(x) of a `family` (which must fit slots) for a mostly rising run of row
/// ids: Row(x) steps from the last row it hashed when that row is at most
/// kMaxHashSteps behind x, and hashes afresh otherwise. Both forms are
/// exact, so the values never depend on the order of the calls.
class RowHasher {
 public:
  explicit RowHasher(const MinHashFamily& family)
      : family_(family), row_(family.size()) {}

  /// The t hash values of row `x`, valid until the next call.
  const uint32_t* Row(uint64_t x) {
    if (hashed_ && x >= x_ && x - x_ <= kMaxHashSteps) {
      for (; x_ < x; ++x_) family_.StepRow(row_.data());
    } else {
      family_.HashRow(x, row_.data());
      x_ = x;
      hashed_ = true;
    }
    return row_.data();
  }

 private:
  const MinHashFamily& family_;
  std::vector<uint32_t> row_;
  uint64_t x_ = 0;       // the row row_ holds, once hashed_
  bool hashed_ = false;
};

/// OK when `family` can produce a SignatureMatrix (P ≤ kMaxSignaturePrime,
/// so every slot value fits 32 bits); InvalidArgument otherwise. Every
/// signature producer checks this before it writes a slot.
Status ValidateSignatureFamily(const MinHashFamily& family);

/// Column-major t x m signature matrix: column j is the signature of the
/// j-th skyline point. Matches the paper's \hat{M}. Slots are stored as
/// uint32_t (see the file comment); at() widens them.
class SignatureMatrix {
 public:
  SignatureMatrix() = default;
  SignatureMatrix(size_t t, size_t m)
      : t_(t), m_(m), slots_(t * m, kEmptySlot32) {}

  size_t signature_size() const { return t_; }
  size_t columns() const { return m_; }

  /// Slot value widened to 64 bits: kEmptySlot when empty. Branch-free —
  /// LSH banding reads every slot of the matrix through it.
  uint64_t at(size_t column, size_t slot) const {
    const uint32_t v = slots_[column * t_ + slot];
    return static_cast<uint64_t>(v) |
           (static_cast<uint64_t>(v == kEmptySlot32) * (kEmptySlot ^ kEmptySlot32));
  }

  /// The stored 32-bit slots of one column.
  std::span<const uint32_t> column(size_t column) const {
    return {slots_.data() + column * t_, t_};
  }

  /// slot := min(slot, value) — the MinHash update for one slot. `value`
  /// is a hash value (< kEmptySlot32) or kEmptySlot (a no-op).
  void UpdateMin(size_t column, size_t slot, uint64_t value) {
    SKYDIVER_DCHECK(value < kEmptySlot32 || value == kEmptySlot);
    uint32_t& cell = slots_[column * t_ + slot];
    const auto v = static_cast<uint32_t>(value);
    if (v < cell) cell = v;
  }

  /// column := min(column, values), slot by slot, over t values — the
  /// MinHash update for a whole row hash or range minimum, run by the
  /// per-ISA merge kernel.
  void MergeMin(size_t column, const uint32_t* values) {
    skydiver::MergeMin(slots_.data() + column * t_, values, t_);
  }

  /// Merges every column of `other` (same shape) into this matrix — the
  /// fold of per-worker partial matrices.
  void MergeMin(const SignatureMatrix& other) {
    SKYDIVER_DCHECK(other.t_ == t_ && other.m_ == m_);
    skydiver::MergeMin(slots_.data(), other.slots_.data(), slots_.size());
  }

  /// Stores a slot value that came from outside the process (a file):
  /// kEmptySlot or a value below kEmptySlot32. Returns false, storing
  /// nothing, for any other value — it has no 32-bit form and must not be
  /// narrowed.
  [[nodiscard]] bool Store(size_t column, size_t slot, uint64_t value) {
    if (value >= kEmptySlot32 && value != kEmptySlot) return false;
    slots_[column * t_ + slot] = static_cast<uint32_t>(value);
    return true;
  }

  /// Estimated Jaccard similarity: fraction of slots where the two
  /// signatures agree.
  double EstimatedSimilarity(size_t c1, size_t c2) const;

  /// Estimated Jaccard distance (1 - similarity). Respects the triangle
  /// inequality (paper Lemma 3), so the 2-approximation greedy applies.
  double EstimatedDistance(size_t c1, size_t c2) const {
    return 1.0 - EstimatedSimilarity(c1, c2);
  }

  /// EstimatedDistance over the stored slots as an AgreementDistance —
  /// 1 − agree/t, tabulated with EstimatedDistance's own arithmetic, so the
  /// greedy's row kernel reproduces it bit for bit. Valid while the matrix
  /// lives and is not modified.
  AgreementDistance Distances() const;

  /// Heap bytes held by the matrix (memory-consumption experiments).
  size_t MemoryBytes() const { return slots_.size() * sizeof(uint32_t); }

  /// Persists the matrix to a checksummed binary file (format SKYDSIG1).
  /// Fingerprinting is the expensive phase; saving the signatures lets a
  /// deployment re-run Phase 2 with different k / ξ / B for free. Slots are
  /// written widened to 64 bits, as the format has always held them.
  Status SaveToFile(const std::string& path) const;

  /// Loads a matrix written by SaveToFile. A slot that is neither
  /// kEmptySlot nor below kEmptySlot32 is an IoError.
  static Result<SignatureMatrix> LoadFromFile(const std::string& path);

 private:
  size_t t_ = 0;
  size_t m_ = 0;
  std::vector<uint32_t> slots_;
};

/// Signature size that guarantees an (ε, δ)-approximation of the Jaccard
/// similarity at precision β — Ω(ε⁻³ β⁻¹ log 1/δ) per Datar & Muthukrishnan
/// (cited as [12] in the paper). Returned with constant 1; callers treat it
/// as a guideline (the paper uses t = 100 as its practical default).
size_t RecommendedSignatureSize(double epsilon, double beta, double delta);

}  // namespace skydiver
