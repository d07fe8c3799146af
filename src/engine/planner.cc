#include "engine/planner.h"

#include <sstream>

#include "common/check.h"
#include "common/cpu.h"
#include "kernels/tile_view.h"
#include "parallel/morsel.h"
#include "rtree/disk_rtree.h"

namespace skydiver {

const char* ToString(SkylineBackend backend) {
  switch (backend) {
    case SkylineBackend::kPrecomputed: return "precomputed";
    case SkylineBackend::kSfs: return "sfs";
    case SkylineBackend::kSharded: return "sharded";
    case SkylineBackend::kBbs: return "bbs";
    case SkylineBackend::kBbsDisk: return "bbs-disk";
  }
  return "?";
}

const char* ToString(FingerprintBackend backend) {
  switch (backend) {
    case FingerprintBackend::kSigGenIf: return "siggen-if";
    case FingerprintBackend::kSigGenIb: return "siggen-ib";
    case FingerprintBackend::kSigGenIbDisk: return "siggen-ib-disk";
  }
  return "?";
}

const char* ToString(SelectBackend backend) {
  switch (backend) {
    case SelectBackend::kNone: return "none";
    case SelectBackend::kMinHash: return "greedy-minhash";
    case SelectBackend::kLsh: return "greedy-lsh";
    case SelectBackend::kBruteForce: return "brute-force-minhash";
  }
  return "?";
}

Result<Plan> Planner::Resolve(const SkyDiverConfig& config,
                              const PlanResources& resources, bool run_selection) {
  if (run_selection && config.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  if (config.signature_size == 0) {
    return Status::InvalidArgument("signature size must be positive");
  }
  if (config.threads > kMaxThreads) {
    return Status::InvalidArgument(
        "threads = " + std::to_string(config.threads) + " exceeds the sanity cap of " +
        std::to_string(kMaxThreads) + " (0 means serial execution)");
  }
  if (resources.tree != nullptr && resources.disk_tree != nullptr) {
    return Status::InvalidArgument(
        "both an in-memory and a file-backed tree were supplied; pick one");
  }
  const bool have_index = resources.tree != nullptr || resources.disk_tree != nullptr;
  if (config.siggen == SigGenMode::kIndexBased && !have_index) {
    return Status::InvalidArgument("index-based signature generation requires an R-tree");
  }
  if (config.kernel != DomKernel::kScalar && config.kernel != DomKernel::kTiled &&
      config.kernel != DomKernel::kSimd) {
    return Status::InvalidArgument("unknown dominance kernel value");
  }
  if (config.morsel_rows != 0) {
    if (config.morsel_rows % kTileRows != 0) {
      return Status::InvalidArgument(
          "morsel_rows = " + std::to_string(config.morsel_rows) +
          " is not tile-aligned (must be a multiple of " + std::to_string(kTileRows) +
          "; 0 means auto)");
    }
    if (config.morsel_rows > kMaxMorselRows) {
      return Status::InvalidArgument(
          "morsel_rows = " + std::to_string(config.morsel_rows) +
          " exceeds the sanity cap of " + std::to_string(kMaxMorselRows));
    }
  }
  // Shape-level query validation (dimensionality-independent — the engine
  // re-validates against the data's dims when it builds the view).
  SKYDIVER_RETURN_NOT_OK(ValidateQueryShape(config.query));
  const SkyQuery query = CanonicalShape(config.query);
  if (resources.precomputed_skyline != nullptr && !query.identity()) {
    return Status::InvalidArgument(
        "a precomputed skyline cannot serve a shaped query (constraint box, "
        "projection, or shards); recompute under the query instead");
  }
  const bool pooled = config.threads >= 1;

  Plan plan;
  plan.threads = config.threads;
  plan.query = query;
  // The missing-ISA half of the EffectiveKernel downgrade policy, applied
  // at plan time so the resolved plan (and its ExplainPlan rendering)
  // reflects what will actually run: simd is the default config value, but
  // a plan only carries it when the runtime CPU probe found a vector ISA.
  plan.kernel = config.kernel == DomKernel::kSimd && !SimdAvailable()
                    ? DomKernel::kTiled
                    : config.kernel;
  // Morsel size is a plan dimension only for pooled plans — serial plans
  // dispatch no morsels and carry 0 so equality/rendering never suggests
  // otherwise.
  plan.morsel_rows =
      pooled ? (config.morsel_rows == 0 ? kDefaultMorselRows : config.morsel_rows) : 0;

  if (resources.disk_tree != nullptr) {
    // Record the disk execution shape the tree was opened with, so the
    // resolved plan is self-describing (and ExplainPlan renders it).
    plan.disk_backend = resources.disk_tree->backend();
    plan.disk_prefetch = resources.disk_tree->prefetch_enabled();
  }

  if (resources.precomputed_skyline != nullptr) {
    plan.skyline = SkylineBackend::kPrecomputed;
  } else if (query.sharded()) {
    // An explicit shard count wins over the trees: the caller asked for the
    // partition/merge execution shape (the tree still serves IB
    // fingerprinting below).
    plan.skyline = SkylineBackend::kSharded;
  } else if (resources.disk_tree != nullptr) {
    plan.skyline = SkylineBackend::kBbsDisk;
  } else if (resources.tree != nullptr) {
    plan.skyline = SkylineBackend::kBbs;
  } else {
    plan.skyline = SkylineBackend::kSfs;
  }

  const bool use_index =
      config.siggen == SigGenMode::kIndexBased ||
      (config.siggen == SigGenMode::kAuto && have_index);
  if (!use_index) {
    plan.fingerprint = FingerprintBackend::kSigGenIf;
  } else if (resources.disk_tree != nullptr) {
    plan.fingerprint = FingerprintBackend::kSigGenIbDisk;
  } else {
    plan.fingerprint = FingerprintBackend::kSigGenIb;
  }

  if (!run_selection) {
    plan.select = SelectBackend::kNone;
  } else {
    switch (config.select) {
      case SelectMode::kMinHash: plan.select = SelectBackend::kMinHash; break;
      case SelectMode::kLsh: plan.select = SelectBackend::kLsh; break;
      case SelectMode::kBruteForce: plan.select = SelectBackend::kBruteForce; break;
    }
  }
  return plan;
}

Result<SelectPlan> Planner::ResolveSelect(const QuerySpec& spec,
                                          size_t signature_size) {
  if (spec.k == 0) return Status::InvalidArgument("k must be positive");
  if (signature_size == 0) {
    return Status::InvalidArgument("signature size must be positive");
  }
  SelectPlan plan;
  switch (spec.mode) {
    case SelectMode::kMinHash:
      plan.backend = SelectBackend::kMinHash;
      break;
    case SelectMode::kBruteForce:
      plan.backend = SelectBackend::kBruteForce;
      break;
    case SelectMode::kLsh: {
      auto params = ChooseZones(signature_size, spec.lsh_threshold, spec.lsh_buckets);
      if (!params.ok()) return params.status();
      plan.backend = SelectBackend::kLsh;
      plan.lsh = params.value();
      break;
    }
  }
  return plan;
}

void DebugValidatePlan(const Plan& plan, const PlanResources& resources) {
#if SKYDIVER_DCHECK_ACTIVE_
  const bool pooled = plan.threads >= 1;
  SKYDIVER_DCHECK_LE(plan.threads, Planner::kMaxThreads);
  SKYDIVER_DCHECK(plan.kernel == DomKernel::kScalar ||
                      plan.kernel == DomKernel::kTiled ||
                      plan.kernel == DomKernel::kSimd,
                  "plan carries an unknown dominance kernel");
  // The downgrade policy is a planner postcondition: a plan may only carry
  // kSimd when the host's vector ISA probe succeeded (hand-rolled plans
  // get the same scrutiny — downgrade with EffectiveKernel first).
  SKYDIVER_DCHECK(plan.kernel != DomKernel::kSimd || SimdAvailable(),
                  "simd kernel plan on a host without a vector ISA");
  // Morsel-size postconditions: pooled plans carry a resolved tile-aligned
  // size, serial plans carry 0 (no morsel dispatch happens).
  if (pooled) {
    SKYDIVER_DCHECK(plan.morsel_rows != 0, "pooled plan without a morsel size");
    SKYDIVER_DCHECK_EQ(plan.morsel_rows % kTileRows, 0u);
    SKYDIVER_DCHECK_LE(plan.morsel_rows, Planner::kMaxMorselRows);
  } else {
    SKYDIVER_DCHECK_EQ(plan.morsel_rows, 0u);
  }
  switch (plan.skyline) {
    case SkylineBackend::kPrecomputed:
      SKYDIVER_DCHECK(resources.precomputed_skyline != nullptr,
                      "precomputed skyline backend without supplied rows");
      break;
    case SkylineBackend::kBbs:
      SKYDIVER_DCHECK(resources.tree != nullptr, "BBS backend without an R-tree");
      break;
    case SkylineBackend::kBbsDisk:
      SKYDIVER_DCHECK(resources.disk_tree != nullptr,
                      "disk BBS backend without a disk tree");
      // The plan's disk shape must describe the tree it will run over.
      SKYDIVER_DCHECK(resources.disk_tree == nullptr ||
                          (plan.disk_backend == resources.disk_tree->backend() &&
                           plan.disk_prefetch == resources.disk_tree->prefetch_enabled()),
                      "plan disk shape disagrees with the supplied disk tree");
      break;
    case SkylineBackend::kSharded:
      SKYDIVER_DCHECK(plan.query.sharded(),
                      "sharded skyline backend without query.shards > 1");
      break;
    case SkylineBackend::kSfs:
      break;
  }
  SKYDIVER_DCHECK(resources.precomputed_skyline == nullptr || plan.query.identity(),
                  "precomputed skyline rows cannot serve a shaped query");
  switch (plan.fingerprint) {
    case FingerprintBackend::kSigGenIb:
      SKYDIVER_DCHECK(resources.tree != nullptr, "IB backend without an R-tree");
      break;
    case FingerprintBackend::kSigGenIbDisk:
      SKYDIVER_DCHECK(resources.disk_tree != nullptr,
                      "disk IB backend without a disk tree");
      break;
    case FingerprintBackend::kSigGenIf:
      break;
  }
#else
  (void)plan;
  (void)resources;
#endif
}

std::string ExplainPlan(const Plan& plan, const SkyDiverConfig& config) {
  std::ostringstream out;
  out << "SkyDiver plan [threads=" << plan.threads << ", seed=" << config.seed
      << ", kernel=" << ToString(plan.kernel);
  if (plan.kernel == DomKernel::kSimd) out << "(" << ToString(DetectSimdIsa()) << ")";
  if (plan.threads >= 1) out << ", morsel=" << plan.morsel_rows;
  out << "]\n";

  out << "  query:          " << ToString(plan.query) << "\n";

  out << "  1. skyline:     " << ToString(plan.skyline);
  switch (plan.skyline) {
    case SkylineBackend::kPrecomputed:
      out << " (caller-supplied rows, phase skipped)";
      break;
    case SkylineBackend::kSfs:
      out << " (sort-filter scan, sequential I/O charge";
      if (plan.threads >= 1) out << "; morsel-local skylines + merge pass";
      out << ")";
      break;
    case SkylineBackend::kSharded:
      out << " (" << plan.query.shards
          << "-way shard + cross-filter merge, == sfs output)";
      break;
    case SkylineBackend::kBbs:
      out << " (branch-and-bound over the aggregate R*-tree, bbs=corner-tiles)";
      break;
    case SkylineBackend::kBbsDisk:
      out << " (branch-and-bound over the file-backed tree, backend="
          << ToString(plan.disk_backend) << ", prefetch="
          << (plan.disk_prefetch ? "on" : "off") << ", bbs=corner-tiles)";
      break;
  }
  out << "\n";

  out << "  2. fingerprint: " << ToString(plan.fingerprint) << " (t="
      << config.signature_size;
  switch (plan.fingerprint) {
    case FingerprintBackend::kSigGenIf:
      out << ", one sequential data pass";
      if (plan.threads >= 1) out << ", morsel slots min-merged";
      break;
    case FingerprintBackend::kSigGenIb:
      out << ", depth-first aggregate-tree descent with bulk MBR updates";
      break;
    case FingerprintBackend::kSigGenIbDisk:
      out << ", depth-first descent through the pinned page cache, backend="
          << ToString(plan.disk_backend);
      break;
  }
  if (plan.threads >= 1 && plan.fingerprint != FingerprintBackend::kSigGenIf) {
    out << ", top levels split into subtree tasks";
  }
  out << ")\n";

  out << "  3. select:      " << ToString(plan.select);
  switch (plan.select) {
    case SelectBackend::kNone:
      out << " (fingerprint-only pipeline)";
      break;
    case SelectBackend::kMinHash:
      out << " (k=" << config.k << ", greedy 2-approx over estimated Jaccard)";
      break;
    case SelectBackend::kLsh:
      out << " (k=" << config.k << ", xi=" << config.lsh_threshold
          << ", B=" << config.lsh_buckets << ", Hamming on bit-vectors)";
      break;
    case SelectBackend::kBruteForce:
      out << " (k=" << config.k << ", exact k-MMDP over estimated Jaccard)";
      break;
  }
  out << "\n";
  return out.str();
}

}  // namespace skydiver
