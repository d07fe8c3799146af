#include "engine/snapshot.h"

#include <bit>
#include <limits>
#include <utility>

#include "common/check.h"
#include "diversify/brute_force.h"
#include "diversify/dispersion.h"
#include "engine/engine.h"
#include "engine/planner.h"
#include "skyline/skyline.h"

namespace skydiver {

namespace {

// Boost-style hash mixing.
uint64_t Mix(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

// Folds a non-identity shape's canonical key in; the identity shape mixes
// nothing, so unshaped seeds do not depend on the key's spelling.
uint64_t MixShape(uint64_t h, const SkyQuery& shape) {
  if (shape.identity()) return h;
  for (const char c : QueryKey(shape)) {
    h = Mix(h, static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  return h;
}

}  // namespace

uint64_t BandingSeed(uint64_t snapshot_seed, const LshParams& banding,
                     const SkyQuery& shape) {
  uint64_t h = snapshot_seed;
  h = Mix(h, static_cast<uint64_t>(banding.zones));
  h = Mix(h, static_cast<uint64_t>(banding.rows_per_zone));
  h = Mix(h, static_cast<uint64_t>(banding.buckets_per_zone));
  return MixShape(h, CanonicalShape(shape));
}

uint64_t QuerySeed(uint64_t snapshot_seed, const QuerySpec& spec) {
  // Normalization first: non-LSH modes must not perturb the seed through
  // stale LSH knobs — "equal queries, equal seeds" holds for the spec as
  // cached, not as typed.
  const QuerySpec s = spec.Normalized();
  uint64_t h = snapshot_seed;
  h = Mix(h, static_cast<uint64_t>(s.mode));
  h = Mix(h, static_cast<uint64_t>(s.k));
  h = Mix(h, std::bit_cast<uint64_t>(s.lsh_threshold));
  h = Mix(h, static_cast<uint64_t>(s.lsh_buckets));
  return MixShape(h, s.query);
}

Result<DispersionResult> SelectFromFingerprints(SelectBackend backend, size_t k,
                                                const SignatureMatrix& signatures,
                                                const std::vector<uint64_t>& scores,
                                                const LshIndex* lsh, ThreadPool* pool,
                                                size_t morsel_rows) {
  const size_t m = signatures.columns();
  switch (backend) {
    case SelectBackend::kNone:
      return Status::Internal("no selection backend planned");
    case SelectBackend::kMinHash:
      return SelectDiverseSet(m, k, signatures.Distances(), scores, pool, morsel_rows);
    case SelectBackend::kLsh:
      SKYDIVER_CHECK(lsh != nullptr, "LSH selection without an index");
      return SelectDiverseSet(m, k, lsh->Distances(), scores, pool, morsel_rows);
    case SelectBackend::kBruteForce:
      return BruteForceMaxMin(m, k, signatures.Distances());
  }
  return Status::Internal("unknown selection backend");
}

Result<std::shared_ptr<const SkySnapshot>> SkySnapshot::Build(
    const DataSet& data, const SkyDiverConfig& config, const PlanResources& resources,
    std::shared_ptr<const Runtime> runtime) {
  auto plan = Planner::Resolve(config, resources, /*run_selection=*/false);
  if (!plan.ok()) return plan.status();

  if (runtime == nullptr) runtime = Runtime::Create(config.threads);
  QueryContext ctx(runtime, config.cost_model, config.seed);
  auto output = Engine::Execute(ctx, plan.value(), config, data, resources);
  if (!output.ok()) return output.status();
  EngineOutput out = std::move(output).value();

  std::shared_ptr<SkySnapshot> snap(new SkySnapshot());
  snap->skyline_ = std::move(out.report.skyline);
  snap->scores_ = std::move(out.domination_scores);
  snap->signatures_ = std::move(out.signatures);
  snap->seed_ = config.seed;
  snap->info_.plan = out.report.plan;
  snap->info_.plan_explain = std::move(out.report.plan_explain);
  snap->info_.skyline_phase = out.report.skyline_phase;
  snap->info_.fingerprint_phase = out.report.fingerprint_phase;
  snap->info_.io = ctx.io_stats();
  snap->tiles_ = MaterializeTiles(data, snap->skyline_);
  snap->Freeze();
  return std::shared_ptr<const SkySnapshot>(std::move(snap));
}

Result<std::shared_ptr<const SkySnapshot>> SkySnapshot::Adopt(
    std::vector<RowId> skyline, std::vector<uint64_t> domination_scores,
    SignatureMatrix signatures, uint64_t seed, const DataSet* data) {
  // Without the dataset the universe size is unknown; range-check against
  // the widest possible id space and rely on ascending/duplicate checks.
  const size_t n = data != nullptr ? data->size()
                                   : static_cast<size_t>(std::numeric_limits<RowId>::max());
  SKYDIVER_RETURN_NOT_OK(ValidateSkylineRows(skyline, n));
  const size_t m = skyline.size();
  if (domination_scores.size() != m) {
    return Status::InvalidArgument(
        "domination score count " + std::to_string(domination_scores.size()) +
        " does not match skyline cardinality " + std::to_string(m));
  }
  if (signatures.columns() != m) {
    return Status::InvalidArgument("signature matrix has " +
                                   std::to_string(signatures.columns()) +
                                   " columns for a skyline of " + std::to_string(m));
  }
  if (signatures.signature_size() == 0) {
    return Status::InvalidArgument("signature size must be positive");
  }

  std::shared_ptr<SkySnapshot> snap(new SkySnapshot());
  snap->skyline_ = std::move(skyline);
  snap->scores_ = std::move(domination_scores);
  snap->signatures_ = std::move(signatures);
  snap->seed_ = seed;
  snap->info_.plan.skyline = SkylineBackend::kPrecomputed;
  snap->info_.plan.select = SelectBackend::kNone;
  snap->info_.plan_explain = "adopted snapshot (externally produced fingerprints)";
  if (data != nullptr) snap->tiles_ = MaterializeTiles(*data, snap->skyline_);
  snap->Freeze();
  return std::shared_ptr<const SkySnapshot>(std::move(snap));
}

void SkySnapshot::Freeze() {
  tiles_.Freeze();
  lsh_cache_ = std::make_unique<LshIndexCache>(signatures_.MemoryBytes());
  frozen_ = true;
}

Result<std::shared_ptr<const LshIndex>> SkySnapshot::LshIndexFor(const LshParams& banding,
                                                                 bool* built) const {
  SKYDIVER_CHECK(frozen_, "LshIndexFor on an unfrozen snapshot");
  return lsh_cache_->GetOrBuild(signatures_, banding, BandingSeed(seed_, banding, query()),
                                built);
}

size_t SkySnapshot::lsh_cache_bytes() const { return lsh_cache_->bytes(); }

Result<QueryResult> SkySnapshot::Select(const QuerySpec& spec, QueryContext& ctx) const {
  auto plan = Planner::ResolveSelect(spec, signatures_.signature_size());
  if (!plan.ok()) return plan.status();
  return Select(spec, plan.value(), ctx);
}

Result<QueryResult> SkySnapshot::Select(const QuerySpec& spec, const SelectPlan& plan,
                                        QueryContext& ctx) const {
  SKYDIVER_CHECK(frozen_, "Select on an unfrozen snapshot");
  const size_t m = skyline_.size();
  if (spec.k > m) {
    return Status::InvalidArgument("k = " + std::to_string(spec.k) +
                                   " exceeds skyline cardinality m = " +
                                   std::to_string(m));
  }

  QueryResult result;
  PhaseMetrics metrics;
  SKYDIVER_RETURN_NOT_OK(ctx.RunStage("select", &metrics, [&](PhaseMetrics*) -> Status {
    // LSH reads share this snapshot's index for the resolved banding.
    std::shared_ptr<const LshIndex> index;
    if (plan.backend == SelectBackend::kLsh) {
      bool built = false;
      auto cached = LshIndexFor(plan.lsh, &built);
      if (!cached.ok()) return cached.status();
      index = std::move(cached).value();
      if (built) ctx.CountLshIndexBuild();
      result.lsh_memory_bytes = index->MemoryBytes();
    }
    // Morsel-parallel when the runtime has a pool; bit-identical to the
    // serial scan, so cached results and serial/concurrent parity hold.
    auto selection = SelectFromFingerprints(plan.backend, spec.k, signatures_, scores_,
                                            index.get(), ctx.pool());
    if (!selection.ok()) return selection.status();
    result.selected = std::move(selection.value().selected);
    result.objective = selection.value().min_pairwise;
    result.rows.reserve(result.selected.size());
    for (size_t idx : result.selected) result.rows.push_back(skyline_[idx]);
    return Status::OK();
  }));
  return result;
}

}  // namespace skydiver
