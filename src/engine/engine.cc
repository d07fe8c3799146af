#include "engine/engine.h"

#include <algorithm>
#include <memory>
#include <optional>

#include "engine/planner.h"
#include "engine/snapshot.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "skyline/skyline.h"

namespace skydiver {

namespace {

// Mutable state threaded through the stages of one execution.
struct PipelineState {
  const SkyDiverConfig& config;
  const DataSet& data;
  const PlanResources& res;
  const MinHashFamily family;
  // Query-scoped view every skyline backend computes over (identity for
  // unshaped runs — bit-identical to the historical full-space paths).
  const DataView view;
  EngineOutput out;
};

// One pipeline stage. Stages read and extend PipelineState; they fill
// `metrics->io` themselves (CPU time is measured by QueryContext).
class Stage {
 public:
  virtual ~Stage() = default;
  virtual const char* name() const = 0;
  virtual Status Run(QueryContext& ctx, PipelineState& state, PhaseMetrics* metrics) = 0;
};

// Computes (or adopts) the skyline rows and charges the phase's I/O.
class SkylineStage : public Stage {
 public:
  SkylineStage(SkylineBackend backend, DomKernel kernel, size_t morsel_rows)
      : backend_(backend), kernel_(kernel), morsel_rows_(morsel_rows) {}
  const char* name() const override { return "skyline"; }

  Status Run(QueryContext& ctx, PipelineState& state, PhaseMetrics* metrics) override {
    auto& skyline = state.out.report.skyline;
    switch (backend_) {
      case SkylineBackend::kPrecomputed: {
        skyline = *state.res.precomputed_skyline;
        std::sort(skyline.begin(), skyline.end());
        // Caller-supplied rows skip the computation but not the scrutiny:
        // out-of-range or duplicate ids would corrupt the fingerprints.
        return ValidateSkylineRows(skyline, state.data.size());
      }
      case SkylineBackend::kSfs: {
        // Pooled or not, the claims together read the data file once.
        skyline = SkylineSFS(state.view, kernel_, ctx.pool(), morsel_rows_).rows;
        ChargeSequentialScan(state, metrics);
        return Status::OK();
      }
      case SkylineBackend::kSharded: {
        skyline =
            SkylineSharded(state.view, state.view.query().shards, kernel_, ctx.pool())
                .rows;
        ChargeSequentialScan(state, metrics);
        return Status::OK();
      }
      case SkylineBackend::kBbs:
        return RunBbs(state, *state.res.tree, metrics);
      case SkylineBackend::kBbsDisk:
        return RunBbs(state, *state.res.disk_tree, metrics);
    }
    return Status::Internal("unknown skyline backend");
  }

 private:
  static void ChargeSequentialScan(const PipelineState& state, PhaseMetrics* metrics) {
    const uint64_t pages =
        SequentialScanPages(state.data.size(), state.data.dims(), 4096);
    metrics->io.page_reads = pages;
    metrics->io.page_faults = pages;
  }

  template <typename Tree>
  Status RunBbs(PipelineState& state, const Tree& tree, PhaseMetrics* metrics) {
    const IoStats before = tree.io_stats();
    auto result = SkylineBBS(state.view, tree, kernel_);
    if (!result.ok()) return result.status();
    state.out.report.skyline = std::move(result.value().rows);
    const IoStats after = tree.io_stats();
    metrics->io.page_reads = after.page_reads - before.page_reads;
    metrics->io.page_faults = after.page_faults - before.page_faults;
    return Status::OK();
  }

  SkylineBackend backend_;
  DomKernel kernel_;
  size_t morsel_rows_;
};

// Builds the MinHash signatures and exact domination scores (Phase 1).
// Every backend takes the plan's kernel and the context's pool: the IF
// pass sweeps corner-pruned skyline blocks with it, the IB descent
// classifies inner-entry corners and leaf points with it over per-node
// candidate tiles.
class FingerprintStage : public Stage {
 public:
  FingerprintStage(FingerprintBackend backend, DomKernel kernel, size_t morsel_rows)
      : backend_(backend), kernel_(kernel), morsel_rows_(morsel_rows) {}
  const char* name() const override { return "fingerprint"; }

  Status Run(QueryContext& ctx, PipelineState& state, PhaseMetrics* metrics) override {
    const auto& skyline = state.out.report.skyline;
    Result<SigGenResult> result = Status::Internal("unset");
    ThreadPool* pool = ctx.pool();
    switch (backend_) {
      case FingerprintBackend::kSigGenIf:
        result = SigGenIF(state.data, skyline, state.family, kernel_, pool, morsel_rows_);
        break;
      case FingerprintBackend::kSigGenIb:
        result =
            SigGenIB(state.data, skyline, state.family, *state.res.tree, kernel_, pool);
        break;
      case FingerprintBackend::kSigGenIbDisk:
        result = SigGenIB(state.data, skyline, state.family, *state.res.disk_tree,
                          kernel_, pool);
        break;
    }
    if (!result.ok()) return result.status();
    state.out.signatures = std::move(result.value().signatures);
    state.out.domination_scores = std::move(result.value().domination_scores);
    state.out.report.signature_memory_bytes = state.out.signatures.MemoryBytes();
    metrics->io = result.value().io;
    return Status::OK();
  }

 private:
  FingerprintBackend backend_;
  DomKernel kernel_;
  size_t morsel_rows_;
};

// Greedy (or exact) k-MMDP selection over the fingerprints (Phase 2),
// through the selection path serving uses (SelectFromFingerprints), with
// the LSH banding salted exactly as a snapshot of this run would salt it.
class SelectStage : public Stage {
 public:
  SelectStage(SelectBackend backend, size_t morsel_rows)
      : backend_(backend), morsel_rows_(morsel_rows) {}
  const char* name() const override { return "select"; }

  Status Run(QueryContext& ctx, PipelineState& state, PhaseMetrics* metrics) override {
    (void)metrics;  // selection is CPU-only
    auto& report = state.out.report;
    const SignatureMatrix& signatures = state.out.signatures;
    if (backend_ == SelectBackend::kNone) return Status::OK();

    std::optional<LshIndex> index;
    if (backend_ == SelectBackend::kLsh) {
      // The batch path and the per-query serving path resolve selection
      // through the same planner hook, so validation cannot drift.
      QuerySpec spec;
      spec.mode = state.config.select;
      spec.k = state.config.k;
      spec.lsh_threshold = state.config.lsh_threshold;
      spec.lsh_buckets = state.config.lsh_buckets;
      auto plan = Planner::ResolveSelect(spec, state.config.signature_size);
      if (!plan.ok()) return plan.status();
      const LshParams& banding = plan.value().lsh;
      auto built = LshIndex::Build(signatures, banding,
                                   BandingSeed(state.config.seed, banding, report.plan.query));
      if (!built.ok()) return built.status();
      index = std::move(built).value();
      report.lsh_memory_bytes = index->MemoryBytes();
    }
    auto selection = SelectFromFingerprints(
        backend_, state.config.k, signatures, state.out.domination_scores,
        index ? &*index : nullptr, ctx.pool(), morsel_rows_);
    if (!selection.ok()) return selection.status();
    report.selected = std::move(selection.value().selected);
    report.objective = selection.value().min_pairwise;
    report.selected_rows.reserve(report.selected.size());
    for (size_t idx : report.selected) {
      report.selected_rows.push_back(report.skyline[idx]);
    }
    return Status::OK();
  }

 private:
  SelectBackend backend_;
  size_t morsel_rows_;
};

// Validates the data-dependent invariants the planner cannot see.
Status ValidateInputs(const Plan& plan, const DataSet& data,
                      const PlanResources& res) {
  if (data.empty()) return Status::InvalidArgument("dataset is empty");
  if (res.tree != nullptr &&
      (res.tree->dims() != data.dims() || res.tree->size() != data.size())) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  if (res.disk_tree != nullptr &&
      (res.disk_tree->dims() != data.dims() || res.disk_tree->size() != data.size())) {
    return Status::InvalidArgument("R-tree does not index the given dataset");
  }
  const bool needs_precomputed = plan.skyline == SkylineBackend::kPrecomputed;
  if (needs_precomputed && res.precomputed_skyline == nullptr) {
    return Status::Internal("plan expects a precomputed skyline but none was supplied");
  }
  return Status::OK();
}

}  // namespace

Result<EngineOutput> Engine::Execute(QueryContext& ctx, const Plan& plan,
                                     const SkyDiverConfig& config, const DataSet& data,
                                     const PlanResources& resources) {
  DebugValidatePlan(plan, resources);
  SKYDIVER_RETURN_NOT_OK(ValidateInputs(plan, data, resources));

  // Finish query normalization against the concrete dimensionality (the
  // planner only ran the data-independent shape checks).
  auto query = NormalizeQuery(plan.query, data.dims());
  if (!query.ok()) return query.status();

  PipelineState state{
      config, data, resources,
      MinHashFamily::Create(config.signature_size, data.size(), config.seed),
      DataView(data, query.value()), EngineOutput{}};
  state.out.report.plan = plan;
  state.out.report.plan.query = std::move(query).value();
  state.out.report.plan_explain = ExplainPlan(state.out.report.plan, config);

  SkylineStage skyline_stage(plan.skyline, plan.kernel, plan.morsel_rows);
  SKYDIVER_RETURN_NOT_OK(ctx.RunStage(skyline_stage.name(),
                                      &state.out.report.skyline_phase,
                                      [&](PhaseMetrics* metrics) {
                                        return skyline_stage.Run(ctx, state, metrics);
                                      }));

  // A constraint box may exclude every point; downstream fingerprinting
  // requires a non-empty skyline, so fail with the real cause here.
  if (state.out.report.skyline.empty()) {
    return Status::InvalidArgument(
        "the query's constraint box excludes every point: the skyline is "
        "empty");
  }

  // k is only meaningful when a selection will run (sessions defer it).
  const size_t m = state.out.report.skyline.size();
  if (plan.select != SelectBackend::kNone && config.k > m) {
    return Status::InvalidArgument("k = " + std::to_string(config.k) +
                                   " exceeds skyline cardinality m = " +
                                   std::to_string(m));
  }

  FingerprintStage fingerprint_stage(plan.fingerprint, plan.kernel, plan.morsel_rows);
  SKYDIVER_RETURN_NOT_OK(ctx.RunStage(
      fingerprint_stage.name(), &state.out.report.fingerprint_phase,
      [&](PhaseMetrics* metrics) { return fingerprint_stage.Run(ctx, state, metrics); }));

  if (plan.select != SelectBackend::kNone) {
    SelectStage select_stage(plan.select, plan.morsel_rows);
    SKYDIVER_RETURN_NOT_OK(ctx.RunStage(
        select_stage.name(), &state.out.report.selection_phase,
        [&](PhaseMetrics* metrics) { return select_stage.Run(ctx, state, metrics); }));
  }
  return std::move(state.out);
}

}  // namespace skydiver
