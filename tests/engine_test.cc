// Tests for the execution engine: planner backend resolution, ExplainPlan,
// QueryContext accounting, and — the load-bearing part — plan parity: the
// engine-driven SkyDiver::Run must reproduce the legacy hand-wired
// pipeline bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "engine/engine.h"
#include "engine/query_context.h"
#include "engine/plan.h"
#include "engine/planner.h"
#include "engine/snapshot.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "parallel/morsel.h"
#include "parallel/thread_pool.h"
#include "rtree/rtree.h"
#include "skydiver/session.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace skydiver {
namespace {

// ---------------------------------------------------------------------------
// Planner

TEST(PlannerTest, SerialIndexFreePlan) {
  SkyDiverConfig config;
  auto plan = Planner::Resolve(config, PlanResources{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->skyline, SkylineBackend::kSfs);
  EXPECT_EQ(plan->fingerprint, FingerprintBackend::kSigGenIf);
  EXPECT_EQ(plan->select, SelectBackend::kMinHash);
  EXPECT_EQ(plan->threads, 0u);
}

TEST(PlannerTest, PooledConfigPicksParallelBackends) {
  // The thread count is a plan property, not a backend: a pooled config
  // resolves to the serial plan's backends plus the pool width and the
  // morsel size the stages run with.
  SkyDiverConfig config;
  config.threads = 4;
  auto plan = Planner::Resolve(config, PlanResources{});
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->skyline, SkylineBackend::kSfs);
  EXPECT_EQ(plan->fingerprint, FingerprintBackend::kSigGenIf);
  EXPECT_EQ(plan->threads, 4u);
  EXPECT_EQ(plan->morsel_rows, kDefaultMorselRows);
}

TEST(PlannerTest, TreePicksIndexedBackends) {
  const DataSet data = GenerateIndependent(500, 3, 3);
  const auto tree = RTree::BulkLoad(data).value();
  PlanResources resources;
  resources.tree = &tree;

  SkyDiverConfig config;
  auto serial = Planner::Resolve(config, resources);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(serial->skyline, SkylineBackend::kBbs);
  EXPECT_EQ(serial->fingerprint, FingerprintBackend::kSigGenIb);

  config.threads = 2;
  auto pooled = Planner::Resolve(config, resources);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(pooled->skyline, SkylineBackend::kBbs);
  EXPECT_EQ(pooled->fingerprint, FingerprintBackend::kSigGenIb);
  EXPECT_EQ(pooled->threads, 2u);
}

TEST(PlannerTest, IndexFreeOverrideKeepsBbsSkyline) {
  const DataSet data = GenerateIndependent(500, 3, 5);
  const auto tree = RTree::BulkLoad(data).value();
  PlanResources resources;
  resources.tree = &tree;
  SkyDiverConfig config;
  config.siggen = SigGenMode::kIndexFree;
  auto plan = Planner::Resolve(config, resources);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->skyline, SkylineBackend::kBbs);
  EXPECT_EQ(plan->fingerprint, FingerprintBackend::kSigGenIf);
}

TEST(PlannerTest, PrecomputedSkylineAndSelectionModes) {
  const std::vector<RowId> rows{1, 2, 3};
  PlanResources resources;
  resources.precomputed_skyline = &rows;
  SkyDiverConfig config;
  config.select = SelectMode::kLsh;
  auto plan = Planner::Resolve(config, resources);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->skyline, SkylineBackend::kPrecomputed);
  EXPECT_EQ(plan->select, SelectBackend::kLsh);

  config.select = SelectMode::kBruteForce;
  EXPECT_EQ(Planner::Resolve(config, resources)->select, SelectBackend::kBruteForce);

  auto session_plan = Planner::Resolve(config, resources, /*run_selection=*/false);
  ASSERT_TRUE(session_plan.ok());
  EXPECT_EQ(session_plan->select, SelectBackend::kNone);
}

TEST(PlannerTest, RejectsInvalidConfigs) {
  SkyDiverConfig config;
  config.k = 0;
  EXPECT_TRUE(Planner::Resolve(config, PlanResources{}).status().IsInvalidArgument());
  // ... but k is ignored for fingerprint-only plans.
  EXPECT_TRUE(Planner::Resolve(config, PlanResources{}, false).ok());

  config = SkyDiverConfig{};
  config.signature_size = 0;
  EXPECT_TRUE(Planner::Resolve(config, PlanResources{}).status().IsInvalidArgument());

  config = SkyDiverConfig{};
  config.threads = Planner::kMaxThreads + 1;
  EXPECT_TRUE(Planner::Resolve(config, PlanResources{}).status().IsInvalidArgument());

  config = SkyDiverConfig{};
  config.siggen = SigGenMode::kIndexBased;
  EXPECT_TRUE(Planner::Resolve(config, PlanResources{}).status().IsInvalidArgument());
}

TEST(PlannerTest, ExplainPlanNamesEveryStage) {
  SkyDiverConfig config;
  config.threads = 2;
  const auto plan = Planner::Resolve(config, PlanResources{}).value();
  const std::string text = ExplainPlan(plan, config);
  EXPECT_NE(text.find("sfs"), std::string::npos) << text;
  EXPECT_NE(text.find("morsel-local skylines"), std::string::npos) << text;
  EXPECT_NE(text.find("siggen-if"), std::string::npos) << text;
  EXPECT_NE(text.find("morsel slots min-merged"), std::string::npos) << text;
  EXPECT_NE(text.find("greedy-minhash"), std::string::npos) << text;
  EXPECT_NE(text.find("threads=2"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Plan parity: engine output == the legacy hand-wired pipeline, bit for bit.

// The pre-refactor SkyDiver::Run serial pipeline, composed directly from
// the primitives it used to call (SFS -> SigGen-IF -> greedy selection).
struct LegacyOutput {
  std::vector<RowId> skyline;
  std::vector<size_t> selected;
  std::vector<RowId> selected_rows;
  double objective = 0.0;
};

LegacyOutput LegacyRun(const DataSet& data, const SkyDiverConfig& config,
                       ThreadPool* pool) {
  LegacyOutput out;
  SigGenResult sig;
  const auto family =
      MinHashFamily::Create(config.signature_size, data.size(), config.seed);
  out.skyline = SkylineSFS(data, DomKernel::kSimd, pool).rows;
  sig = SigGenIF(data, out.skyline, family, DomKernel::kSimd, pool).value();
  const size_t m = out.skyline.size();
  auto score = [&](size_t j) { return static_cast<double>(sig.domination_scores[j]); };
  DispersionResult selection;
  if (config.select == SelectMode::kMinHash) {
    auto distance = [&](size_t a, size_t b) {
      return sig.signatures.EstimatedDistance(a, b);
    };
    selection = SelectDiverseSet(m, config.k, distance, score).value();
  } else {
    const auto params = ChooseZones(config.signature_size, config.lsh_threshold,
                                    config.lsh_buckets)
                            .value();
    // Batch LSH is salted like serving: by (seed, resolved banding, shape).
    const auto index =
        LshIndex::Build(sig.signatures, params, BandingSeed(config.seed, params, SkyQuery{}))
            .value();
    auto distance = [&](size_t a, size_t b) { return index.Distance(a, b); };
    selection = SelectDiverseSet(m, config.k, distance, score).value();
  }
  out.selected = std::move(selection.selected);
  out.objective = selection.min_pairwise;
  for (size_t idx : out.selected) out.selected_rows.push_back(out.skyline[idx]);
  return out;
}

struct ParityCase {
  WorkloadKind workload;
  SelectMode select;
  size_t threads;  // 0 = serial reference; 1+ = pooled
};

class PlanParityTest : public testing::TestWithParam<ParityCase> {};

TEST_P(PlanParityTest, EngineMatchesLegacyPipelineBitForBit) {
  const ParityCase& c = GetParam();
  const DataSet data = GenerateWorkload(c.workload, 4000, 4, 1234).value();

  SkyDiverConfig config;
  // Correlated workloads have tiny skylines; keep k feasible everywhere.
  config.k = std::min<size_t>(8, SkylineSFS(data).rows.size());
  config.signature_size = 64;
  config.select = c.select;
  config.threads = c.threads;

  ThreadPool reference_pool(c.threads == 0 ? 1 : c.threads);
  const LegacyOutput legacy =
      LegacyRun(data, config, c.threads == 0 ? nullptr : &reference_pool);

  const auto report = SkyDiver::Run(data, config);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->skyline, legacy.skyline);
  EXPECT_EQ(report->selected, legacy.selected);
  EXPECT_EQ(report->selected_rows, legacy.selected_rows);
  EXPECT_DOUBLE_EQ(report->objective, legacy.objective);
  EXPECT_FALSE(report->plan_explain.empty());
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsTimesPlans, PlanParityTest,
    testing::Values(
        // Six serial (distribution x plan) combinations...
        ParityCase{WorkloadKind::kIndependent, SelectMode::kMinHash, 0},
        ParityCase{WorkloadKind::kCorrelated, SelectMode::kMinHash, 0},
        ParityCase{WorkloadKind::kAnticorrelated, SelectMode::kMinHash, 0},
        ParityCase{WorkloadKind::kIndependent, SelectMode::kLsh, 0},
        ParityCase{WorkloadKind::kCorrelated, SelectMode::kLsh, 0},
        ParityCase{WorkloadKind::kAnticorrelated, SelectMode::kLsh, 0},
        // ...and pooled plans against the pooled SigGen-IF min-merge path.
        ParityCase{WorkloadKind::kIndependent, SelectMode::kMinHash, 3},
        ParityCase{WorkloadKind::kCorrelated, SelectMode::kMinHash, 3},
        ParityCase{WorkloadKind::kAnticorrelated, SelectMode::kMinHash, 3}),
    [](const testing::TestParamInfo<ParityCase>& info) {
      std::string name = WorkloadKindName(info.param.workload);
      name += info.param.select == SelectMode::kMinHash ? "_mh" : "_lsh";
      name += info.param.threads == 0 ? "_serial" : "_pooled";
      return name;
    });

// Batch runs and serving share one selection path: SkyDiver::Run with
// select = kLsh returns the picks SkySnapshot::Select gives for the same
// spec, unshaped and shaped, serial and pooled — both salt the banding by
// (seed, resolved banding, shape) and run the same greedy.
TEST(EngineTest, BatchLshPicksEqualSnapshotSelect) {
  for (const WorkloadKind kind : {WorkloadKind::kIndependent, WorkloadKind::kCorrelated,
                                  WorkloadKind::kAnticorrelated}) {
    const DataSet data = GenerateWorkload(kind, 3000, 4, 77).value();
    for (const bool shaped : {false, true}) {
      for (const size_t threads : {size_t{0}, size_t{3}}) {
        SkyDiverConfig config;
        config.signature_size = 64;
        config.select = SelectMode::kLsh;
        config.lsh_threshold = 0.3;
        config.lsh_buckets = 16;
        config.threads = threads;
        if (shaped) {
          config.query.lo.assign(4, -std::numeric_limits<Coord>::infinity());
          config.query.hi.assign(4, std::numeric_limits<Coord>::infinity());
          config.query.hi[0] = 0.8;
        }
        const auto snapshot = SkySnapshot::Build(data, config);
        ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
        config.k = std::min<size_t>(8, (*snapshot)->skyline().size());
        const auto report = SkyDiver::Run(data, config);
        ASSERT_TRUE(report.ok()) << report.status().ToString();

        QuerySpec spec;
        spec.mode = SelectMode::kLsh;
        spec.k = config.k;
        spec.lsh_threshold = config.lsh_threshold;
        spec.lsh_buckets = config.lsh_buckets;
        spec.query = config.query;
        QueryContext ctx(Runtime::Create(0), CostModel{}, 0);
        const auto served = (*snapshot)->Select(spec, ctx);
        ASSERT_TRUE(served.ok()) << served.status().ToString();
        const std::string where = std::string(WorkloadKindName(kind)) +
                                  (shaped ? " shaped" : "") +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(served->selected, report->selected) << where;
        EXPECT_EQ(served->rows, report->selected_rows) << where;
        EXPECT_EQ(served->objective, report->objective) << where;
        EXPECT_EQ(served->lsh_memory_bytes, report->lsh_memory_bytes) << where;
      }
    }
  }
}

// Pooled and serial MH plans agree exactly: the pooled SFS returns the
// serial rows and the pooled SigGen-IF min-merges to the identical matrix,
// so the whole pipeline is thread-count invariant.
TEST(EngineTest, PooledPlanIsBitIdenticalToSerialPlan) {
  const DataSet data = GenerateIndependent(5000, 4, 21);
  SkyDiverConfig serial;
  serial.k = 10;
  SkyDiverConfig pooled = serial;
  pooled.threads = 4;
  const auto a = SkyDiver::Run(data, serial);
  const auto b = SkyDiver::Run(data, pooled);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->skyline, b->skyline);
  EXPECT_EQ(a->selected_rows, b->selected_rows);
  EXPECT_DOUBLE_EQ(a->objective, b->objective);
  EXPECT_EQ(a->fingerprint_phase.io.page_faults, b->fingerprint_phase.io.page_faults);
}

// ---------------------------------------------------------------------------
// QueryContext accounting

TEST(EngineTest, ContextRecordsPhasesTraceAndCumulativeIo) {
  const DataSet data = GenerateIndependent(2000, 3, 31);
  SkyDiverConfig config;
  config.k = 5;
  const PlanResources resources;
  const auto plan = Planner::Resolve(config, resources).value();
  QueryContext ctx(config);
  const auto output = Engine::Execute(ctx, plan, config, data, resources);
  ASSERT_TRUE(output.ok()) << output.status().ToString();

  ASSERT_EQ(ctx.phases().size(), 3u);
  EXPECT_EQ(ctx.phases()[0].first, "skyline");
  EXPECT_EQ(ctx.phases()[1].first, "fingerprint");
  EXPECT_EQ(ctx.phases()[2].first, "select");
  ASSERT_EQ(ctx.trace().size(), 3u);
  IoStats sum;
  for (const auto& [name, metrics] : ctx.phases()) sum += metrics.io;
  EXPECT_EQ(ctx.io_stats().page_reads, sum.page_reads);
  EXPECT_EQ(ctx.io_stats().page_faults, sum.page_faults);
  EXPECT_GT(ctx.io_stats().page_faults, 0u);  // IF charges sequential faults
  // The report's phase metrics are the context's, verbatim.
  EXPECT_EQ(output.value().report.fingerprint_phase.io.page_faults,
            ctx.phases()[1].second.io.page_faults);
  // Serial context never spawns a pool.
  EXPECT_EQ(ctx.threads(), 0u);
}

TEST(EngineTest, SessionCreateMatchesEngineFingerprints) {
  const DataSet data = GenerateIndependent(2500, 3, 41);
  const auto session = SkyDiverSession::Create(data, 32, 7).value();
  // Direct primitive composition (the pre-refactor Create body).
  const auto skyline = SkylineSFS(data).rows;
  const auto family = MinHashFamily::Create(32, data.size(), 7);
  const auto sig = SigGenIF(data, skyline, family).value();
  EXPECT_EQ(session.skyline(), skyline);
  EXPECT_EQ(session.domination_scores(), sig.domination_scores);
  for (size_t j = 0; j < skyline.size(); ++j) {
    for (size_t i = 0; i < 32; ++i) {
      ASSERT_EQ(session.signatures().at(j, i), sig.signatures.at(j, i));
    }
  }
}

TEST(EngineTest, BruteForceSelectFindsOptimumOnSmallSkyline) {
  const DataSet data = GenerateAnticorrelated(300, 3, 51);
  SkyDiverConfig greedy_config;
  greedy_config.k = 3;
  greedy_config.signature_size = 32;
  SkyDiverConfig exact_config = greedy_config;
  exact_config.select = SelectMode::kBruteForce;
  const auto greedy = SkyDiver::Run(data, greedy_config);
  const auto exact = SkyDiver::Run(data, exact_config);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  // The exact optimum is at least the greedy objective (2-approx bound).
  EXPECT_GE(exact->objective, greedy->objective);
  EXPECT_EQ(exact->selected_rows.size(), 3u);
}

}  // namespace
}  // namespace skydiver
