// skybench — SkyDiver's end-to-end benchmark.
//
//   skybench --workload <if-ant|ib-disk|serve-mixed> --seed <n>
//            --seconds <s> --trace <0|1>
//
// One process generates its inputs from --seed, sets up (data, tree, page
// file, identity snapshot), runs a timed phase of about --seconds, checks
// every output against the independent checkers in checks.h, and prints
// one JSON object as its last stdout line:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate run that
// calls each src/ module's public functions directly, wraps its own spans
// and counters around them, proves the layer outputs bit-identical to the
// untraced pipeline, and reports the per-layer metrics. Progress and check
// failures go to stderr. See README.md for the workloads and metric map.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unistd.h>
#include <vector>

#include "checks.h"
#include "common/io_stats.h"
#include "datagen/generators.h"
#include "diversify/dispersion.h"
#include "engine/snapshot.h"
#include "kernels/dominance_kernel.h"
#include "kernels/tile_view.h"
#include "lsh/lsh.h"
#include "minhash/siggen.h"
#include "parallel/parallel_ops.h"
#include "parallel/thread_pool.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "serve/serve.h"
#include "skydiver/skydiver.h"
#include "skyline/skyline.h"

namespace {

using namespace skydiver;
using Clock = std::chrono::steady_clock;

// Captured during static initialisation, before main: the cold set-up is
// timed from here.
const Clock::time_point kProcessStart = Clock::now();

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads

enum class Entry {
  kIndexFree,   // SkyDiver::Run without a tree (SFS + SigGen-IF), pooled
  kDisk,        // SkyDiver::RunOnDisk over the page file, serial
  kMemoryTree,  // SkyDiver::Run over the in-memory aggregate R*-tree, serial
};

struct Workload {
  const char* name;
  WorkloadKind kind;
  RowId base_rows;          // the seed adds 0..127 rows
  Dim dims;
  Entry entry;
  size_t pipeline_threads;  // pool workers of the batch pipeline
  size_t k;                 // points the pipeline selects
  double serve_share;       // share of --seconds spent serving
  double box_cut;           // upper bound on the two columns a shape constrains
};

// Sizes keep one pipeline run near a second, so each process takes a
// median over many repetitions (see README.md, "Noise").
const Workload kWorkloads[] = {
    {"if-ant", WorkloadKind::kAnticorrelated, 30000, 6, Entry::kIndexFree, 2, 10, 0.4,
     0.35},
    {"ib-disk", WorkloadKind::kIndependent, 30000, 8, Entry::kDisk, 0, 20, 0.4, 0.25},
    {"serve-mixed", WorkloadKind::kAnticorrelated, 30000, 6, Entry::kMemoryTree, 0, 10,
     0.65, 0.35},
};

constexpr size_t kClients = 2;
constexpr double kCacheFraction = 0.2;
constexpr size_t kShapes = 10;  // > the server's 8 snapshot slots

struct Args {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

// Everything the set-up produces.
struct Inputs {
  DataSet data{1};
  std::optional<RTree> tree;
  std::string page_path;
  std::optional<DiskRTree> disk;  // the server's tree on ib-disk
  SkyDiverConfig pipeline_config;
  SkyDiverConfig serve_config;
  PlanResources serve_resources;
  std::unique_ptr<SkyServer> server;

  Inputs() = default;
  Inputs(const Inputs&) = delete;
  Inputs& operator=(const Inputs&) = delete;
  ~Inputs() {
    server.reset();
    disk.reset();
    if (!page_path.empty()) std::filesystem::remove(page_path);
  }
};

DiskTreeOptions DiskOptions() {
  DiskTreeOptions opts;
  opts.cache_fraction = kCacheFraction;
  opts.backend = DiskBackend::kPread;
  opts.prefetch_pool = nullptr;
  return opts;
}

RowId RowsFor(const Args& a) {
  return a.workload->base_rows + static_cast<RowId>(skybench::Mix(a.seed ^ 0x5eed) % 128);
}

uint64_t DataSeed(const Args& a) { return skybench::Mix(a.seed * 31 + 7); }

[[noreturn]] void Fail(const std::string& what) {
  std::fprintf(stderr, "skybench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Fail(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

void MustOk(const Status& s, const char* what) {
  if (!s.ok()) Fail(std::string(what) + ": " + s.ToString());
}

std::string PagePath(const Workload& w) {
  std::filesystem::create_directories(".bench_build/pages");
  return ".bench_build/pages/" + std::string(w.name) + "." + std::to_string(getpid()) +
         ".pages";
}

// Set-up steps, each timed for the traced run.
struct SetupTimes {
  double datagen = 0, bulkload = 0, write = 0, open = 0, snapshot = 0;
};

void Setup(const Args& a, Inputs& in, SetupTimes* times, bool always_index) {
  const Workload& w = *a.workload;
  auto t0 = Clock::now();
  in.data = Must(GenerateWorkload(w.kind, RowsFor(a), w.dims, DataSeed(a)), "datagen");
  times->datagen = Since(t0);

  in.pipeline_config.k = w.k;
  in.pipeline_config.threads = w.pipeline_threads;
  in.pipeline_config.seed = a.seed;
  in.serve_config = in.pipeline_config;
  in.serve_config.threads = 0;  // the two clients are the serving load

  if (w.entry != Entry::kIndexFree || always_index) {
    t0 = Clock::now();
    RTreeConfig tc;
    tc.cache_fraction = kCacheFraction;
    in.tree.emplace(Must(RTree::BulkLoad(in.data, tc), "bulk load"));
    times->bulkload = Since(t0);
    in.page_path = PagePath(w);
    t0 = Clock::now();
    MustOk(DiskRTree::Write(*in.tree, in.page_path), "page-file write");
    times->write = Since(t0);
    t0 = Clock::now();
    in.disk.emplace(Must(DiskRTree::Open(in.page_path, DiskOptions()), "page-file open"));
    times->open = Since(t0);
  }
  if (w.entry == Entry::kDisk) in.serve_resources.disk_tree = &*in.disk;
  if (w.entry == Entry::kMemoryTree) in.serve_resources.tree = &*in.tree;

  t0 = Clock::now();
  in.server = Must(SkyServer::Create(in.data, in.serve_config, in.serve_resources),
                   "identity snapshot build");
  times->snapshot = Since(t0);
}

// One full skyline -> fingerprint -> select run through the public entry
// point, with a fresh page cache.
Result<SkyDiverReport> RunPipeline(const Workload& w, Inputs& in) {
  switch (w.entry) {
    case Entry::kIndexFree:
      return SkyDiver::Run(in.data, in.pipeline_config);
    case Entry::kDisk: {
      auto tree = DiskRTree::Open(in.page_path, DiskOptions());
      if (!tree.ok()) return tree.status();
      return SkyDiver::RunOnDisk(in.data, in.pipeline_config, tree.value());
    }
    case Entry::kMemoryTree:
      in.tree->FinalizeCache();
      return SkyDiver::Run(in.data, in.pipeline_config, &*in.tree);
  }
  return Status::Internal("unknown entry");
}

uint64_t Faults(const SkyDiverReport& r) {
  return r.skyline_phase.io.page_faults + r.fingerprint_phase.io.page_faults +
         r.selection_phase.io.page_faults;
}

bool SameOutput(const SkyDiverReport& a, const SkyDiverReport& b) {
  return a.skyline == b.skyline && a.selected == b.selected &&
         a.selected_rows == b.selected_rows && a.objective == b.objective;
}

// ---------------------------------------------------------------------------
// Serving mix. One round is 32 queries in a seeded order:
//    8 hot reads  — 4 identity specs, each twice: result-cache hits after the
//                   warm-up round;
//   22 cold reads — k = 10 LSH identity specs at (ξ, B) = (0.2, 20) whose
//                   thresholds carry offsets far below ChooseZones'
//                   resolution: one banding plan and cost, but a new cache
//                   key every round, so each one computes;
//    2 shaped     — a constraint box on two columns; the round walks 10
//                   shapes two at a time, so each shape returns after the 8
//                   snapshot slots have cycled and its Phase 1 is rebuilt.

enum class SlotKind { kHot, kCold, kShaped };

struct Slot {
  QuerySpec spec;
  SlotKind kind;
  size_t shape = 0;
};

SkyQuery Shape(const Workload& w, size_t s) {
  // The s-th pair (i, j), i < j, of the first columns.
  size_t i = 0, j = 1;
  for (size_t c = 0; c < s; ++c) {
    if (++j == w.dims) j = ++i + 1;
  }
  SkyQuery q;
  q.lo.assign(w.dims, -std::numeric_limits<Coord>::infinity());
  q.hi.assign(w.dims, std::numeric_limits<Coord>::infinity());
  q.hi[i] = w.box_cut;
  q.hi[j] = w.box_cut;
  return q;
}

QuerySpec Lsh(size_t k, double xi, size_t buckets) {
  QuerySpec s;
  s.mode = SelectMode::kLsh;
  s.k = k;
  s.lsh_threshold = xi;
  s.lsh_buckets = buckets;
  return s;
}

std::vector<Slot> Round(const Workload& w, uint64_t seed, size_t r) {
  const double offset = static_cast<double>(r + 1) * 0x1p-30;
  std::vector<Slot> slots;
  std::vector<QuerySpec> hot;
  for (size_t k : {10, 20}) {
    QuerySpec s;
    s.k = k;
    hot.push_back(s);
  }
  hot.push_back(Lsh(20, 0.3, 10));
  hot.push_back(Lsh(10, 0.1, 40));
  for (int twice = 0; twice < 2; ++twice) {
    for (const QuerySpec& s : hot) slots.push_back({s, SlotKind::kHot});
  }
  for (size_t c = 0; c < 22; ++c) {
    const double xi = 0.2 + offset + static_cast<double>(c) * 0x1p-40;
    slots.push_back({Lsh(10, xi, 20), SlotKind::kCold});
  }
  for (size_t s = 0; s < 2; ++s) {
    const size_t shape = (2 * r + s) % kShapes;
    QuerySpec spec = Lsh(10, 0.2 + offset, 20);
    spec.query = Shape(w, shape);
    slots.push_back({spec, SlotKind::kShaped, shape});
  }
  uint64_t h = skybench::Mix(seed ^ (0xc0ffee + r));
  for (size_t i = slots.size(); i > 1; --i) {
    h = skybench::Mix(h);
    std::swap(slots[i - 1], slots[h % i]);
  }
  return slots;
}

// The result-cache identity of a normalized spec.
std::string SpecKey(const QuerySpec& q) {
  return QueryKey(q.query) + "|" + std::to_string(static_cast<int>(q.mode)) + "|" +
         std::to_string(q.k) + "|" + std::to_string(std::bit_cast<uint64_t>(q.lsh_threshold)) +
         "|" + std::to_string(q.lsh_buckets);
}

struct ServeRun {
  std::vector<Slot> slots;                                  // every round, in order
  std::vector<std::shared_ptr<const QueryResult>> results;  // per slot
  std::vector<double> latencies_ms;                         // per slot
  std::vector<size_t> round_of;                             // per slot
  double measured_wall = 0;  // rounds 1.. only
  size_t measured_queries = 0;
  std::vector<double> measured_latencies;
  std::vector<double> cycle_qps;  // one per measured cycle
  ServeStats before_measured;     // counters after the warm-up round
  ServeStats after;
  double cpu_seconds = 0;  // process CPU over the measured rounds
  size_t rounds = 0;
  uint64_t failed = 0;
};

// A cycle is the 5 rounds that walk all 10 shapes once, so every measured
// stretch holds the same queries whatever the time budget.
constexpr size_t kRoundsPerCycle = kShapes / 2;

// Plays the serving mix against one server. Round 0, played on
// construction, warms the caches and is not measured; measured serving
// proceeds in whole cycles.
class Serving {
 public:
  Serving(const Workload& w, SkyServer& server, uint64_t seed)
      : w_(w), server_(server), seed_(seed) {
    Play(0);
    run_.before_measured = server_.stats();
  }

  /// Plays one measured cycle and returns its wall seconds.
  double PlayCycle() {
    const double cpu0 = CpuNow();
    const size_t before = run_.measured_queries;
    double wall = 0;
    for (size_t i = 0; i < kRoundsPerCycle; ++i) wall += Play(next_round_++);
    run_.cpu_seconds += CpuNow() - cpu0;
    run_.measured_wall += wall;
    const size_t answered = run_.measured_queries - before;
    run_.cycle_qps.push_back(wall > 0 ? static_cast<double>(answered) / wall : 0.0);
    return wall;
  }

  size_t cycles() const { return run_.cycle_qps.size(); }

  ServeRun Finish() {
    run_.after = server_.stats();
    return std::move(run_);
  }

 private:
  // Wall seconds of round r, or 0 when it failed.
  double Play(size_t r) {
    const std::vector<Slot> round = Round(w_, seed_, r);
    std::vector<QuerySpec> schedule;
    for (const Slot& s : round) schedule.push_back(s.spec);
    auto report = ServeLoop(server_, schedule, kClients);
    ++run_.rounds;
    if (!report.ok()) {
      std::fprintf(stderr, "serve round %zu failed: %s\n", r,
                   report.status().ToString().c_str());
      if (r >= 1) run_.failed += round.size();
      return 0.0;
    }
    for (size_t i = 0; i < round.size(); ++i) {
      run_.slots.push_back(round[i]);
      run_.results.push_back(report->results[i]);
      run_.latencies_ms.push_back(report->latencies_ms[i]);
      run_.round_of.push_back(r);
    }
    if (r >= 1) {
      run_.measured_queries += round.size();
      run_.measured_latencies.insert(run_.measured_latencies.end(),
                                     report->latencies_ms.begin(),
                                     report->latencies_ms.end());
    }
    return report->wall_seconds;
  }

  const Workload& w_;
  SkyServer& server_;
  uint64_t seed_;
  size_t next_round_ = 1;
  ServeRun run_;
};

double Percentile(std::vector<double> v, size_t num, size_t den) {
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1, v.size() * num / den)];
}

// ---------------------------------------------------------------------------
// Checks shared by both runs.

struct Verdict {
  bool ok = true;
  void Expect(const std::string& problem, const char* check) {
    if (problem.empty()) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", check, problem.c_str());
  }
  void Expect(bool cond, const char* check, const std::string& what) {
    Expect(cond ? std::string() : what, check);
  }
};

MinHashFamily FamilyFor(const Inputs& in) {
  return MinHashFamily::Create(in.pipeline_config.signature_size, in.data.size(),
                               in.pipeline_config.seed);
}

std::vector<RowId> AllRows(const DataSet& data) {
  std::vector<RowId> all(data.size());
  for (RowId r = 0; r < data.size(); ++r) all[r] = r;
  return all;
}

bool SameResult(const QueryResult& a, const QueryResult& b) {
  return a.selected == b.selected && a.rows == b.rows && a.objective == b.objective &&
         a.lsh_memory_bytes == b.lsh_memory_bytes;
}

// Every served result equals a serial, cache-less replay of its spec:
// identity specs against the pinned snapshot, shaped specs against a
// snapshot built apart from the server (whose skyline is itself checked
// against the in-box rows).
void CheckServing(const Workload& w, Inputs& in, const ServeRun& run, Verdict* v) {
  const auto& identity = in.server->snapshot();
  auto serial = Runtime::Create(0);
  std::map<size_t, std::shared_ptr<const SkySnapshot>> shaped;
  std::map<std::string, size_t> replayed;
  for (size_t i = 0; i < run.slots.size(); ++i) {
    const QuerySpec q = run.slots[i].spec.Normalized();
    const std::string key = SpecKey(q);
    if (replayed.count(key)) {
      v->Expect(run.results[i] == run.results[replayed[key]] ||
                    SameResult(*run.results[i], *run.results[replayed[key]]),
                "serving", "slot " + std::to_string(i) + " differs from an earlier answer");
      continue;
    }
    replayed[key] = i;
    std::shared_ptr<const SkySnapshot> snap = identity;
    if (run.slots[i].kind == SlotKind::kShaped) {
      auto& s = shaped[run.slots[i].shape];
      if (s == nullptr) {
        SkyDiverConfig config = in.serve_config;
        config.query = Must(NormalizeQuery(q.query, w.dims), "normalize shape");
        s = Must(SkySnapshot::Build(in.data, config, in.serve_resources, serial),
                 "shaped replay build");
        const auto box = skybench::RowsInBox(in.data, config.query.lo, config.query.hi);
        v->Expect(skybench::CheckSkyline(in.data, box, s->skyline()), "shaped skyline");
      }
      snap = s;
    }
    QueryContext ctx(serial, CostModel{}, BandingSeed(snap->seed(), q));
    auto replay = snap->Select(q, ctx);
    if (!replay.ok()) {
      v->Expect(false, "serving", "replay failed: " + replay.status().ToString());
      continue;
    }
    v->Expect(SameResult(*run.results[i], replay.value()), "serving",
              "slot " + std::to_string(i) + " differs from its serial replay");
    if (q.mode == SelectMode::kMinHash && run.slots[i].kind != SlotKind::kShaped) {
      v->Expect(skybench::CheckSelection(snap->skyline(), replay->selected, replay->rows,
                                         replay->objective, snap->signatures(), q.k),
                "served selection");
    }
  }
}

// Skyline, scores, IF signatures and selection of one pipeline report,
// against the identity snapshot built during set-up.
void CheckPipeline(const Workload& w, Inputs& in, const SkyDiverReport& report,
                   uint64_t seed, Verdict* v) {
  const SkySnapshot& snap = *in.server->snapshot();
  v->Expect(skybench::CheckSkyline(in.data, AllRows(in.data), report.skyline), "skyline");
  v->Expect(report.skyline == snap.skyline(), "skyline",
            "pipeline skyline differs from the identity snapshot's");
  const auto sample = skybench::SampleIndices(snap.skyline().size(), 16, seed ^ 0x5c0e);
  v->Expect(skybench::CheckScores(in.data, snap.skyline(), snap.domination_scores(), sample),
            "scores");
  if (w.entry == Entry::kIndexFree) {
    const auto family = FamilyFor(in);
    const auto sig_sample = skybench::SampleIndices(snap.skyline().size(), 8, seed ^ 0x51f);
    v->Expect(skybench::CheckIfSignatures(in.data, snap.skyline(), snap.signatures(), family,
                                          sig_sample),
              "IF signatures");
  }
  v->Expect(skybench::CheckSelection(report.skyline, report.selected, report.selected_rows,
                                     report.objective, snap.signatures(), w.k),
            "selection");
  QuerySpec spec;
  spec.k = w.k;
  QueryContext ctx(Runtime::Create(0), CostModel{}, 0);
  auto served = snap.Select(spec, ctx);
  v->Expect(served.ok() && served->rows == report.selected_rows &&
                served->objective == report.objective,
            "selection", "pipeline picks differ from the snapshot's selection");
}

// On ib-disk: the in-memory tree, at the same cache fraction, charges the
// same demand faults per phase and produces the same output.
void CheckFaultParity(Inputs& in, const SkyDiverReport& disk_report, Verdict* v) {
  in.tree->FinalizeCache();
  auto mem = SkyDiver::Run(in.data, in.pipeline_config, &*in.tree);
  if (!mem.ok()) {
    v->Expect(false, "faults", "in-memory run failed: " + mem.status().ToString());
    return;
  }
  v->Expect(mem->skyline_phase.io.page_faults == disk_report.skyline_phase.io.page_faults &&
                mem->fingerprint_phase.io.page_faults ==
                    disk_report.fingerprint_phase.io.page_faults,
            "faults",
            "disk faults " + std::to_string(disk_report.skyline_phase.io.page_faults) + "+" +
                std::to_string(disk_report.fingerprint_phase.io.page_faults) +
                " vs in-memory " + std::to_string(mem->skyline_phase.io.page_faults) + "+" +
                std::to_string(mem->fingerprint_phase.io.page_faults));
  v->Expect(SameOutput(*mem, disk_report), "faults",
            "in-memory and disk pipelines disagree");
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Human-readable summary of the timed phase, on stderr.
void PrintProgress(std::vector<double> walls, const ServeRun& run) {
  std::sort(walls.begin(), walls.end());
  std::fprintf(stderr, "pipeline %zu reps: min %.4f median %.4f max %.4f s\n", walls.size(),
               walls.front(), Median(walls), walls.back());
  std::fprintf(stderr, "serve %zu rounds (%zu measured queries), qps per cycle:", run.rounds,
               run.measured_queries);
  for (double q : run.cycle_qps) std::fprintf(stderr, " %.1f", q);
  std::fprintf(stderr, "\n");
  const char* names[] = {"hot", "cold", "shaped"};
  for (SlotKind kind : {SlotKind::kHot, SlotKind::kCold, SlotKind::kShaped}) {
    std::vector<double> lat;
    for (size_t i = 0; i < run.slots.size(); ++i) {
      if (run.round_of[i] >= 1 && run.slots[i].kind == kind) lat.push_back(run.latencies_ms[i]);
    }
    if (lat.empty()) continue;
    std::sort(lat.begin(), lat.end());
    std::fprintf(stderr, "  %-6s n=%zu latency min %.3f median %.3f max %.3f ms\n",
                 names[static_cast<int>(kind)], lat.size(), lat.front(), Median(lat),
                 lat.back());
  }
}

// ---------------------------------------------------------------------------
// Untraced run: the end-to-end metrics.

int RunEndToEnd(const Args& a) {
  const Workload& w = *a.workload;
  Inputs in;
  SetupTimes times;
  Setup(a, in, &times, /*always_index=*/false);
  const double setup_s = Since(kProcessStart);
  std::fprintf(stderr, "%s: n=%u d=%u skyline=%zu setup %.3f s\n", w.name, in.data.size(),
               w.dims, in.server->snapshot()->skyline().size(), setup_s);

  uint64_t attempted = 0, failed = 0;
  Verdict v;

  // Warm-up: one pipeline run and one serving round. The timed phase then
  // interleaves pipeline repetitions with serving cycles, each kept near
  // its share of the time, so both sample the whole window: the speed of a
  // shared host can drift on a scale of seconds.
  const SkyDiverReport first = Must(RunPipeline(w, in), "warm-up pipeline");
  Serving serving(w, *in.server, a.seed);
  const double pipeline_share = 1.0 - w.serve_share;
  std::vector<double> walls;
  double pipeline_time = 0, serve_time = 0;
  while (pipeline_time + serve_time < a.seconds || walls.size() < 3 || serving.cycles() < 2) {
    if (pipeline_time > pipeline_share * (pipeline_time + serve_time) && walls.size() >= 3) {
      serve_time += serving.PlayCycle();
      continue;
    }
    const auto t0 = Clock::now();
    auto report = RunPipeline(w, in);
    const double wall = Since(t0);
    ++attempted;
    pipeline_time += wall;
    if (!report.ok()) {
      std::fprintf(stderr, "pipeline failed: %s\n", report.status().ToString().c_str());
      if (++failed > 3) Fail("the pipeline keeps failing");
      continue;
    }
    walls.push_back(wall);
    v.Expect(SameOutput(first, *report) && Faults(first) == Faults(*report), "repeat",
             "a pipeline repetition changed its output or its faults");
  }
  ServeRun run = serving.Finish();
  attempted += run.measured_queries;
  failed += run.failed;
  const double peak_rss = PeakRssMb();
  if (run.measured_latencies.empty()) Fail("no serving round succeeded");
  PrintProgress(walls, run);

  // Checks, outside the timed phase.
  CheckPipeline(w, in, first, a.seed, &v);
  if (w.entry == Entry::kDisk) CheckFaultParity(in, first, &v);
  CheckServing(w, in, run, &v);
  const double diversity = skybench::ExactDiversity(in.data, first.selected_rows);

  PrintResult(v.ok, attempted, failed,
              {{"pipeline_s", Median(walls), "s"},
               {"charged_io_s",
                CostModel{}.seconds_per_fault * static_cast<double>(Faults(first)), "s"},
               {"diversity", diversity, "jaccard"},
               {"serve_qps", Median(run.cycle_qps), "1/s"},
               {"serve_p50_ms", Percentile(run.measured_latencies, 50, 100), "ms"},
               {"serve_p99_ms", Percentile(run.measured_latencies, 99, 100), "ms"},
               {"setup_s", setup_s, "s"},
               {"peak_rss_mb", peak_rss, "MB"}});
  return 0;
}

// ---------------------------------------------------------------------------
// Traced run: the per-layer metrics. It calls each module's public
// functions in the order the workload's pipeline does, timing each call
// with its own span, and proves the outputs bit-identical to the untraced
// pipeline run in the same process.

constexpr int kTraceReps = 3;
// The layer spans must add up to the untraced pipeline_s within this share:
// what lies between them is the engine's own overhead (planning, the
// stage wrapper, result copies) plus the two runs' noise.
constexpr double kSpanBound = 0.25;

struct LayerOut {
  SkylineResult sky;
  SigGenResult fp;
  DispersionResult sel;
  double skyline_s = 0, minhash_s = 0, diversify_s = 0, cpu_s = 0;
  IoStats io;  // the disk tree's counters (ib-disk)
};

// The workload's skyline -> fingerprint -> select, as direct layer calls:
// pooled when `pool` is set (if-ant's pipeline), serial otherwise.
LayerOut RunLayers(const Workload& w, Inputs& in, DomKernel kernel, ThreadPool* pool) {
  const DataSet& data = in.data;
  const MinHashFamily family = FamilyFor(in);
  std::optional<DiskRTree> disk;
  if (w.entry == Entry::kDisk) {
    disk.emplace(Must(DiskRTree::Open(in.page_path, DiskOptions()), "page-file open"));
  }
  if (w.entry == Entry::kMemoryTree) in.tree->FinalizeCache();

  LayerOut out;
  const double cpu0 = CpuNow();
  auto t0 = Clock::now();
  switch (w.entry) {
    case Entry::kIndexFree:
      out.sky = pool ? ParallelSkyline(data, *pool, kernel) : SkylineSFS(data, kernel);
      break;
    case Entry::kDisk:
      out.sky = Must(SkylineBBS(data, *disk, kernel), "disk BBS");
      break;
    case Entry::kMemoryTree:
      out.sky = Must(SkylineBBS(data, *in.tree, kernel), "BBS");
      break;
  }
  out.skyline_s = Since(t0);

  t0 = Clock::now();
  const auto& rows = out.sky.rows;
  switch (w.entry) {
    case Entry::kIndexFree:
      out.fp = Must(pool ? ParallelSigGenIF(data, rows, family, *pool, kernel)
                         : SigGenIF(data, rows, family, kernel),
                    "SigGen-IF");
      break;
    case Entry::kDisk:
      out.fp = Must(SigGenIB(data, rows, family, *disk), "disk SigGen-IB");
      break;
    case Entry::kMemoryTree:
      out.fp = Must(SigGenIB(data, rows, family, *in.tree), "SigGen-IB");
      break;
  }
  out.minhash_s = Since(t0);

  t0 = Clock::now();
  const SignatureMatrix& sig = out.fp.signatures;
  auto distance = [&](size_t x, size_t y) { return sig.EstimatedDistance(x, y); };
  const size_t m = rows.size();
  out.sel = Must(pool ? ParallelSelectDiverseSet(m, w.k, distance, out.fp.domination_scores,
                                                 *pool)
                      : SelectDiverseSet(m, w.k, distance, out.fp.domination_scores),
                 "greedy k-MMDP");
  out.diversify_s = Since(t0);
  out.cpu_s = CpuNow() - cpu0;
  if (disk) out.io = disk->io_stats();
  return out;
}

bool SameSignatures(const SignatureMatrix& a, const SignatureMatrix& b) {
  if (a.columns() != b.columns() || a.signature_size() != b.signature_size()) return false;
  for (size_t j = 0; j < a.columns(); ++j) {
    for (size_t i = 0; i < a.signature_size(); ++i) {
      if (a.at(j, i) != b.at(j, i)) return false;
    }
  }
  return true;
}

void ExpectSameLayers(const LayerOut& l, const SkyDiverReport& report,
                      const SkySnapshot& snap, const char* what, Verdict* v) {
  v->Expect(l.sky.rows == report.skyline, what, "layer skyline differs from the pipeline's");
  v->Expect(SameSignatures(l.fp.signatures, snap.signatures()) &&
                l.fp.domination_scores == snap.domination_scores(),
            what, "layer signatures or scores differ from the snapshot's");
  v->Expect(l.sel.selected == report.selected && l.sel.min_pairwise == report.objective, what,
            "layer selection differs from the pipeline's");
}

int RunTraced(const Args& a) {
  const Workload& w = *a.workload;
  Inputs in;
  SetupTimes times;
  Setup(a, in, &times, /*always_index=*/true);
  const SkySnapshot& snap = *in.server->snapshot();
  Verdict v;
  uint64_t attempted = 0;

  std::optional<ThreadPool> pool;
  if (w.pipeline_threads > 0) pool.emplace(w.pipeline_threads);
  ThreadPool* pool_ptr = pool ? &*pool : nullptr;

  // Untraced pipeline runs and traced layer runs, interleaved so that
  // drift on the host hits both alike.
  const SkyDiverReport first = Must(RunPipeline(w, in), "warm-up pipeline");
  const DomKernel kernel = first.plan.kernel;
  std::vector<double> untraced, spans, sky_s, mh_s, div_s;
  double pooled_cpu = 0, pooled_wall = 0;
  LayerOut layers;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    auto t0 = Clock::now();
    auto report = Must(RunPipeline(w, in), "pipeline");
    untraced.push_back(Since(t0));
    v.Expect(SameOutput(first, report), "repeat", "pipeline repetition changed its output");
    layers = RunLayers(w, in, kernel, pool_ptr);
    attempted += 2;
    ExpectSameLayers(layers, first, snap, "traced layers", &v);
    if (w.entry == Entry::kDisk) {
      v.Expect(layers.io.page_faults == Faults(first), "traced layers",
               "layer faults differ from the pipeline's");
    }
    sky_s.push_back(layers.skyline_s);
    mh_s.push_back(layers.minhash_s);
    div_s.push_back(layers.diversify_s);
    spans.push_back(layers.skyline_s + layers.minhash_s + layers.diversify_s);
    pooled_cpu += layers.cpu_s;
    pooled_wall += spans.back();
  }
  if (pool_ptr != nullptr) {
    // Serial layer calls must match the pooled pipeline bit for bit.
    ExpectSameLayers(RunLayers(w, in, kernel, nullptr), first, snap, "serial layers", &v);
    ++attempted;
  }
  const std::vector<RowId> all = AllRows(in.data);
  v.Expect(skybench::CheckSkyline(in.data, all, layers.sky.rows), "skyline");
  const double pipeline_s = Median(untraced);
  const double span_sum = Median(spans);
  v.Expect(std::abs(span_sum - pipeline_s) <= kSpanBound * pipeline_s, "span sum",
           "layer spans add up to " + std::to_string(span_sum) + " s, untraced pipeline " +
               std::to_string(pipeline_s) + " s");

  // The IB descent over the page file and over the in-memory tree, on the
  // BBS skyline of this workload's data, each with a fresh 20% cache.
  const MinHashFamily family = FamilyFor(in);
  std::vector<double> disk_s, memory_s;
  IoStats disk_io;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    DiskRTree disk = Must(DiskRTree::Open(in.page_path, DiskOptions()), "page-file open");
    const auto bbs = Must(SkylineBBS(in.data, disk, kernel), "disk BBS");
    auto t0 = Clock::now();
    const auto on_disk = Must(SigGenIB(in.data, bbs.rows, family, disk), "disk SigGen-IB");
    disk_s.push_back(Since(t0));
    disk_io = disk.io_stats();
    in.tree->FinalizeCache();
    t0 = Clock::now();
    const auto in_memory = Must(SigGenIB(in.data, bbs.rows, family, *in.tree), "SigGen-IB");
    memory_s.push_back(Since(t0));
    attempted += 2;
    v.Expect(SameSignatures(on_disk.signatures, in_memory.signatures), "IB trees",
             "disk and in-memory SigGen-IB disagree");
  }

  // The dominance kernel alone: sampled skyline points swept over tiles
  // of every row.
  std::vector<RowId> sky = snap.skyline();
  const TileSet tiles = MaterializeTiles(in.data, all);
  const auto probes = skybench::SampleIndices(sky.size(), 64, a.seed ^ 0x7e57);
  const DominanceKernel dk(kernel);
  std::vector<double> kernel_ns;
  uint64_t sink = 0;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    const auto t0 = Clock::now();
    for (size_t p : probes) {
      const auto point = in.data.row(sky[p]);
      for (const Tile& tile : tiles.tiles()) sink += dk.FilterDominated(point, tile.view());
    }
    kernel_ns.push_back(Since(t0) * 1e9 /
                        static_cast<double>(probes.size() * in.data.size()));
  }
  if (sink == 0) std::fprintf(stderr, "note: sampled points dominate no rows\n");

  // LSH banding plus greedy selection over Hamming distance.
  std::vector<double> lsh_s;
  size_t lsh_bytes = 0;
  for (int rep = 0; rep < kTraceReps; ++rep) {
    const auto t0 = Clock::now();
    const auto params = Must(ChooseZones(snap.signature_size(), 0.2, 20), "ChooseZones");
    const auto index = Must(LshIndex::Build(snap.signatures(), params, a.seed), "LSH build");
    auto hamming = [&](size_t x, size_t y) { return index.Distance(x, y); };
    Must(SelectDiverseSet(sky.size(), w.k, hamming, snap.domination_scores()), "LSH select");
    lsh_s.push_back(Since(t0));
    lsh_bytes = index.MemoryBytes();
  }

  // Serving: a warm-up round and one cycle, so every shape is used.
  Serving serving(w, *in.server, a.seed);
  serving.PlayCycle();
  ServeRun run = serving.Finish();
  attempted += run.measured_queries;
  std::map<std::string, bool> seen_spec;
  std::map<size_t, bool> seen_shape;
  std::vector<double> compute_ms, shaped_ms;
  size_t shaped_slots = 0;
  for (size_t i = 0; i < run.slots.size(); ++i) {
    const Slot& s = run.slots[i];
    if (s.kind == SlotKind::kShaped) {
      if (run.round_of[i] >= 1) ++shaped_slots;
      if (!seen_shape[s.shape]) shaped_ms.push_back(run.latencies_ms[i]);
      seen_shape[s.shape] = true;
      continue;
    }
    const std::string key = SpecKey(s.spec.Normalized());
    if (!seen_spec[key]) compute_ms.push_back(run.latencies_ms[i]);
    seen_spec[key] = true;
  }
  const uint64_t hits = run.after.result_hits - run.before_measured.result_hits;
  const uint64_t misses = run.after.result_misses - run.before_measured.result_misses;
  const uint64_t builds = run.after.snapshot_misses - run.before_measured.snapshot_misses;
  if (builds > shaped_slots) {
    std::fprintf(stderr, "note: %llu snapshot builds for %zu shaped queries\n",
                 static_cast<unsigned long long>(builds), shaped_slots);
  }
  const double busy =
      pool_ptr != nullptr
          ? pooled_cpu / (pooled_wall * static_cast<double>(w.pipeline_threads))
          : run.cpu_seconds / (run.measured_wall * static_cast<double>(kClients));

  const uint64_t pairs = [&] {
    uint64_t s = 0;
    for (uint64_t x : layers.fp.domination_scores) s += x;
    return s;
  }();
  const double minhash_s = Median(mh_s);
  PrintResult(
      v.ok, attempted, run.failed,
      {{"datagen.s", times.datagen, "s"},
       {"rtree.bulkload_s", times.bulkload, "s"},
       {"rtree.write_s", times.write, "s"},
       {"rtree.open_s", times.open, "s"},
       {"rtree.page_reads", static_cast<double>(disk_io.page_reads), "count"},
       {"rtree.page_faults", static_cast<double>(disk_io.page_faults), "count"},
       {"rtree.hit_rate", disk_io.HitRate(), "ratio"},
       {"rtree.disk_s", Median(disk_s), "s"},
       {"rtree.memory_s", Median(memory_s), "s"},
       {"skyline.s", Median(sky_s), "s"},
       {"skyline.checks", static_cast<double>(layers.sky.dominance_checks), "count"},
       {"kernels.ns_per_check", Median(kernel_ns), "ns"},
       {"kernels.checks",
        static_cast<double>(first.skyline_phase.dominance_checks_tiled +
                            first.fingerprint_phase.dominance_checks_tiled),
        "count"},
       {"minhash.s", minhash_s, "s"},
       {"minhash.pairs", static_cast<double>(pairs), "count"},
       {"minhash.ns_per_pair", minhash_s * 1e9 / static_cast<double>(std::max<uint64_t>(pairs, 1)),
        "ns"},
       {"minhash.checks", static_cast<double>(layers.fp.dominance_checks), "count"},
       {"minhash.signature_bytes", static_cast<double>(layers.fp.signatures.MemoryBytes()),
        "bytes"},
       {"parallel.busy_ratio", busy, "ratio"},
       {"diversify.s", Median(div_s), "s"},
       {"diversify.distance_evals", static_cast<double>(layers.sel.distance_evaluations),
        "count"},
       {"lsh.s", Median(lsh_s), "s"},
       {"lsh.bytes", static_cast<double>(lsh_bytes), "bytes"},
       {"serve.result_hit_ratio",
        static_cast<double>(hits) / static_cast<double>(std::max<uint64_t>(hits + misses, 1)),
        "ratio"},
       {"serve.snapshot_builds", static_cast<double>(builds), "count"},
       {"serve.compute_ms", Median(compute_ms), "ms"},
       {"serve.shaped_ms", Median(shaped_ms), "ms"},
       {"engine.snapshot_s", times.snapshot, "s"},
       {"engine.overhead_s", pipeline_s - span_sum, "s"}});
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (value == w.name) a.workload = &w;
      }
      if (a.workload == nullptr) Fail("unknown workload " + value);
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else {
      Fail("unknown flag " + flag);
    }
  }
  if (a.workload == nullptr || !(a.seconds > 0)) {
    Fail("usage: skybench --workload <if-ant|ib-disk|serve-mixed> --seed N --seconds S "
         "--trace 0|1");
  }
  return a.trace ? RunTraced(a) : RunEndToEnd(a);
}
