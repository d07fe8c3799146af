// skydiver_cli — run the full SkyDiver pipeline from the command line.
//
// Works on your own CSV data or on the built-in workload generators, with
// every knob of the paper exposed:
//
//   # 10 diverse skyline points from a CSV (minimize all columns)
//   skydiver_cli --csv hotels.csv --k 10
//
//   # mixed preferences: minimize col 0, maximize col 1, minimize col 2
//   skydiver_cli --csv hotels.csv --pref min,max,min --k 5
//
//   # synthetic anticorrelated data, index-based pipeline, LSH selection
//   skydiver_cli --workload ANT --n 100000 --dims 4 --index
//                --select lsh --lsh-threshold 0.2 --lsh-buckets 20
//
//   # persist / reuse the index across runs
//   skydiver_cli --workload IND --n 500000 --dims 4 --index --save-tree idx.skyd
//   skydiver_cli --workload IND --n 500000 --dims 4 --load-tree idx.skyd

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "common/flags.h"
#include "core/sky_query.h"
#include "core/dataset_io.h"
#include "core/preference.h"
#include "datagen/csv.h"
#include "datagen/generators.h"
#include "parallel/thread_pool.h"
#include "rtree/disk_rtree.h"
#include "rtree/rtree.h"
#include "serve/serve.h"
#include "skydiver/advisor.h"
#include "skydiver/profile.h"
#include "skydiver/skydiver.h"

namespace skydiver {
namespace {

Result<Preference> ParsePreference(const std::string& spec, Dim dims) {
  if (spec.empty()) return Preference::AllMin(dims);
  std::vector<Pref> prefs;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == "min") {
      prefs.push_back(Pref::kMin);
    } else if (token == "max") {
      prefs.push_back(Pref::kMax);
    } else {
      return Status::InvalidArgument("--pref entries must be 'min' or 'max', got '" +
                                     token + "'");
    }
  }
  if (prefs.size() != dims) {
    return Status::InvalidArgument("--pref lists " + std::to_string(prefs.size()) +
                                   " directions but the data has " +
                                   std::to_string(dims) + " columns");
  }
  return Preference(std::move(prefs));
}

// One side of a '--constrain lo:hi' pair. Empty text leaves the side open
// (`open` is the matching infinity); anything else must parse fully as a
// double, so 'inf'/'-inf' also work.
Result<Coord> ParseBound(const std::string& text, Coord open) {
  if (text.empty()) return open;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Status::InvalidArgument("--constrain bound '" + text +
                                   "' is not a number");
  }
  return value;
}

// Parses '--constrain lo:hi,lo:hi,...' (one pair per column, in column
// order) into the query's box. Bounds are given in the ORIGINAL column
// values; maximized columns are mirrored into minimization space below.
Status ParseConstraint(const std::string& spec, SkyQuery* query) {
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    const size_t colon = token.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument(
          "--constrain entries must be 'lo:hi' (either side may be empty), "
          "got '" + token + "'");
    }
    auto lo = ParseBound(token.substr(0, colon),
                         -std::numeric_limits<Coord>::infinity());
    if (!lo.ok()) return lo.status();
    auto hi = ParseBound(token.substr(colon + 1),
                         std::numeric_limits<Coord>::infinity());
    if (!hi.ok()) return hi.status();
    query->lo.push_back(*lo);
    query->hi.push_back(*hi);
  }
  if (query->lo.empty()) {
    return Status::InvalidArgument("--constrain lists no 'lo:hi' pairs");
  }
  return Status::OK();
}

// Parses '--project d0,d2,...' (the 'd' prefix is optional) into the
// query's projection mask.
Status ParseProjection(const std::string& spec, SkyQuery* query) {
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    std::string digits = token;
    if (!digits.empty() && (digits[0] == 'd' || digits[0] == 'D')) {
      digits = digits.substr(1);
    }
    char* end = nullptr;
    const unsigned long value = std::strtoul(digits.c_str(), &end, 10);
    if (digits.empty() || end != digits.c_str() + digits.size() ||
        digits[0] == '-') {
      return Status::InvalidArgument(
          "--project entries must be column indices like 'd0' or '2', got '" +
          token + "'");
    }
    query->project.push_back(static_cast<Dim>(value));
  }
  if (query->project.empty()) {
    return Status::InvalidArgument("--project lists no columns");
  }
  return Status::OK();
}

int Run(int argc, char** argv) {
  std::string csv, workload = "IND", pref_spec, select = "mh", kernel = "simd";
  std::string save_tree, load_tree, save_data;
  std::string constrain_spec, project_spec;
  std::string disk_path, disk_backend_name = "pread";
  bool disk_prefetch = false;
  int64_t n = 100000, dims = 4, k = 10, t = 100, lsh_buckets = 20, seed = 42;
  int64_t threads = 0, shards = 1, morsel = 0;
  double lsh_threshold = 0.2;
  bool use_index = false, skip_header = false, quiet = false;
  bool describe = false, advise = false, explain = false;

  Flags flags;
  flags.AddString("csv", &csv, "input CSV of numeric rows (overrides --workload)");
  flags.AddBool("skip-header", &skip_header, "drop the first CSV line");
  flags.AddString("workload", &workload, "generator: IND|CORR|ANT|CLUSTER|FC|REC");
  flags.AddInt64("n", &n, "generated cardinality");
  flags.AddInt64("dims", &dims, "generated dimensionality");
  flags.AddString("pref", &pref_spec,
                  "comma list of min/max per column (default: all min)");
  flags.AddInt64("k", &k, "number of diverse skyline points");
  flags.AddInt64("t", &t, "MinHash signature size");
  flags.AddString("select", &select, "selection distance: mh | lsh | bf (exact, small m)");
  flags.AddInt64("threads", &threads,
                 "worker threads (0 = serial; 1+ runs every stage on a pool, "
                 "bit-identical output)");
  flags.AddInt64("morsel", &morsel,
                 "rows per work-stealing morsel for the pooled stages "
                 "(0 = auto; multiples of 64, bit-identical output for any value)");
  flags.AddString("kernel", &kernel,
                  "dominance kernel: simd (runtime-dispatched AVX2/NEON sweeps, "
                  "falls back to tiled) | tiled (batched 64-row sweeps) | scalar");
  flags.AddString("constrain", &constrain_spec,
                  "closed constraint box 'lo:hi,lo:hi,...' (one pair per "
                  "column, original values; an empty side is unbounded: "
                  "':5', '2:')");
  flags.AddString("project", &project_spec,
                  "subspace for dominance, e.g. 'd0,d2' (default: all columns)");
  flags.AddInt64("shards", &shards,
                 "split the rows into this many chunks, skyline each and "
                 "cross-filter merge — same output, parallel with --threads");
  flags.AddBool("explain", &explain, "print the resolved execution plan and exit");
  int64_t serve_clients = 0, serve_queries = 200;
  flags.AddInt64("serve", &serve_clients,
                 "serve mode: freeze a snapshot and answer a mixed MH/LSH query "
                 "schedule from this many concurrent clients (0 = off)");
  flags.AddInt64("serve-queries", &serve_queries, "serve mode: schedule length");
  flags.AddDouble("lsh-threshold", &lsh_threshold, "LSH banding threshold xi");
  flags.AddInt64("lsh-buckets", &lsh_buckets, "LSH buckets per zone B");
  flags.AddBool("index", &use_index, "build an aggregate R*-tree (BBS + SigGen-IB)");
  flags.AddString("disk", &disk_path,
                  "serialize the index to this page file and run the disk "
                  "pipeline off it (real page reads through the pinned cache)");
  flags.AddString("disk-backend", &disk_backend_name,
                  "physical page I/O for --disk: pread | mmap");
  flags.AddBool("disk-prefetch", &disk_prefetch,
                "arm async child-page prefetch for --disk (pool size = "
                "--threads; 0 = hardware concurrency)");
  flags.AddString("save-tree", &save_tree, "persist the built index to this path");
  flags.AddString("load-tree", &load_tree, "load a persisted index instead of building");
  flags.AddString("save-data", &save_data, "persist the dataset in binary form");
  flags.AddInt64("seed", &seed, "RNG seed");
  flags.AddBool("quiet", &quiet, "print only the selected rows");
  flags.AddBool("describe", &describe, "print a dataset profile and exit");
  flags.AddBool("advise", &advise,
                "print the paper's IB/IF recommendation (assumes a disk-resident index)");

  const Status parse = flags.Parse(argc, argv);
  if (!parse.ok()) {
    std::fprintf(stderr, "%s\n%s", parse.ToString().c_str(),
                 flags.Usage(argv[0]).c_str());
    return 2;
  }
  if (flags.help_requested()) {
    std::printf("%s", flags.Usage(argv[0]).c_str());
    return 0;
  }

  // --- data ------------------------------------------------------------------
  Result<DataSet> data = Status::Internal("unset");
  if (!csv.empty()) {
    data = ReadCsv(csv, skip_header);
  } else {
    auto kind = ParseWorkloadKind(workload);
    if (!kind.ok()) {
      std::fprintf(stderr, "%s\n", kind.status().ToString().c_str());
      return 2;
    }
    data = GenerateWorkload(*kind, static_cast<RowId>(n), static_cast<Dim>(dims),
                            static_cast<uint64_t>(seed));
  }
  if (!data.ok()) {
    std::fprintf(stderr, "loading data failed: %s\n", data.status().ToString().c_str());
    return 1;
  }
  if (const Status finite = CheckFinite(*data); !finite.ok()) {
    std::fprintf(stderr, "bad input data: %s\n", finite.ToString().c_str());
    return 1;
  }
  if (!save_data.empty()) {
    const Status st = SaveDataSet(*data, save_data);
    if (!st.ok()) {
      std::fprintf(stderr, "saving data failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  if (describe) {
    auto profile = ProfileDataSet(*data);
    if (!profile.ok()) {
      std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", FormatProfile(*profile).c_str());
    if (!advise) return 0;
  }
  if (advise) {
    const auto advice = RecommendSigGenMode(*data, IndexResidency::kDiskResident);
    std::printf("siggen recommendation: %s  [%s; mean corr %.3f]\n",
                advice.mode == SigGenMode::kIndexBased ? "index-based (IB)"
                                                       : "index-free (IF)",
                advice.rationale.c_str(), advice.mean_correlation);
    return 0;
  }

  auto pref = ParsePreference(pref_spec, data->dims());
  if (!pref.ok()) {
    std::fprintf(stderr, "%s\n", pref.status().ToString().c_str());
    return 2;
  }
  auto canonical = data->Canonicalize(*pref);
  if (!canonical.ok()) {
    std::fprintf(stderr, "%s\n", canonical.status().ToString().c_str());
    return 1;
  }

  // --- optional index ----------------------------------------------------------
  Result<RTree> tree = Status::Internal("unset");
  bool have_tree = false;
  if (!load_tree.empty()) {
    tree = RTree::LoadFromFile(load_tree);
    have_tree = true;
  } else if (use_index) {
    tree = RTree::BulkLoad(*canonical);
    have_tree = true;
  }
  if (have_tree && !tree.ok()) {
    std::fprintf(stderr, "index failed: %s\n", tree.status().ToString().c_str());
    return 1;
  }
  if (have_tree && !save_tree.empty()) {
    const Status st = tree->SaveToFile(save_tree);
    if (!st.ok()) {
      std::fprintf(stderr, "saving index failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  // --- optional disk tree ------------------------------------------------------
  Result<DiskRTree> disk = Status::Internal("unset");
  std::optional<ThreadPool> prefetch_pool;
  bool have_disk = false;
  if (!disk_path.empty()) {
    if (!have_tree) {
      tree = RTree::BulkLoad(*canonical);
      if (!tree.ok()) {
        std::fprintf(stderr, "index failed: %s\n", tree.status().ToString().c_str());
        return 1;
      }
      have_tree = true;
    }
    if (const Status st = DiskRTree::Write(*tree, disk_path); !st.ok()) {
      std::fprintf(stderr, "writing page file failed: %s\n", st.ToString().c_str());
      return 1;
    }
    auto backend = ParseDiskBackend(disk_backend_name);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 2;
    }
    DiskTreeOptions options;
    options.backend = *backend;
    if (disk_prefetch) {
      prefetch_pool.emplace(threads > 0 ? static_cast<size_t>(threads) : 0);
      options.prefetch_pool = &*prefetch_pool;
    }
    disk = DiskRTree::Open(disk_path, options);
    if (!disk.ok()) {
      std::fprintf(stderr, "opening page file failed: %s\n",
                   disk.status().ToString().c_str());
      return 1;
    }
    have_disk = true;
  }

  // --- pipeline ----------------------------------------------------------------
  SkyDiverConfig config;
  config.k = static_cast<size_t>(k);
  config.signature_size = static_cast<size_t>(t);
  config.seed = static_cast<uint64_t>(seed);
  if (threads < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return 2;
  }
  config.threads = static_cast<size_t>(threads);
  if (morsel < 0) {
    std::fprintf(stderr, "--morsel must be >= 0\n");
    return 2;
  }
  config.morsel_rows = static_cast<size_t>(morsel);
  auto parsed_kernel = ParseDomKernel(kernel);
  if (!parsed_kernel.ok()) {
    std::fprintf(stderr, "%s\n", parsed_kernel.status().ToString().c_str());
    return 2;
  }
  config.kernel = *parsed_kernel;
  if (select == "lsh") {
    config.select = SelectMode::kLsh;
    config.lsh_threshold = lsh_threshold;
    config.lsh_buckets = static_cast<size_t>(lsh_buckets);
  } else if (select == "bf") {
    config.select = SelectMode::kBruteForce;
  } else if (select != "mh") {
    std::fprintf(stderr, "--select must be 'mh', 'lsh' or 'bf'\n");
    return 2;
  }
  if (!constrain_spec.empty()) {
    if (const Status st = ParseConstraint(constrain_spec, &config.query); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
    if (config.query.lo.size() != data->dims()) {
      std::fprintf(stderr,
                   "--constrain lists %zu 'lo:hi' pairs but the data has %u "
                   "columns\n",
                   config.query.lo.size(), data->dims());
      return 2;
    }
    // The pipeline runs over canonicalized (minimization-space) data; a
    // maximized column is negated there, which mirrors and swaps its bounds.
    for (Dim d = 0; d < data->dims(); ++d) {
      if (pref->at(d) == Pref::kMax) {
        const Coord lo = config.query.lo[d], hi = config.query.hi[d];
        config.query.lo[d] = -hi;
        config.query.hi[d] = -lo;
      }
    }
  }
  if (!project_spec.empty()) {
    if (const Status st = ParseProjection(project_spec, &config.query); !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 2;
    }
  }
  if (shards < 1 || static_cast<size_t>(shards) > kMaxQueryShards) {
    std::fprintf(stderr, "--shards must be in [1, %zu]\n", kMaxQueryShards);
    return 2;
  }
  config.query.shards = static_cast<size_t>(shards);
  if (const Status st = ValidateQueryShape(config.query); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 2;
  }

  if (explain) {
    PlanResources resources;
    // The planner takes at most one tree; the disk tree wins when both
    // exist (the in-memory one only seeded the page file).
    resources.disk_tree = have_disk ? &*disk : nullptr;
    resources.tree = (have_tree && !have_disk) ? &*tree : nullptr;
    auto plan = Planner::Resolve(config, resources);
    if (!plan.ok()) {
      std::fprintf(stderr, "planning failed: %s\n", plan.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", ExplainPlan(*plan, config).c_str());
    return 0;
  }

  // --- serve mode --------------------------------------------------------------
  if (serve_clients > 0) {
    if (serve_queries <= 0) {
      std::fprintf(stderr, "--serve-queries must be positive\n");
      return 2;
    }
    PlanResources resources;
    resources.disk_tree = have_disk ? &*disk : nullptr;
    resources.tree = (have_tree && !have_disk) ? &*tree : nullptr;
    auto snapshot = SkySnapshot::Build(*canonical, config, resources);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "snapshot build failed: %s\n",
                   snapshot.status().ToString().c_str());
      return 1;
    }
    const size_t m = (*snapshot)->skyline().size();
    const size_t k1 = std::min(config.k, m);
    const size_t k2 = std::max<size_t>(1, k1 / 2);
    // Mixed schedule around the configured knobs: both distance families,
    // two k values, repeated to length (repeats exercise the result cache).
    std::vector<QuerySpec> base;
    for (const size_t kk : {k1, k2}) {
      QuerySpec mh;
      mh.mode = SelectMode::kMinHash;
      mh.k = kk;
      base.push_back(mh);
      QuerySpec lsh;
      lsh.mode = SelectMode::kLsh;
      lsh.k = kk;
      lsh.lsh_threshold = lsh_threshold;
      lsh.lsh_buckets = static_cast<size_t>(lsh_buckets);
      base.push_back(lsh);
    }
    std::vector<QuerySpec> schedule;
    schedule.reserve(static_cast<size_t>(serve_queries));
    for (size_t i = 0; i < static_cast<size_t>(serve_queries); ++i) {
      schedule.push_back(base[i % base.size()]);
    }
    SkyServer server(*snapshot);
    auto loop = ServeLoop(server, schedule, static_cast<size_t>(serve_clients));
    if (!loop.ok()) {
      std::fprintf(stderr, "serve loop failed: %s\n", loop.status().ToString().c_str());
      return 1;
    }
    if (!quiet) {
      std::printf("# serve: n=%u m=%zu clients=%zu queries=%zu\n", data->size(), m,
                  static_cast<size_t>(serve_clients), schedule.size());
      std::printf("# qps=%.1f p50_ms=%.4f p99_ms=%.4f\n", loop->qps, loop->p50_ms,
                  loop->p99_ms);
      std::printf("# cache: result %llu hit / %llu miss, plan %llu hit / %llu miss\n",
                  static_cast<unsigned long long>(loop->stats.result_hits),
                  static_cast<unsigned long long>(loop->stats.result_misses),
                  static_cast<unsigned long long>(loop->stats.plan_hits),
                  static_cast<unsigned long long>(loop->stats.plan_misses));
      std::printf("# row, original values... (first query, k=%zu, mh)\n", k1);
    }
    for (RowId row : loop->results.front()->rows) {
      std::printf("%u", row);
      for (Coord v : data->row(row)) std::printf(",%g", v);
      std::printf("\n");
    }
    return 0;
  }

  auto report = have_disk
                    ? SkyDiver::RunOnDisk(*canonical, config, *disk)
                    : SkyDiver::Run(*canonical, config, have_tree ? &*tree : nullptr);
  if (!report.ok()) {
    std::fprintf(stderr, "SkyDiver failed: %s\n", report.status().ToString().c_str());
    return 1;
  }

  if (!quiet) {
    std::printf("# n=%u d=%u skyline=%zu k=%zu select=%s index=%s\n", data->size(),
                data->dims(), report->skyline.size(), config.k, select.c_str(),
                have_disk ? "disk" : (have_tree ? "yes" : "no"));
    if (!report->plan.query.identity()) {
      std::printf("# query: %s\n", ToString(report->plan.query).c_str());
    }
    std::printf(
        "# plan: skyline=%s fingerprint=%s select=%s threads=%zu kernel=%s "
        "morsel=%zu\n",
        ToString(report->plan.skyline), ToString(report->plan.fingerprint),
        ToString(report->plan.select), report->plan.threads,
        ToString(report->plan.kernel), report->plan.morsel_rows);
    std::printf("# objective (working min pairwise distance): %.4f\n",
                report->objective);
    const CostModel& cost = config.cost_model;
    std::printf("# time_s skyline=%.4f fingerprint=%.4f selection=%.4f\n",
                report->skyline_phase.TotalSeconds(cost),
                report->fingerprint_phase.TotalSeconds(cost),
                report->selection_phase.TotalSeconds(cost));
    std::printf("# row, original values...\n");
  }
  for (RowId row : report->selected_rows) {
    std::printf("%u", row);
    for (Coord v : data->row(row)) std::printf(",%g", v);
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace skydiver

int main(int argc, char** argv) { return skydiver::Run(argc, argv); }
