// Query-shaped skyline benchmark: what the SkyQuery surface costs and buys.
//
// Three sweeps over IND / ANT at d = 6 (ANT is the hard case — its skyline
// is large, so the skyline phase dominates and sharding has work to split):
//
//   * selectivity — constraint box [0, c]^d for shrinking c: the DataView
//     filters rows before the skyline pass, so runtime should fall with
//     the in-box fraction (the identity query, c = 1, is the baseline and
//     is bit-identical to the pre-query code path).
//   * subspace — projection masks of d' in {2, 4} against the full space:
//     dominance runs on fewer columns, but low-d skylines are smaller
//     still, so both the pass and the result shrink.
//   * shards — SkylineSharded on a thread pool at 1 / 2 / 4 / 8 shards:
//     the shard phase parallelizes; the cross-filter merge is the serial
//     tail. On a host with >= 4 cores the 4-shard pass should be >= 1.5x
//     the 1-shard pass on ANT (the ShapeCheck below).
//
// --json writes the full grid to BENCH_queries.json for tracking across
// hosts; CI smokes it at --scale 500.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "common/timer.h"
#include "core/data_view.h"
#include "core/sky_query.h"
#include "parallel/thread_pool.h"
#include "skyline/skyline.h"

namespace skydiver::bench {
namespace {

constexpr int kReps = 3;
constexpr Dim kDims = 6;

template <typename Fn>
double BestOf(Fn&& fn) {
  double best = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.ElapsedSeconds());
  }
  return best;
}

struct JsonRecord {
  std::string workload;
  std::string sweep;    // "selectivity" | "subspace" | "shards"
  std::string point;    // the swept value, rendered
  RowId in_box = 0;     // rows the view admits
  size_t skyline = 0;   // skyline cardinality under the query
  double seconds = 0.0;
  double speedup = 1.0;  // vs the sweep's baseline point
};

void WriteJson(const std::string& path, RowId n, size_t pool_threads,
               const std::vector<JsonRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"bench\": \"queries\",\n  \"n\": " << n
      << ",\n  \"dims\": " << kDims << ",\n  \"pool_threads\": " << pool_threads
      << ",\n  \"records\": [\n";
  for (size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "    {\"workload\": \"" << r.workload << "\", \"sweep\": \""
        << r.sweep << "\", \"point\": \"" << r.point
        << "\", \"in_box\": " << r.in_box << ", \"skyline\": " << r.skyline
        << ", \"seconds\": " << r.seconds << ", \"speedup\": " << r.speedup
        << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %zu records to %s\n", records.size(), path.c_str());
}

const char* Name(WorkloadKind kind) {
  return kind == WorkloadKind::kIndependent ? "IND" : "ANT";
}

int Run(int argc, char** argv) {
  BenchEnv env;
  std::string json_path = "BENCH_queries.json";
  env.flags().AddString("json", &json_path,
                        "write the selectivity / subspace / shards grid here");
  if (!env.Init(argc, argv,
                "Query-shaped skylines: constraint-box selectivity, subspace "
                "projection, and sharded speedup",
                /*default_scale=*/10.0)) {
    return 0;
  }

  const RowId paper_n = 1000000;
  ThreadPool pool(0);  // hardware concurrency
  ShapeChecks shape("queries");
  std::vector<JsonRecord> records;
  constexpr WorkloadKind kKinds[] = {WorkloadKind::kIndependent,
                                     WorkloadKind::kAnticorrelated};

  // --- selectivity sweep -----------------------------------------------------
  {
    TablePrinter table({"workload", "box_hi", "in_box", "skyline", "secs",
                        "vs_identity"});
    for (const WorkloadKind kind : kKinds) {
      const DataSet& data = env.Data(kind, paper_n, kDims);
      double identity_secs = 0.0;
      for (const double c : {1.0, 0.8, 0.6, 0.4, 0.2}) {
        SkyQuery q;
        if (c < 1.0) {
          q.lo.assign(kDims, 0.0);
          // The generators emit values in [0, 1]; ANT rows are additionally
          // anti-correlated around the diagonal, so [0, c]^d thins both.
          q.hi.assign(kDims, c);
        }
        auto normalized = NormalizeQuery(q, kDims);
        if (!normalized.ok()) {
          std::fprintf(stderr, "%s\n", normalized.status().ToString().c_str());
          return 1;
        }
        const DataView view(data, *normalized);
        size_t skyline = 0;
        const double secs =
            BestOf([&] { skyline = SkylineSFS(view, DomKernel::kSimd).rows.size(); });
        if (c == 1.0) identity_secs = secs;
        const double speedup = secs == 0.0 ? 1.0 : identity_secs / secs;
        table.Row({Name(kind), TablePrinter::Num(c, 1),
                   TablePrinter::Int(view.size()), TablePrinter::Int(skyline),
                   TablePrinter::Secs(secs), TablePrinter::Num(speedup, 2)});
        records.push_back({Name(kind), "selectivity", TablePrinter::Num(c, 1),
                           view.size(), skyline, secs, speedup});
        if (c == 0.2) {
          shape.Check(std::string(Name(kind)) +
                          ": a c=0.2 box is not slower than the identity query",
                      secs <= identity_secs * 1.10);
        }
      }
    }
  }

  // --- subspace sweep --------------------------------------------------------
  {
    TablePrinter table({"workload", "d'", "skyline", "secs", "vs_full"});
    for (const WorkloadKind kind : kKinds) {
      const DataSet& data = env.Data(kind, paper_n, kDims);
      double full_secs = 0.0;
      for (const Dim dprime : {kDims, Dim{4}, Dim{2}}) {
        SkyQuery q;
        for (Dim d = 0; d < dprime; ++d) q.project.push_back(d);
        auto normalized = NormalizeQuery(q, kDims);
        if (!normalized.ok()) {
          std::fprintf(stderr, "%s\n", normalized.status().ToString().c_str());
          return 1;
        }
        const DataView view(data, *normalized);
        size_t skyline = 0;
        const double secs =
            BestOf([&] { skyline = SkylineSFS(view, DomKernel::kSimd).rows.size(); });
        if (dprime == kDims) full_secs = secs;
        const double speedup = secs == 0.0 ? 1.0 : full_secs / secs;
        table.Row({Name(kind), TablePrinter::Int(dprime),
                   TablePrinter::Int(skyline), TablePrinter::Secs(secs),
                   TablePrinter::Num(speedup, 2)});
        records.push_back({Name(kind), "subspace", TablePrinter::Int(dprime),
                           view.size(), skyline, secs, speedup});
      }
      shape.Check(std::string(Name(kind)) +
                      ": the d'=2 subspace pass beats the full-space pass",
                  records.back().speedup >= 1.0);
    }
  }

  // --- shard sweep -----------------------------------------------------------
  {
    TablePrinter table({"workload", "shards", "skyline", "secs", "vs_serial"});
    for (const WorkloadKind kind : kKinds) {
      const DataSet& data = env.Data(kind, paper_n, kDims);
      const DataView view(data);
      double serial_secs = 0.0;
      double shard4_speedup = 0.0;
      for (const size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
        size_t skyline = 0;
        const double secs = BestOf([&] {
          skyline =
              SkylineSharded(view, shards, DomKernel::kSimd, &pool).rows.size();
        });
        if (shards == 1) serial_secs = secs;
        const double speedup = secs == 0.0 ? 1.0 : serial_secs / secs;
        if (shards == 4) shard4_speedup = speedup;
        table.Row({Name(kind), TablePrinter::Int(shards),
                   TablePrinter::Int(skyline), TablePrinter::Secs(secs),
                   TablePrinter::Num(speedup, 2)});
        records.push_back({Name(kind), "shards", TablePrinter::Int(shards),
                           view.size(), skyline, secs, speedup});
      }
      if (kind == WorkloadKind::kAnticorrelated && pool.size() >= 4) {
        shape.Check("ANT: 4 shards >= 1.5x serial on a >= 4-core host",
                    shard4_speedup >= 1.5);
      }
    }
  }

  if (!json_path.empty()) {
    WriteJson(json_path, env.Scaled(paper_n), pool.size(), records);
  }
  shape.Summarize();  // bench binaries always exit 0
  return 0;
}

}  // namespace
}  // namespace skydiver::bench

int main(int argc, char** argv) { return skydiver::bench::Run(argc, argv); }
