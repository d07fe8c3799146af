// skybench_selftest — shows that every output check in checks.h can fail.
//
// It computes real outputs with the library on small generated data,
// confirms each check accepts them, then feeds each check mutated copies
// (a dropped, added or repeated skyline row, a changed score, a changed
// signature entry, a swapped or repeated pick, a changed objective) and
// expects a rejection. Exit code 0 iff every case behaves.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "datagen/generators.h"
#include "engine/snapshot.h"
#include "skydiver/skydiver.h"

namespace {

using namespace skydiver;

int failures = 0;

void Accepts(const std::string& problem, const char* what) {
  if (problem.empty()) {
    std::printf("ok    %-34s accepted\n", what);
  } else {
    std::printf("FAIL  %-34s rejected a correct output: %s\n", what, problem.c_str());
    ++failures;
  }
}

void Rejects(const std::string& problem, const char* what) {
  if (!problem.empty()) {
    std::printf("ok    %-34s rejected: %s\n", what, problem.c_str());
  } else {
    std::printf("FAIL  %-34s accepted a mutated output\n", what);
    ++failures;
  }
}

template <typename T>
T Must(Result<T> r) {
  if (!r.ok()) {
    std::fprintf(stderr, "selftest: %s\n", r.status().ToString().c_str());
    std::exit(2);
  }
  return std::move(r).value();
}

}  // namespace

int main() {
  const DataSet data = GenerateAnticorrelated(3000, 4, 5);
  SkyDiverConfig config;
  config.k = 6;
  config.seed = 9;
  const SkyDiverReport report = Must(SkyDiver::Run(data, config));
  const auto snap = Must(SkySnapshot::Build(data, config));
  const std::vector<RowId>& sky = report.skyline;
  const size_t m = sky.size();
  std::vector<RowId> all(data.size());
  for (RowId r = 0; r < data.size(); ++r) all[r] = r;
  const auto sample = skybench::SampleIndices(m, m, 1);  // every skyline point
  const auto family = MinHashFamily::Create(config.signature_size, data.size(), config.seed);

  // Correct outputs pass.
  Accepts(skybench::CheckSkyline(data, all, sky), "skyline");
  Accepts(skybench::CheckScores(data, sky, snap->domination_scores(), sample), "scores");
  Accepts(skybench::CheckIfSignatures(data, sky, snap->signatures(), family, sample),
          "IF signatures");
  Accepts(skybench::CheckSelection(sky, report.selected, report.selected_rows,
                                   report.objective, snap->signatures(), config.k),
          "selection");

  // Skyline mutations.
  {
    std::vector<RowId> dropped(sky.begin() + 1, sky.end());
    Rejects(skybench::CheckSkyline(data, all, dropped), "skyline: dropped row");
    std::vector<RowId> added = sky;
    for (RowId r : all) {
      if (skybench::Dominates(data, sky[0], r)) {
        added.push_back(r);
        break;
      }
    }
    Rejects(skybench::CheckSkyline(data, all, added), "skyline: added dominated row");
    std::vector<RowId> repeated = sky;
    repeated.push_back(sky[0]);
    Rejects(skybench::CheckSkyline(data, all, repeated), "skyline: repeated row");
    // Shaped: the skyline of the rows in a box may not name a row outside it.
    std::vector<Coord> lo(data.dims(), 0.0), hi(data.dims(), 1.0);
    hi[0] = 0.5;
    const auto box = skybench::RowsInBox(data, lo, hi);
    SkyDiverConfig shaped = config;
    shaped.query.lo = lo;
    shaped.query.hi = hi;
    const auto boxed = Must(SkySnapshot::Build(data, shaped));
    Accepts(skybench::CheckSkyline(data, box, boxed->skyline()), "shaped skyline");
    std::vector<RowId> outside = boxed->skyline();
    for (RowId r : sky) {
      if (data.at(r, 0) > 0.5) {
        outside.push_back(r);
        break;
      }
    }
    Rejects(skybench::CheckSkyline(data, box, outside), "shaped skyline: row outside box");
  }

  // A changed domination score.
  {
    std::vector<uint64_t> scores = snap->domination_scores();
    scores[m / 2] += 1;
    Rejects(skybench::CheckScores(data, sky, scores, sample), "scores: changed score");
  }

  // A changed signature entry (lowered, the only edit UpdateMin allows).
  {
    SignatureMatrix sig = snap->signatures();
    size_t j = 0;
    while (j < m && sig.at(j, 3) == 0) ++j;
    const uint64_t old = sig.at(j, 3);
    sig.UpdateMin(j, 3, old == kEmptySlot ? 12345 : old - 1);
    Rejects(skybench::CheckIfSignatures(data, sky, sig, family, sample),
            "signatures: changed entry");
  }

  // Selection mutations.
  {
    std::vector<size_t> picks = report.selected;
    std::vector<RowId> rows = report.selected_rows;
    std::swap(rows[0], rows[1]);
    Rejects(skybench::CheckSelection(sky, picks, rows, report.objective, snap->signatures(),
                                     config.k),
            "selection: swapped pick rows");

    picks = report.selected;
    rows = report.selected_rows;
    picks[1] = picks[0];
    rows[1] = rows[0];
    Rejects(skybench::CheckSelection(sky, picks, rows, report.objective, snap->signatures(),
                                     config.k),
            "selection: repeated pick");

    // Swap one pick for the unselected point closest to the others: the
    // reported objective no longer matches the picks.
    const SignatureMatrix& sig = snap->signatures();
    double best = std::numeric_limits<double>::infinity();
    size_t swap_in = m;
    for (size_t c = 0; c < m; ++c) {
      bool taken = false;
      for (size_t p : report.selected) taken |= p == c;
      if (taken) continue;
      for (size_t i = 1; i < config.k; ++i) {
        const double d = sig.EstimatedDistance(c, report.selected[i]);
        if (d < best) {
          best = d;
          swap_in = c;
        }
      }
    }
    picks = report.selected;
    rows = report.selected_rows;
    picks[0] = swap_in;
    rows[0] = sky[swap_in];
    if (best < report.objective) {
      Rejects(skybench::CheckSelection(sky, picks, rows, report.objective, sig, config.k),
              "selection: swapped pick");
    } else {
      std::printf("FAIL  selection: swapped pick           no closer point to swap in\n");
      ++failures;
    }

    Rejects(skybench::CheckSelection(sky, report.selected, report.selected_rows,
                                     report.objective + 0.01, sig, config.k),
            "selection: changed objective");
  }

  // Exact diversity on a hand-made instance: Γ(a) = {2, 3}, Γ(b) = {3, 4}.
  {
    DataSet tiny(2);
    tiny.Append({0.0, 0.5});  // a
    tiny.Append({0.5, 0.0});  // b
    tiny.Append({0.1, 0.9});  // dominated by a only
    tiny.Append({0.9, 0.9});  // dominated by both
    tiny.Append({0.9, 0.1});  // dominated by b only
    const std::vector<RowId> ab = {0, 1};
    const double d = skybench::ExactDiversity(tiny, ab);
    Accepts(d == 1.0 - 1.0 / 3.0 ? "" : "got " + std::to_string(d), "exact diversity");
  }

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
