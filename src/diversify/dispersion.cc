#include "diversify/dispersion.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "parallel/morsel.h"

namespace skydiver {

namespace {

Status ValidateSelection(size_t m, size_t k) {
  if (m == 0) return Status::InvalidArgument("no skyline points to select from");
  if (k == 0) return Status::InvalidArgument("k must be positive");
  if (k > m) {
    return Status::InvalidArgument("k = " + std::to_string(k) +
                                   " exceeds skyline cardinality m = " + std::to_string(m));
  }
  return Status::OK();
}

size_t MaxScoreIndex(size_t m, const ScoreFn& score) {
  size_t best = 0;
  double best_score = score(0);
  for (size_t i = 1; i < m; ++i) {
    const double s = score(i);
    if (s > best_score) {
      best_score = s;
      best = i;
    }
  }
  return best;
}

Status ValidateScores(size_t m, const std::vector<uint64_t>& domination_scores) {
  if (domination_scores.size() < m) {
    return Status::InvalidArgument("domination scores cover " +
                                   std::to_string(domination_scores.size()) +
                                   " points but m = " + std::to_string(m));
  }
  return Status::OK();
}

ScoreFn RawScores(const std::vector<uint64_t>& domination_scores) {
  return [&domination_scores](size_t j) { return static_cast<double>(domination_scores[j]); };
}

// Argmax state of one claim in one round. Initialized exactly like the
// serial scan's running best (index m, -inf distance and score), so folding
// claims in ascending order with the scan's strict comparisons reproduces
// the serial ascending scan bit for bit.
struct RoundBest {
  size_t index;
  double dist;
  double score;
};

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// Claims [0, m) one at a time on the calling thread, or on `pool`.
void ForEachClaim(ThreadPool* pool, MorselQueue& queue,
                  const std::function<void(const MorselQueue::Claim&)>& body) {
  if (pool != nullptr) {
    RunMorsels(*pool, queue, body);
    return;
  }
  MorselQueue::Claim claim;
  while (queue.Next(&claim)) body(claim);
}

DistanceRowFn AgreementDistanceRow(AgreementDistance distance) {
  return [distance = std::move(distance)](size_t pivot, size_t begin, size_t end,
                                          const uint8_t* taken, double* row) {
    const size_t width = distance.width;
    const uint32_t* pivot_lanes = distance.lanes + pivot * width;
    // Agreement counts in stack-sized chunks, then mapped to distances.
    constexpr size_t kChunk = 256;
    uint32_t agree[kChunk];
    for (size_t lo = begin; lo < end; lo += kChunk) {
      const size_t n = std::min(kChunk, end - lo);
      AgreeRow(pivot_lanes, distance.lanes + lo * width, width, n, taken + lo, agree);
      for (size_t j = 0; j < n; ++j) {
        if (taken[lo + j] == 0) row[lo + j] = distance.by_agreement[agree[j]];
      }
    }
  };
}

}  // namespace

DistanceRowFn PairDistanceRow(DistanceFn distance) {
  return [distance = std::move(distance)](size_t pivot, size_t begin, size_t end,
                                          const uint8_t* taken, double* row) {
    for (size_t i = begin; i < end; ++i) {
      if (taken[i] == 0) row[i] = distance(i, pivot);
    }
  };
}

Result<DispersionResult> GreedyMaxMin(size_t m, size_t k, const DistanceRowFn& row,
                                      const ScoreFn& score, ThreadPool* pool,
                                      size_t morsel_rows) {
  SKYDIVER_RETURN_NOT_OK(ValidateSelection(m, k));
  DispersionResult out;
  out.selected.reserve(k);

  std::vector<double> scores(m);
  for (size_t i = 0; i < m; ++i) scores[i] = score(i);
  // Written between rounds, read by the claims of a round; uint8_t rather
  // than vector<bool>, whose packed words would make neighbouring claims'
  // reads share a written word.
  std::vector<uint8_t> taken(m, 0);
  // Cached minimum distance from each unselected point to the selected set
  // (the paper's "boosted SG"), and the current round's distance row. Entry
  // i of both is written only by the claim whose range holds i;
  // cross-round visibility rides the pool's mutex (task completion ->
  // Wait() -> next round's SubmitBatch).
  std::vector<double> min_dist(m, std::numeric_limits<double>::infinity());
  std::vector<double> distances(m);

  const size_t seed =
      static_cast<size_t>(std::max_element(scores.begin(), scores.end()) - scores.begin());
  out.selected.push_back(seed);
  taken[seed] = 1;
  out.min_pairwise = std::numeric_limits<double>::infinity();

  MorselConfig config;
  config.morsel_rows = morsel_rows;
  const size_t workers = pool != nullptr ? pool->size() : 1;
  while (out.selected.size() < k) {
    const size_t newest = out.selected.back();
    MorselQueue queue(m, workers, config);
    std::vector<RoundBest> bests(queue.slots(), RoundBest{m, kNegInf, kNegInf});
    std::vector<uint64_t> evaluations(queue.slots(), 0);
    ForEachClaim(pool, queue, [&](const MorselQueue::Claim& c) {
      const auto begin = static_cast<size_t>(c.begin);
      const auto end = static_cast<size_t>(c.end);
      row(newest, begin, end, taken.data(), distances.data());
      RoundBest best{m, kNegInf, kNegInf};
      uint64_t evaluated = 0;
      for (size_t i = begin; i < end; ++i) {
        if (taken[i] != 0) continue;
        ++evaluated;
        if (distances[i] < min_dist[i]) min_dist[i] = distances[i];
        if (min_dist[i] > best.dist || (min_dist[i] == best.dist && scores[i] > best.score)) {
          best = RoundBest{i, min_dist[i], scores[i]};
        }
      }
      bests[c.slot] = best;
      evaluations[c.slot] = evaluated;
    });
    RoundBest round{m, kNegInf, kNegInf};
    for (size_t s = 0; s < bests.size(); ++s) {
      out.distance_evaluations += evaluations[s];
      const RoundBest& b = bests[s];
      if (b.dist > round.dist || (b.dist == round.dist && b.score > round.score)) round = b;
    }
    out.selected.push_back(round.index);
    taken[round.index] = 1;
    out.min_pairwise = std::min(out.min_pairwise, round.dist);
  }
  if (k < 2) out.min_pairwise = 0.0;
  return out;
}

Result<DispersionResult> SelectDiverseSet(size_t m, size_t k,
                                          const AgreementDistance& distance,
                                          const std::vector<uint64_t>& domination_scores,
                                          ThreadPool* pool, size_t morsel_rows) {
  SKYDIVER_RETURN_NOT_OK(ValidateScores(m, domination_scores));
  return GreedyMaxMin(m, k, AgreementDistanceRow(distance), RawScores(domination_scores),
                      pool, morsel_rows);
}

Result<DispersionResult> SelectDiverseSet(size_t m, size_t k, const DistanceFn& distance,
                                          const std::vector<uint64_t>& domination_scores) {
  SKYDIVER_RETURN_NOT_OK(ValidateScores(m, domination_scores));
  return GreedyMaxMin(m, k, PairDistanceRow(distance), RawScores(domination_scores),
                      nullptr);
}

Result<DispersionResult> SelectDiverseSet(size_t m, size_t k, const DistanceFn& distance,
                                          const ScoreFn& score) {
  return GreedyMaxMin(m, k, PairDistanceRow(distance), score, nullptr);
}

Result<DispersionResult> SelectMaxSumSet(size_t m, size_t k, const DistanceFn& distance,
                                         const ScoreFn& score) {
  SKYDIVER_RETURN_NOT_OK(ValidateSelection(m, k));
  DispersionResult out;
  out.selected.reserve(k);

  std::vector<bool> taken(m, false);
  std::vector<double> sum_dist(m, 0.0);
  std::vector<double> min_dist(m, std::numeric_limits<double>::infinity());

  const size_t seed = MaxScoreIndex(m, score);
  out.selected.push_back(seed);
  taken[seed] = true;
  out.min_pairwise = std::numeric_limits<double>::infinity();

  while (out.selected.size() < k) {
    const size_t newest = out.selected.back();
    size_t best = m;
    double best_sum = -std::numeric_limits<double>::infinity();
    double best_score = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < m; ++i) {
      if (taken[i]) continue;
      const double d = distance(i, newest);
      ++out.distance_evaluations;
      sum_dist[i] += d;
      if (d < min_dist[i]) min_dist[i] = d;
      const double s = score(i);
      if (sum_dist[i] > best_sum || (sum_dist[i] == best_sum && s > best_score)) {
        best = i;
        best_sum = sum_dist[i];
        best_score = s;
      }
    }
    out.selected.push_back(best);
    taken[best] = true;
    out.min_pairwise = std::min(out.min_pairwise, min_dist[best]);
  }
  if (k < 2) out.min_pairwise = 0.0;
  return out;
}

}  // namespace skydiver
