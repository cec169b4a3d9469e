#include "embed/linear_embedding.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/explain.h"

namespace topkdup::embed {

std::vector<size_t> GreedyEmbedding(const cluster::PairScores& scores,
                                    const std::vector<double>& weights,
                                    const GreedyEmbeddingOptions& options,
                                    const QueryContext& ctx) {
  obs::ExplainRecorder* recorder = ctx.explain;
  const size_t n = scores.item_count();
  TOPKDUP_CHECK(options.alpha > 0.0 && options.alpha <= 1.0);
  TOPKDUP_CHECK(weights.empty() || weights.size() == n);
  std::vector<size_t> order;
  if (n == 0) return order;
  order.reserve(n);

  auto weight_of = [&](size_t k) {
    return weights.empty() ? 0.0 : weights[k];
  };

  // Aged affinity of each unplaced item to the placed prefix, kept lazily:
  // the true affinity at step i is value[k] * alpha^(i - stamp[k]).
  std::vector<double> value(n, 0.0);
  std::vector<size_t> stamp(n, 0);
  std::vector<bool> placed(n, false);

  auto pick_seed = [&]() {
    size_t best = n;
    for (size_t k = 0; k < n; ++k) {
      if (placed[k]) continue;
      if (best == n || weight_of(k) > weight_of(best) ||
          (weight_of(k) == weight_of(best) && k < best)) {
        best = k;
      }
    }
    return best;
  };

  size_t regions = 0;
  for (size_t i = 0; i < n; ++i) {
    size_t chosen = n;
    // Sampled by step index, so the recorded picks are the same for a
    // given input regardless of how the caller parallelized upstream.
    const bool record_pick = recorder != nullptr && recorder->SampleKey(i);
    double best_affinity = 0.0;
    size_t runner_up = n;
    double runner_up_affinity = 0.0;
    if (!order.empty()) {
      for (size_t k = 0; k < n; ++k) {
        if (placed[k]) continue;
        const double aged =
            value[k] * std::pow(options.alpha,
                                static_cast<double>(i - stamp[k]));
        if (aged > best_affinity ||
            (aged == best_affinity && aged > 0.0 && chosen != n &&
             weight_of(k) > weight_of(chosen))) {
          if (record_pick && chosen != n) {
            runner_up = chosen;
            runner_up_affinity = best_affinity;
          }
          best_affinity = aged;
          chosen = k;
        } else if (record_pick && aged > runner_up_affinity && k != chosen) {
          runner_up = k;
          runner_up_affinity = aged;
        }
      }
    }
    const bool new_region = chosen == n;
    if (new_region) {
      chosen = pick_seed();
      ++regions;
    }
    if (record_pick) {
      recorder->RecordEmbeddingPick(
          {i, chosen, new_region ? 0.0 : best_affinity, runner_up,
           runner_up_affinity, new_region});
    }

    placed[chosen] = true;
    order.push_back(chosen);
    // Fold the newly placed item's similarities into its unplaced
    // neighbors' affinities at the current timestamp.
    for (const auto& [other, s] : scores.Neighbors(chosen)) {
      if (placed[other]) continue;
      value[other] *= std::pow(options.alpha,
                               static_cast<double>(i + 1 - stamp[other]));
      stamp[other] = i + 1;
      value[other] += s;
    }
  }
  if (recorder != nullptr) {
    recorder->RecordEmbeddingSummary(n, options.alpha, regions);
  }
  return order;
}

double ArrangementCost(const std::vector<size_t>& order,
                       const cluster::PairScores& scores) {
  std::vector<size_t> pos(scores.item_count(), 0);
  for (size_t p = 0; p < order.size(); ++p) pos[order[p]] = p;
  double cost = 0.0;
  for (size_t i = 0; i < scores.item_count(); ++i) {
    for (const auto& [j, s] : scores.Neighbors(i)) {
      if (j <= i || s <= 0.0) continue;
      const double dist = pos[i] > pos[j]
                              ? static_cast<double>(pos[i] - pos[j])
                              : static_cast<double>(pos[j] - pos[i]);
      cost += dist * s;
    }
  }
  return cost;
}

}  // namespace topkdup::embed
