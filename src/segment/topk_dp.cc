#include "segment/topk_dp.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>

#include "common/check.h"
#include "common/deadline.h"
#include "common/strings.h"

namespace topkdup::segment {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// One ranked entry of a DP cell.
struct Entry {
  double score = kNegInf;
  uint32_t prev_i = 0;    // Cell position the last segment started from.
  uint16_t prev_rank = 0;  // Entry rank within the predecessor cell.
  bool answer = false;     // Last segment designated an answer segment.
};

/// Keeps the top-r entries of a cell, highest score first.
void PushEntry(std::vector<Entry>* cell, const Entry& e, int r) {
  if (e.score == kNegInf) return;
  auto it = std::upper_bound(
      cell->begin(), cell->end(), e,
      [](const Entry& a, const Entry& b) { return a.score > b.score; });
  cell->insert(it, e);
  if (cell->size() > static_cast<size_t>(r)) cell->pop_back();
}

std::vector<double> CollectThresholds(const std::vector<double>& prefix,
                                      size_t n, size_t band,
                                      size_t max_thresholds) {
  std::vector<double> values;
  values.push_back(0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i; j < std::min(n, i + band); ++j) {
      values.push_back(prefix[j + 1] - prefix[i]);
    }
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  if (max_thresholds == 0 || values.size() <= max_thresholds) return values;

  // Subsample: keep quantiles plus the heaviest values (answer segments
  // are heavy, so the critical threshold is usually near the top).
  std::vector<double> kept;
  const size_t head = max_thresholds / 4;
  const size_t quantiles = max_thresholds - head;
  for (size_t q = 0; q < quantiles; ++q) {
    kept.push_back(values[q * (values.size() - 1) / (quantiles - 1)]);
  }
  for (size_t h = 0; h < head; ++h) {
    kept.push_back(values[values.size() - 1 - h]);
  }
  std::sort(kept.begin(), kept.end());
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  return kept;
}

}  // namespace

cluster::Labels SpansToLabels(const std::vector<Span>& spans,
                              const std::vector<size_t>& order) {
  cluster::Labels labels(order.size(), -1);
  for (size_t s = 0; s < spans.size(); ++s) {
    for (size_t p = spans[s].begin; p <= spans[s].end; ++p) {
      labels[order[p]] = static_cast<int>(s);
    }
  }
  for (int l : labels) TOPKDUP_CHECK(l >= 0);
  return labels;
}

std::vector<Segmentation> BestSegmentations(const SegmentScorer& scorer,
                                            int r) {
  TOPKDUP_CHECK(r >= 1 && r <= kMaxDpRanks);
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  std::vector<Segmentation> out;
  if (n == 0) {
    out.push_back({0.0, {}});
    return out;
  }

  // cells[i]: top-r scores of segmenting the first i positions.
  std::vector<std::vector<Entry>> cells(n + 1);
  cells[0].push_back(Entry{0.0, 0, 0, false});
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= std::min(band, i); ++j) {
      const double seg = scorer.Score(i - j, i - 1);
      const auto& prev = cells[i - j];
      for (size_t rank = 0; rank < prev.size(); ++rank) {
        Entry e;
        e.score = prev[rank].score + seg;
        e.prev_i = static_cast<uint32_t>(i - j);
        e.prev_rank = static_cast<uint16_t>(rank);
        PushEntry(&cells[i], e, r);
      }
    }
  }

  for (size_t rank = 0; rank < cells[n].size(); ++rank) {
    Segmentation seg;
    seg.score = cells[n][rank].score;
    size_t i = n;
    size_t rk = rank;
    while (i > 0) {
      const Entry& e = cells[i][rk];
      seg.spans.push_back(Span{e.prev_i, i - 1});
      rk = e.prev_rank;
      i = e.prev_i;
    }
    std::reverse(seg.spans.begin(), seg.spans.end());
    out.push_back(std::move(seg));
  }
  return out;
}

StatusOr<std::vector<TopKAnswer>> TopKSegmentation(
    const SegmentScorer& scorer, const std::vector<size_t>& order,
    const std::vector<double>& weights, const TopKDpOptions& options,
    const QueryContext& ctx) {
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  const int k = options.k;
  const int r = options.r;
  if (k < 1) return Status::InvalidArgument("TopKSegmentation: k must be >= 1");
  if (r < 1 || r > kMaxDpRanks) {
    return Status::InvalidArgument(StrFormat(
        "TopKSegmentation: r must be in [1, %d]", kMaxDpRanks));
  }
  if (order.size() != n || weights.size() < n) {
    return Status::InvalidArgument(
        "TopKSegmentation: order/weights sizes do not match the scorer");
  }
  if (n < static_cast<size_t>(k)) {
    return Status::FailedPrecondition(StrFormat(
        "TopKSegmentation: %zu positions cannot form %d answer groups", n,
        k));
  }

  // Prefix weights over positions.
  std::vector<double> prefix(n + 1, 0.0);
  for (size_t p = 0; p < n; ++p) {
    prefix[p + 1] = prefix[p] + weights[order[p]];
  }
  auto span_weight = [&](size_t begin, size_t end) {
    return prefix[end + 1] - prefix[begin];
  };

  const std::vector<double> thresholds =
      CollectThresholds(prefix, n, band, options.max_thresholds);

  // Collect candidate answers across thresholds, deduping identical
  // (segmentation, answer-designation) pairs that multiple thresholds
  // produce.
  std::vector<TopKAnswer> results;
  std::unordered_set<std::string> seen;

  const Deadline* deadline = ctx.deadline;
  for (double threshold : thresholds) {
    // Per-threshold boundary: answers from fully processed thresholds are
    // final, so stopping here returns a sound (merely less explored)
    // top-R set.
    if (deadline != nullptr && deadline->Expired()) break;
    // cells[kk][i]: top-r over segmentations of the first i positions with
    // exactly kk answer segments, all non-answer segments weighing
    // <= threshold and all answer segments > threshold.
    std::vector<std::vector<std::vector<Entry>>> cells(
        static_cast<size_t>(k) + 1,
        std::vector<std::vector<Entry>>(n + 1));
    cells[0][0].push_back(Entry{0.0, 0, 0, false});

    bool interrupted = false;
    for (size_t i = 1; i <= n; ++i) {
      // Per-row poll (serial DP, deterministic under a work budget). An
      // interrupted table is discarded whole — a partially filled final
      // cell could surface a worse-than-reported answer.
      if (deadline != nullptr) {
        deadline->ChargeWork(std::min(band, i));
        if ((i & 0x3f) == 0 && deadline->Expired()) {
          interrupted = true;
          break;
        }
      }
      for (size_t j = 1; j <= std::min(band, i); ++j) {
        const double seg_score = scorer.Score(i - j, i - 1);
        const bool is_answer = span_weight(i - j, i - 1) > threshold;
        for (int kk = 0; kk <= k; ++kk) {
          const int from_k = is_answer ? kk - 1 : kk;
          if (from_k < 0) continue;
          const auto& prev = cells[from_k][i - j];
          for (size_t rank = 0; rank < prev.size(); ++rank) {
            Entry e;
            e.score = prev[rank].score + seg_score;
            e.prev_i = static_cast<uint32_t>(i - j);
            e.prev_rank = static_cast<uint16_t>(rank);
            e.answer = is_answer;
            PushEntry(&cells[kk][i], e, r);
          }
        }
      }
    }

    if (interrupted) break;

    // Backtrack each final entry.
    const auto& final_cell = cells[k][n];
    for (size_t rank = 0; rank < final_cell.size(); ++rank) {
      TopKAnswer ans;
      ans.score = final_cell[rank].score;
      ans.threshold = threshold;
      size_t i = n;
      size_t rk = rank;
      int kk = k;
      std::string signature;
      while (i > 0) {
        const Entry& e = cells[kk][i][rk];
        const Span span{e.prev_i, i - 1};
        ans.segmentation.push_back(span);
        if (e.answer) {
          ans.answer.push_back(span);
          --kk;
        }
        signature += StrFormat("%u-%zu%c|", e.prev_i, i - 1,
                               e.answer ? 'A' : 's');
        rk = e.prev_rank;
        i = e.prev_i;
      }
      std::reverse(ans.segmentation.begin(), ans.segmentation.end());
      std::sort(ans.answer.begin(), ans.answer.end(),
                [&](const Span& a, const Span& b) {
                  return span_weight(a.begin, a.end) >
                         span_weight(b.begin, b.end);
                });
      if (seen.insert(signature).second) {
        results.push_back(std::move(ans));
      }
    }
  }

  std::sort(results.begin(), results.end(),
            [](const TopKAnswer& a, const TopKAnswer& b) {
              return a.score > b.score;
            });
  if (results.size() > static_cast<size_t>(r)) {
    results.resize(static_cast<size_t>(r));
  }
  return results;
}

}  // namespace topkdup::segment
