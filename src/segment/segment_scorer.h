#ifndef TOPKDUP_SEGMENT_SEGMENT_SCORER_H_
#define TOPKDUP_SEGMENT_SEGMENT_SCORER_H_

#include <atomic>
#include <cstddef>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/query_context.h"

namespace topkdup::segment {

/// Precomputed decomposable group scores S(i, j) (paper §5.3.2) of every
/// contiguous span [i, j] of an ordered item list with length <= band:
/// S = (positive pair scores inside the span) - (negative pair scores
/// crossing out of the span), exactly GroupScore of cluster/correlation.h
/// applied to the span's items.
///
/// Build cost O(n * band * avg_degree); lookups are O(1) array reads, which
/// the DP over segmentations depends on.
class SegmentScorer {
 public:
  /// How a span's inside evidence is aggregated (§5.1 discusses both).
  /// The crossing term (negative pairs leaving the span earn a separation
  /// reward) is identical under both objectives.
  enum class Objective {
    /// Sum of positive pair scores inside the span (correlation
    /// clustering, Eq. 1). The default.
    kSumPositive,
    /// The paper's alternative: "instead of summing over all positive
    /// pairs within a cluster, take the score of the least positive
    /// pair" — the weakest link. A span containing any unstored pair is
    /// capped at the default score; a singleton span contributes 0.
    kMinPair,
  };

  /// `order` is a permutation of 0..scores.item_count()-1. Spans longer
  /// than `band` positions are not scored (the DP never asks for them;
  /// this is the paper's "do not consider clusters with too many
  /// dissimilar points" speedup).
  /// When `ctx.deadline` is non-null it is checked once at entry (full
  /// check) and urgent-polled per row during the fill; skipped rows keep
  /// score 0, which only worsens DP segment quality, never validity. The
  /// cells filled are charged as work after the (deterministically sized)
  /// fill.
  SegmentScorer(const cluster::PairScores& scores,
                const std::vector<size_t>& order, size_t band,
                Objective objective = Objective::kSumPositive,
                const QueryContext& ctx = {});

  /// Score of span [i, j], 0-based inclusive positions, j - i < band.
  double Score(size_t i, size_t j) const {
    return scores_flat_[i * band_ + (j - i)];
  }

  size_t size() const { return n_; }
  size_t band() const { return band_; }
  /// Number of table cells actually scored (rows are band-clipped at the
  /// right edge, so this is < n * band). Matches the per-build increment
  /// of the segment.scorer.cells_filled counter; used by explain reports.
  size_t cells_filled() const { return cells_filled_; }
  /// True when the deadline skipped some (or all) rows of the fill.
  bool degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }

 private:
  size_t n_;
  size_t band_;
  size_t cells_filled_ = 0;
  std::atomic<bool> degraded_{false};
  std::vector<double> scores_flat_;  // [i * band + (j - i)]
};

}  // namespace topkdup::segment

#endif  // TOPKDUP_SEGMENT_SEGMENT_SCORER_H_
