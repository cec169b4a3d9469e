#ifndef TOPKDUP_SEGMENT_TOPK_DP_H_
#define TOPKDUP_SEGMENT_TOPK_DP_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "cluster/pair_scores.h"
#include "common/query_context.h"
#include "common/status.h"
#include "segment/segment_scorer.h"

namespace topkdup::segment {

/// A span of consecutive positions [begin, end], inclusive, in a linear
/// embedding.
struct Span {
  size_t begin = 0;
  size_t end = 0;

  bool operator==(const Span&) const = default;
};

/// One of the R highest-scoring TopK answers (paper §5.3.2): a full
/// segmentation of the embedding plus the K segments designated as the
/// answer groups.
struct TopKAnswer {
  /// Total decomposable score of the segmentation (sum of S over all its
  /// segments).
  double score = 0.0;
  /// The K answer segments, sorted by decreasing total weight.
  std::vector<Span> answer;
  /// The full segmentation, left to right.
  std::vector<Span> segmentation;
  /// The weight threshold under which this answer was found: every
  /// non-answer segment weighs <= threshold < every answer segment.
  double threshold = 0.0;
};

/// Largest R either DP accepts: a cell's entries are addressed by a
/// 16-bit rank.
inline constexpr int kMaxDpRanks = 1 << 16;

struct TopKDpOptions {
  int k = 1;
  int r = 1;
  /// Maximum segment length in positions (the paper's practical cap on
  /// clusters with too many dissimilar points).
  size_t band = 32;
  /// Cap on the candidate threshold set. When the number of distinct
  /// achievable segment weights exceeds this, the set is subsampled
  /// (quantiles plus the heaviest values); the DP is then exact per
  /// candidate threshold but may miss an optimum whose critical threshold
  /// was dropped. 0 = no cap.
  size_t max_thresholds = 64;
};

/// Finds the R highest-scoring TopK answers over all segmentations of the
/// given linear order, where the K answer segments must each weigh
/// strictly more than every non-answer segment. Implements the AnsR
/// recurrence of §5.3.2, parameterized by a weight threshold rather than a
/// positional length because collapsed positions carry weights.
///
/// `weights[item]` is each item's weight (e.g. collapsed-group weight);
/// pass all-ones for plain mention counts. Returns up to R answers sorted
/// by decreasing score; fewer when the order admits fewer than R distinct
/// qualifying segmentations. Errors when k < 1, r is outside
/// [1, kMaxDpRanks], or the order cannot produce K segments.
///
/// `ctx.deadline`, when non-null, is polled per candidate threshold and
/// per DP row (the DP is serial, so both checks are deterministic under a
/// work budget). On expiry the answers already completed are returned; a
/// threshold whose DP was interrupted mid-table contributes nothing.
/// Callers detect the truncation via deadline->expired(). Each DP row i
/// charges min(band, i) as work.
StatusOr<std::vector<TopKAnswer>> TopKSegmentation(
    const SegmentScorer& scorer, const std::vector<size_t>& order,
    const std::vector<double>& weights, const TopKDpOptions& options,
    const QueryContext& ctx = {});

/// The R highest-scoring *unconstrained* segmentations (no TopK answer
/// designation) — the partition-quality workhorse used by the fig7
/// accuracy comparison. Returns up to `r` segmentations sorted by
/// decreasing score; `r` must lie in [1, kMaxDpRanks].
struct Segmentation {
  double score = 0.0;
  std::vector<Span> spans;
};
std::vector<Segmentation> BestSegmentations(const SegmentScorer& scorer,
                                            int r);

/// Converts spans over `order` into item-label form (items of span s get
/// label s).
cluster::Labels SpansToLabels(const std::vector<Span>& spans,
                              const std::vector<size_t>& order);

}  // namespace topkdup::segment

#endif  // TOPKDUP_SEGMENT_TOPK_DP_H_
