#ifndef TOPKDUP_SEGMENT_POSTERIOR_H_
#define TOPKDUP_SEGMENT_POSTERIOR_H_

#include <vector>

#include "common/status.h"
#include "segment/segment_scorer.h"
#include "segment/topk_dp.h"

namespace topkdup::segment {

/// §5 defines the score of a TopK answer as the *sum* of the scores of all
/// groupings whose K largest clusters are the answer, with scores
/// normalizable to probabilities through a Gibbs distribution. Within the
/// segmentation space that quantity is exactly computable: this module
/// provides the partition function and per-answer posteriors under
///
///   P(segmentation) proportional to exp(score(segmentation) / temperature)
///
/// restricted to segmentations whose segments are at most the scorer's
/// band long.
struct PosteriorOptions {
  /// Gibbs temperature: lower concentrates mass on the best segmentation.
  double temperature = 1.0;
};

/// log sum over all segmentations of exp(score / T). O(n * band).
double LogPartitionFunction(const SegmentScorer& scorer,
                            const PosteriorOptions& options = {});

/// Log of the total Gibbs mass of segmentations *consistent with* the
/// answer: the answer's spans appear as segments, and every other segment
/// weighs at most the answer's threshold (so the answer spans are the K
/// largest groups). Returns -inf when no consistent segmentation exists.
/// The answer's posterior probability is exp(LogAnswerMass - LogZ): the
/// paper's "R most probable answers" semantics made exact within the
/// segmentation space.
StatusOr<double> LogAnswerMass(const SegmentScorer& scorer,
                               const std::vector<size_t>& order,
                               const std::vector<double>& weights,
                               const TopKAnswer& answer,
                               const PosteriorOptions& options = {});

}  // namespace topkdup::segment

#endif  // TOPKDUP_SEGMENT_POSTERIOR_H_
