#include "segment/posterior.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace topkdup::segment {

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

double LogSumExp(double a, double b) {
  if (a == kNegInf) return b;
  if (b == kNegInf) return a;
  const double m = std::max(a, b);
  return m + std::log(std::exp(a - m) + std::exp(b - m));
}

}  // namespace

double LogPartitionFunction(const SegmentScorer& scorer,
                            const PosteriorOptions& options) {
  TOPKDUP_CHECK(options.temperature > 0.0);
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  if (n == 0) return 0.0;  // One (empty) segmentation with score 0.
  std::vector<double> alpha(n + 1, kNegInf);
  alpha[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    for (size_t j = 1; j <= std::min(band, i); ++j) {
      alpha[i] = LogSumExp(
          alpha[i],
          alpha[i - j] + scorer.Score(i - j, i - 1) / options.temperature);
    }
  }
  return alpha[n];
}

StatusOr<double> LogAnswerMass(const SegmentScorer& scorer,
                               const std::vector<size_t>& order,
                               const std::vector<double>& weights,
                               const TopKAnswer& answer,
                               const PosteriorOptions& options) {
  if (options.temperature <= 0.0) {
    return Status::InvalidArgument("LogAnswerMass: temperature must be > 0");
  }
  const size_t n = scorer.size();
  const size_t band = scorer.band();
  if (order.size() != n || weights.size() < n) {
    return Status::InvalidArgument(
        "LogAnswerMass: order/weights sizes do not match the scorer");
  }

  // Mark forced boundaries: positions covered by answer spans must be
  // segmented exactly as those spans.
  // forced_begin[p] = the answer span starting at p (by index), or -1.
  std::vector<int> span_at(n, -1);
  std::vector<bool> covered(n, false);
  for (size_t s = 0; s < answer.answer.size(); ++s) {
    const Span& span = answer.answer[s];
    if (span.end >= n || span.begin > span.end) {
      return Status::InvalidArgument("LogAnswerMass: span out of range");
    }
    for (size_t p = span.begin; p <= span.end; ++p) {
      if (covered[p]) {
        return Status::InvalidArgument("LogAnswerMass: overlapping spans");
      }
      covered[p] = true;
    }
    span_at[span.begin] = static_cast<int>(s);
  }

  std::vector<double> prefix(n + 1, 0.0);
  for (size_t p = 0; p < n; ++p) {
    prefix[p + 1] = prefix[p] + weights[order[p]];
  }
  auto span_weight = [&](size_t begin, size_t end) {
    return prefix[end + 1] - prefix[begin];
  };

  std::vector<double> alpha(n + 1, kNegInf);
  alpha[0] = 0.0;
  for (size_t i = 1; i <= n; ++i) {
    // Case 1: the segment ending at i-1 is one of the answer spans.
    for (size_t j = 1; j <= std::min(band, i); ++j) {
      const size_t begin = i - j;
      const bool is_answer_span =
          span_at[begin] >= 0 &&
          answer.answer[span_at[begin]].end == i - 1;
      if (is_answer_span) {
        alpha[i] = LogSumExp(
            alpha[i],
            alpha[begin] + scorer.Score(begin, i - 1) / options.temperature);
        continue;
      }
      // Case 2: a free segment — allowed only when it touches no covered
      // position and stays within the answer's weight threshold.
      bool free_ok = span_weight(begin, i - 1) <= answer.threshold;
      for (size_t p = begin; free_ok && p < i; ++p) {
        if (covered[p]) free_ok = false;
      }
      if (free_ok) {
        alpha[i] = LogSumExp(
            alpha[i],
            alpha[begin] + scorer.Score(begin, i - 1) / options.temperature);
      }
    }
  }
  return alpha[n];
}

}  // namespace topkdup::segment
