#ifndef TOPKDUP_LEARN_LOGISTIC_H_
#define TOPKDUP_LEARN_LOGISTIC_H_

#include <vector>

#include "common/status.h"

namespace topkdup::learn {

/// A trained binary logistic-regression model. Score(x) = w . x + b is the
/// log-odds of the positive (duplicate) class — exactly the signed score P
/// the paper feeds to clustering: positive favors "duplicate", negative
/// "distinct", magnitude is confidence.
class LogisticModel {
 public:
  LogisticModel() = default;
  LogisticModel(std::vector<double> weights, double bias)
      : weights_(std::move(weights)), bias_(bias) {}

  /// Signed log-odds score.
  double Score(const std::vector<double>& x) const;

  /// Probability of the positive class (sigmoid of Score).
  double Probability(const std::vector<double>& x) const;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  std::vector<double> weights_;
  double bias_ = 0.0;
};

/// Trains by mini-batch-free SGD with L2 regularization over the given
/// examples: 200 epochs in a seeded shuffled order, learning rate 0.5
/// decaying as 0.5 / (1 + 0.05 * epoch), L2 weight 1e-4. `labels[i]` is
/// 1 (duplicate) or 0. Errors on empty or inconsistent input or
/// single-class labels.
StatusOr<LogisticModel> TrainLogistic(
    const std::vector<std::vector<double>>& examples,
    const std::vector<int>& labels);

}  // namespace topkdup::learn

#endif  // TOPKDUP_LEARN_LOGISTIC_H_
